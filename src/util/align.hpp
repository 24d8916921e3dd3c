// Cache-line alignment helpers.
//
// Per-thread hot counters (success rates, commit counters, wait flags) are
// padded to a cache line each so that threads never false-share them.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>

namespace shrinktm::util {

// A fixed 64 bytes (right for x86-64 and most AArch64) rather than
// std::hardware_destructive_interference_size, whose value is not ABI-stable
// across compiler flags.
inline constexpr std::size_t kCacheLine = 64;

/// A value of type T alone on its own cache line.
template <typename T>
struct alignas(kCacheLine) Padded {
  T value{};

  T* operator->() { return &value; }
  const T* operator->() const { return &value; }
  T& operator*() { return value; }
  const T& operator*() const { return value; }
};

/// An atomic counter alone on its own cache line.
struct alignas(kCacheLine) PaddedCounter {
  std::atomic<std::uint64_t> value{0};

  void add(std::uint64_t d, std::memory_order o = std::memory_order_relaxed) {
    value.fetch_add(d, o);
  }
  std::uint64_t load(std::memory_order o = std::memory_order_relaxed) const {
    return value.load(o);
  }
  void reset() { value.store(0, std::memory_order_relaxed); }
};

}  // namespace shrinktm::util
