// Output checks of the benchmark.  Each one compares what the program left
// behind with a value the benchmark computed on its own (a tally of the
// operations that returned) or with a property every correct output has.
// They are pure functions so the self-test can feed them hand-made wrong
// outputs (selftest.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One hotspot-rmw record: four words that every update moves together.
struct Rec {
  std::array<std::uint64_t, 4> w;
};

/// A record whose words differ was read from a torn snapshot.
inline bool torn(const Rec& r) {
  return r.w[1] != r.w[0] || r.w[2] != r.w[0] || r.w[3] != r.w[0];
}

/// Increments missing from (or added to) the records: for each record, the
/// largest distance of any of its words from initial + committed updates.
/// `rec_at(i)` returns record i; `tallies` points at one vector of
/// per-record committed-update counts per worker.
template <typename RecAt>
std::uint64_t lost_increments(
    std::size_t n, RecAt rec_at, const std::vector<std::uint64_t>& initial,
    const std::vector<const std::vector<std::uint32_t>*>& tallies) {
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t expect = initial[i];
    for (const auto* t : tallies) expect += (*t)[i];
    std::uint64_t worst = 0;
    for (std::uint64_t v : rec_at(i).w) {
      const std::uint64_t d = v > expect ? v - expect : expect - v;
      if (d > worst) worst = d;
    }
    lost += worst;
  }
  return lost;
}

/// Accounts whose balance differs from initial + the committed deltas the
/// workers tallied (`deltas` points at one per-account vector per worker).
inline std::uint64_t ledger_legs_off(
    const std::vector<std::int64_t>& balances,
    const std::vector<std::int64_t>& initial,
    const std::vector<const std::vector<std::int64_t>*>& deltas) {
  std::uint64_t off = 0;
  for (std::size_t a = 0; a < balances.size(); ++a) {
    std::int64_t expect = initial[a];
    for (const auto* d : deltas) expect += (*d)[a];
    if (balances[a] != expect) ++off;
  }
  return off;
}

/// Accounts that read back differently after a close and reopen.
inline std::uint64_t restart_mismatches(const std::vector<std::int64_t>& before,
                                        const std::vector<std::int64_t>& after) {
  std::uint64_t bad = before.size() > after.size() ? before.size() - after.size()
                                                   : after.size() - before.size();
  const std::size_t n = before.size() < after.size() ? before.size() : after.size();
  for (std::size_t a = 0; a < n; ++a)
    if (before[a] != after[a]) ++bad;
  return bad;
}

}  // namespace perfbench
