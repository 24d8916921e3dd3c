// SwissBackend: a SwissTM-style word-based STM.
//
// Design points reproduced from SwissTM (Dragojevic, Guerraoui, Kapalka --
// "Stretching transactional memory", PLDI'09):
//   * two locks per ownership record: a write lock acquired eagerly at the
//     first write (eager write/write conflict detection) and a read-version
//     word validated lazily (lazy read/write conflict detection),
//   * write-back redo logging,
//   * time-based snapshots with incremental extension,
//   * a two-phase contention manager: transactions are "timid" (abort self
//     and back off) until they have performed `greedy_write_threshold`
//     writes, after which they hold a greedy ticket; on a write/write
//     conflict the older ticket wins and may remotely kill the enemy,
//   * configurable waiting: preemptive (default, §4.1) or busy (appendix).
#pragma once

#include <atomic>
#include <cstdint>

#include "stm/core.hpp"
#include "stm/raw.hpp"
#include "util/align.hpp"
#include "util/spin.hpp"

namespace shrinktm::stm {

class SwissTx;

/// Ownership record with split write-lock / read-version words.
/// wlock: 0 = free, otherwise owning SwissTx* | 1.
/// rver:  even = committed version<<1, odd (kCommitMarker) = a committer
///        is writing back; readers briefly spin.
struct SwissOrec {
  std::atomic<std::uint64_t> wlock{0};
  std::atomic<std::uint64_t> rver{0};
};

class SwissBackend final : public BackendCore<SwissBackend, SwissTx, SwissOrec> {
 public:
  static constexpr std::uint64_t kCommitMarker = 1;

  explicit SwissBackend(StmConfig cfg = StmConfig{});
  ~SwissBackend() override;

  // WriteOracle
  bool is_write_locked_by_other(const void* addr, int self_tid) const override;

 private:
  friend class SwissTx;

  alignas(util::kCacheLine) std::atomic<std::uint64_t> greedy_counter_{0};
};

class SwissTx final : public TxCore<SwissTx, SwissBackend, SwissOrec> {
 public:
  static constexpr std::uint64_t kNoTicket = ~std::uint64_t{0};

  SwissTx(SwissBackend& backend, int tid) : TxCore(backend, tid) {}

  Word load(const Word* addr);
  void store(Word* addr, Word value);
  void commit();

  std::uint64_t greedy_ticket() const {
    return ticket_.load(std::memory_order_acquire);
  }

 private:
  friend TxCore;
  friend class SwissBackend;

  bool validate(bool during_commit = false);
  /// Two-phase CM decision on a write/write conflict; either throws
  /// (self-abort) or returns after the enemy released the lock.
  void resolve_write_conflict(Orec& o, SwissTx* enemy);
  void release_write_locks();
  void roll_back_locks();

  bool commit_locking_ = false;  ///< rver markers currently set by us
  std::atomic<std::uint64_t> ticket_{kNoTicket};  ///< persists across retries
};

}  // namespace shrinktm::stm
