// TinyBackend: a TinySTM-style word-based STM.
//
// Design points reproduced from TinySTM 0.9.5 (Riegel, Fetzer, Felber --
// "Time-based transactional memory with scalable time bases", SPAA'07),
// because the paper's §4.2 behaviour depends on them:
//   * encounter-time (eager) write locking,
//   * write-back redo logging,
//   * a global time base with incremental snapshot extension (LSA),
//   * suicide contention management: on any lock conflict the transaction
//     aborts itself and immediately retries,
//   * busy waiting by default.
// Eager locking + suicide + busy waiting are exactly what makes the base
// system collapse when overloaded (paper Figures 8, 10, 11); Shrink then
// rescues it.
//
// The durable backend (durable/backend.hpp) is this backend plus a
// CommitLog: the one seam through which a writing commit reaches the
// changelog.  It is null on a volatile TinyBackend.
#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <span>

#include "stm/core.hpp"
#include "stm/raw.hpp"

namespace shrinktm::stm {

class TinyTx;

/// One ownership record.  Even value = version<<1; odd value = locked,
/// upper bits are the owning TinyTx*.
struct TinyOrec {
  std::atomic<std::uint64_t> word{0};
};

/// The durable tail of a writing TinyTx commit (see durable/backend.hpp for
/// the protocol and its ordering argument).
class CommitLog {
 public:
  /// Shared hold on the snapshot gate for {tick, validate, write-back,
  /// append, release}.  Throws TxDurabilityError, before any memory effect,
  /// if the log is poisoned.
  virtual std::shared_lock<std::shared_mutex> enter(int tid) = 0;
  /// Enqueue the logged part of a write set committing at `wv`; called
  /// while the committer still holds its write locks.  Returns the sequence
  /// number to wait_durable() on, or 0 if the commit need not wait.
  virtual std::uint64_t append(int tid,
                               std::span<const WriteLog<TinyOrec>::Entry> writes,
                               std::uint64_t wv) = 0;
  /// Durability acknowledgment, called once the descriptor is idle.
  virtual void wait_durable(int tid, std::uint64_t seq) = 0;

 protected:
  ~CommitLog() = default;
};

/// Shared state of a TinySTM-style runtime: the orec table, the global
/// clock, per-thread descriptors, and the epoch reclaimer.
class TinyBackend : public BackendCore<TinyBackend, TinyTx, TinyOrec> {
 public:
  explicit TinyBackend(StmConfig cfg = default_config());
  ~TinyBackend() override;

  /// TinySTM defaults to busy waiting; make that the backend default too.
  static StmConfig default_config() {
    StmConfig cfg;
    cfg.wait_policy = util::WaitPolicy::kBusy;
    return cfg;
  }

  // WriteOracle
  bool is_write_locked_by_other(const void* addr, int self_tid) const override;

 protected:
  /// Set once by a durable subclass before any descriptor commits.
  CommitLog* commit_log_ = nullptr;

 private:
  friend class TinyTx;
};

/// Per-thread transaction descriptor.
class TinyTx final : public TxCore<TinyTx, TinyBackend, TinyOrec> {
 public:
  TinyTx(TinyBackend& backend, int tid) : TxCore(backend, tid) {}

  Word load(const Word* addr);
  void store(Word* addr, Word value);
  /// Throws TxConflict if the attempt must be retried.  With a commit log:
  /// returns once the commit is durable (SyncMode::kGroupCommit), and throws
  /// TxDurabilityError if the log is poisoned (before any memory effect) or
  /// the covering fsync fails (after the memory commit -- fail-stop, see
  /// word.hpp).
  void commit();

 private:
  friend TxCore;
  friend class TinyBackend;

  bool validate() const;
  void roll_back_locks();
};

}  // namespace shrinktm::stm
