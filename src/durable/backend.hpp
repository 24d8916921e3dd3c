// DurableBackend: the third BackendKind -- TinyTx plus a commit-log tail.
// Committed writes to the durable Region survive process death.
//
// Transactions run on stm::TinyTx unchanged (encounter-time locking,
// write-back redo log, LSA snapshot extension, suicide CM): the paper's §4.2
// base system.  This class is a TinyBackend that installs itself as the
// descriptors' stm::CommitLog, the one seam a writing commit goes through.
// Durability is layered onto the commit protocol there:
//
//   TinyTx::commit():
//     enter(): fail if the log is poisoned;  (before any memory effect)
//       shared-lock the snapshot gate       (excludes snapshot(), nothing
//     wv = clock.tick()                      else -- commits stay parallel)
//     validate read set                     (an abort here unwinds the gate)
//     write back the redo log
//     append(): region writes -> changelog  <- still holding write locks
//     release write locks to wv
//     unlock gate, descriptor goes idle
//     wait_durable(seq)                     <- group-commit fsync ack
//
// Appending while the write locks are held gives the changelog the one
// ordering property recovery needs: two transactions that touched a common
// word appear in the log in their commit order (the second could not lock
// until the first released).  Disjoint transactions may interleave in any
// order, which replay-in-file-order is insensitive to.
//
// wait_durable() returning is the durability acknowledgment: TxRunner fires
// tx.on_commit only after commit() returns, so on_commit callbacks observe
// a transaction that is on disk, not merely in memory.
//
// snapshot() takes the gate exclusively, flushes the changelog, writes the
// Region image (tmp+fsync+rename), then truncates the log.  Ticking the
// clock inside the gate's shared section means every commit with
// ts <= snapshot ts has fully written back before the image is copied.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "durable/changelog.hpp"
#include "durable/epoch_fence.hpp"
#include "durable/options.hpp"
#include "durable/region.hpp"
#include "stm/tiny.hpp"
#include "util/align.hpp"
#include "util/stats.hpp"

namespace shrinktm::durable {

/// What cold start found and did.  Exposed through Runtime::recovery_info()
/// so tests and operators can assert on the recovered prefix.
struct RecoveryInfo {
  bool snapshot_loaded = false;   ///< a valid snapshot image was applied
  bool snapshot_corrupt = false;  ///< a snapshot file existed but failed CRC
  std::uint64_t snapshot_ts = 0;  ///< clock value of the loaded image
  std::uint64_t log_records = 0;  ///< valid records found in the changelog
  std::uint64_t replayed_records = 0;  ///< records applied (ts > snapshot_ts)
  bool torn_tail = false;              ///< log had a torn/corrupt tail
  std::uint64_t torn_bytes_dropped = 0;  ///< bytes truncated off that tail
  std::uint64_t last_ts = 0;  ///< clock value the recovered state reached
};

class DurableBackend final : public stm::TinyBackend, private stm::CommitLog {
 public:
  /// Opens (or creates) the durable directory, runs recovery -- load
  /// snapshot, replay changelog, truncate any torn tail, seed the clock --
  /// and starts the group-commit writer.  With opts.dir empty, a temp
  /// directory with Runtime lifetime is used (ephemeral mode).  The
  /// concurrency defaults are TinyBackend's (busy waiting).
  explicit DurableBackend(DurableOptions opts = {},
                          stm::StmConfig cfg = default_config());
  ~DurableBackend() override;

  Region& region() { return region_; }
  const DurableOptions& options() const { return opts_; }
  const std::string& dir() const { return dir_; }
  const RecoveryInfo& recovery() const { return recovery_; }
  Changelog& changelog() { return *changelog_; }

  /// The fencing epoch this backend claimed at open (strictly larger than
  /// every previous generation of the directory).  Once another claimant
  /// bumps past it -- promotion -- the next batch write refuses and commits
  /// fail-stop with stm::TxDurabilityError.
  std::uint64_t fence_epoch() const { return fence_->epoch(); }

  /// Consistent image + log truncation (see file comment).  Returns the
  /// clock value the image is consistent with.  Throws
  /// stm::TxDurabilityError on IO failure (injected or real); the log is
  /// NOT truncated unless the image landed durably.
  std::uint64_t snapshot();

  /// Sum of every thread's ack-latency histogram (ns per durable
  /// acknowledgment wait) and total acknowledged commits.
  std::pair<util::HdrHistogram, std::uint64_t> ack_histogram() const;

  /// Snapshots taken by the auto-cadence thread
  /// (DurableOptions::snapshot_every_bytes).
  std::uint64_t auto_snapshots() const {
    return auto_snapshots_.load(std::memory_order_relaxed);
  }

  /// Zero the durable counters stats() reports -- ack histograms, auto
  /// snapshots and the changelog's counters -- between measurement phases.
  /// The recovery report and the log's sequence state are kept.
  void reset_counters();

 private:
  /// Per-thread commit-tail state, created on a thread's first logged
  /// commit and touched only by that thread afterwards.
  struct alignas(util::kCacheLine) ThreadLog {
    std::vector<RedoWord> redo;  ///< region writes of the committing attempt
    util::HdrHistogram ack;      ///< durable-ack wait latency (ns)
    std::uint64_t acks = 0;
  };

  // stm::CommitLog -- the commit tail (see file comment).
  std::shared_lock<std::shared_mutex> enter(int tid) override;
  std::uint64_t append(int tid,
                       std::span<const stm::WriteLog<stm::TinyOrec>::Entry> writes,
                       std::uint64_t wv) override;
  void wait_durable(int tid, std::uint64_t seq) override;

  ThreadLog& thread_log(int tid);
  void recover();
  void auto_snapshot_loop();

  DurableOptions opts_;
  std::string dir_;
  bool ephemeral_ = false;

  Region region_;
  std::shared_ptr<FaultPlan> fault_;
  std::unique_ptr<EpochFence> fence_;
  std::unique_ptr<Changelog> changelog_;
  RecoveryInfo recovery_;
  /// Snapshot gate: commits hold it shared across {tick, validate,
  /// write-back, append, release}; snapshot() holds it exclusively while
  /// copying the region and truncating the log.
  std::shared_mutex commit_gate_;
  std::uint64_t snapshot_ts_ = 0;  ///< ts of the newest on-disk image

  // Auto-snapshot cadence (opts_.snapshot_every_bytes > 0): a dedicated
  // thread polls the log size and calls snapshot() past the threshold.  It
  // cannot run on the group-commit writer (snapshot() flushes, which waits
  // on that writer) nor inside commit() (the gate is held shared there).
  std::thread auto_snap_thread_;
  std::mutex auto_snap_mu_;
  std::condition_variable auto_snap_cv_;
  bool auto_snap_stop_ = false;
  std::atomic<std::uint64_t> auto_snapshots_{0};

  mutable std::mutex logs_mutex_;  ///< guards creation of thread_logs_ slots
  std::vector<std::unique_ptr<ThreadLog>> thread_logs_;  ///< by tid
};

}  // namespace shrinktm::durable
