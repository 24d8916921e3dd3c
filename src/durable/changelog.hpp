// Group-commit redo changelog.
//
// Committers serialise their redo records into a pending buffer and receive
// a sequence number; a dedicated writer thread swaps the buffer out, writes
// it with one write(2), fsyncs once, and advances `durable_seq` -- one fsync
// amortised over every record that arrived while the previous batch was in
// flight (plus a bounded linger, group_commit_interval_us, to let a batch
// form under light load).  wait_durable(seq) blocks the committer until the
// fsync covering seq completes; that return is the durability ack the
// runner's on_commit ordering is built on.
//
// Failure model is fail-stop: the first write/fsync error (real or injected
// EIO) poisons the log -- every current and future wait_durable() and every
// later commit raises stm::TxDurabilityError with the original reason.  No
// retry, no silent degradation.
//
// Recovery helpers (replay / truncation) are static: they run on a cold
// file before the Changelog (and its writer thread) exists.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "durable/epoch_fence.hpp"
#include "durable/fault.hpp"
#include "durable/log_format.hpp"

namespace shrinktm::durable {

/// Cumulative group-commit counters (RuntimeStats::Durable feeds from this).
struct ChangelogCounters {
  std::uint64_t records = 0;        ///< redo records appended
  std::uint64_t payload_words = 0;  ///< RedoWords across all records
  std::uint64_t bytes = 0;          ///< bytes written to the file
  std::uint64_t batches = 0;        ///< write(2) batches
  std::uint64_t fsyncs = 0;         ///< fsync(2) calls
  std::uint64_t max_batch_records = 0;  ///< largest batch observed
};

class Changelog {
 public:
  struct Config {
    std::string path;
    std::uint32_t group_commit_interval_us = 100;
    std::size_t max_batch_records = 4096;
    bool fsync = true;  ///< false for SyncMode::kNone
    /// When set (non-owning; the backend owns it), every batch write holds
    /// the directory's fencing lock and re-checks the epoch first: a batch
    /// from a deposed leader is refused and poisons the log instead of
    /// landing after a promotion (see durable/epoch_fence.hpp).
    EpochFence* fence = nullptr;
  };

  /// Opens (creating + writing the file header if empty) and starts the
  /// writer thread.  Recovery -- scanning, replaying, truncating a torn
  /// tail -- must have already happened (see replay()/truncate_to()).
  Changelog(Config cfg, std::shared_ptr<FaultPlan> fault);

  /// Stops the writer thread (flushing pending records best-effort) and
  /// closes the file.
  ~Changelog();

  Changelog(const Changelog&) = delete;
  Changelog& operator=(const Changelog&) = delete;

  /// Serialise one redo record; returns its sequence number (1-based).
  /// Never blocks on IO and never throws: on a poisoned log the record is
  /// dropped and the failure surfaces through failed()/wait_durable() --
  /// append() is called while the committer still holds its write locks,
  /// where unwinding would be unsafe.
  std::uint64_t append(std::span<const RedoWord> words,
                       std::uint64_t commit_ts);

  /// Block until the fsync covering `seq` has completed.  Throws
  /// stm::TxDurabilityError (with `tid` attached) if the log is or becomes
  /// poisoned before that happens.
  void wait_durable(std::uint64_t seq, int tid);

  /// Block until everything appended so far is durable.  Same failure
  /// semantics as wait_durable.
  void flush(int tid);

  /// Reset the file to just its header (after a snapshot made the log's
  /// contents redundant).  Caller must guarantee no concurrent append --
  /// the backend holds its snapshot gate exclusively.  Fires the truncate
  /// fault points.  Returns false (poisoning the log) on IO error.
  bool truncate_all();

  bool failed() const;
  std::string failure_reason() const;

  ChangelogCounters counters() const;
  /// Zero the counters (between measurement phases).  The sequence state
  /// that acknowledgments rest on is not a counter and is kept.
  void reset_counters();

  /// Max commit_ts ever append()ed to this log (0 before the first record).
  /// This is a timestamp that genuinely exists in the file, which makes it
  /// the correct read-your-writes ticket for replica::wait_until -- unlike
  /// the raw clock, which ticks on validation aborts that never produce a
  /// record and would leave a follower waiting for a phantom.
  std::uint64_t max_appended_ts() const;

  // ---- cold-file recovery helpers ----

  struct ScanResult {
    std::uint64_t records = 0;      ///< valid records seen
    std::uint64_t replayed = 0;     ///< records passed to apply (ts filter)
    std::uint64_t last_ts = 0;      ///< max commit_ts among valid records
    std::uint64_t valid_bytes = 0;  ///< offset of the first invalid byte
    bool torn = false;              ///< file had a torn/corrupt tail
  };

  /// Scan `path`, invoking `apply(commit_ts, words, count)` in file order
  /// for every valid record with commit_ts > min_ts_exclusive.  Stops (and
  /// reports torn) at the first short or CRC-mismatching record.  A missing
  /// or headerless file scans as empty.  Never throws.
  static ScanResult replay(
      const std::string& path, std::uint64_t min_ts_exclusive,
      const std::function<void(std::uint64_t, const RedoWord*, std::size_t)>&
          apply);

  /// Truncate `path` to `valid_bytes` (dropping a torn tail found by
  /// replay()).  Returns false on IO error.
  static bool truncate_to(const std::string& path, std::uint64_t valid_bytes);

 private:
  void writer_loop();
  /// Write+fsync one swapped-out batch (runs unlocked).  Returns an empty
  /// string on success, else the failure reason that poisons the log.
  std::string write_batch(const std::vector<unsigned char>& buf);

  Config cfg_;
  std::shared_ptr<FaultPlan> fault_;
  int fd_ = -1;
  int dir_fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable writer_cv_;  ///< append -> writer: work available
  std::condition_variable ack_cv_;     ///< writer -> committers: batch durable
  std::vector<unsigned char> pending_;
  std::uint64_t pending_records_ = 0;
  std::uint64_t appended_seq_ = 0;
  std::uint64_t durable_seq_ = 0;
  std::uint64_t max_appended_ts_ = 0;
  bool failed_ = false;
  std::string fail_reason_;
  bool stop_ = false;
  bool flush_requested_ = false;  ///< flush() waits: skip the linger

  ChangelogCounters counters_;

  std::thread writer_;
};

}  // namespace shrinktm::durable
