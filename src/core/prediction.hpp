// Access-set prediction (paper §3).
//
// Read sets: temporal locality -- addresses frequently read by the last few
// transactions of a thread are likely to be read again.  A window of
// `locality_window` Bloom filters holds those read sets; membership in the
// filter of the i-th previous transaction contributes confidence weight c_i,
// and an address whose confidence reaches `confidence_threshold` enters the
// predicted read set of the thread's next transaction.
//
// Write sets: locality across *retries* -- the write set of an aborted
// transaction is the prediction for the restarted transaction.
//
// Hot-path layout (use_blocked_bloom, the default): the window holds
// cache-line-blocked filters and the tracker maintains a fused *window
// digest* -- the OR of window_[1..] -- so on_read costs exactly one hash and
// touches <= 2 cache lines (bf0's block + the digest's block) on the common
// miss path; the per-filter confidence walk runs only behind a digest hit.
// Digest maintenance: on rotate the just-finished filter is OR-ed in
// (incremental, keeps the digest a superset of the window union -- never a
// false negative), and every `digest_rebuild_rotations` rotations it is
// rebuilt from scratch so bits of dropped filters cannot linger forever.
// The unblocked implementation is kept behind use_blocked_bloom=false for
// accuracy-parity tests and before/after microbenchmarks.
//
// This class is single-threaded (one per thread) and separable from Shrink
// so its accuracy can be measured independently (Figure 3).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/blocked_bloom.hpp"
#include "util/bloom.hpp"
#include "util/flatset.hpp"
#include "util/stats.hpp"

namespace shrinktm::core {

struct PredictionConfig {
  unsigned locality_window = 4;           ///< number of Bloom filters kept
  int confidence_threshold = 3;           ///< paper value
  std::vector<int> confidence_weights = {3, 2, 1};  ///< c1, c2, c3 (older -> 0)
  unsigned bloom_log2_bits = 12;  ///< 4096 bits per filter
  /// Two probes keep the false-positive rate ~1% at benchmark read-set
  /// sizes while halving the probe loads on the read path.
  unsigned bloom_hashes = 2;
  /// log2 of the predicted-set probe tables (capacity = half that): must
  /// hold a long traversal's confident reads without saturating.
  unsigned pred_set_log2_slots = 12;
  /// Blocked filters + fused window digest (the fast path).  false selects
  /// the pre-blocked implementation: standard double-hashed filters, no
  /// digest, full window walk per read -- kept for parity tests and the
  /// before/after numbers in bench/micro_primitives.
  bool use_blocked_bloom = true;
  /// Rotations between full digest rebuilds.  Between rebuilds the digest
  /// only grows (superset invariant), so staleness costs at most a wasted
  /// window walk, never a missed prediction.  Kept small: stale bits from
  /// dropped filters raise the digest's false-positive rate, and each
  /// spurious hit buys a full window walk -- a rebuild is only ~window
  /// cache lines of ORs per rotation, far cheaper than probing stale bits
  /// hundreds of times per transaction.
  unsigned digest_rebuild_rotations = 2;
};

/// Per-thread predictor.  Call on_read for every transactional read,
/// note_commit / note_abort at transaction boundaries.
class PredictionTracker {
 public:
  explicit PredictionTracker(const PredictionConfig& cfg = {});

  /// Record a read.  Hot path: `h` must be util::hash_ptr(addr), computed
  /// once by the caller (the STM read path) and reused for every probe.
  void on_read(const void* addr, std::uint64_t h);
  /// Convenience for tests/benches: hashes only when the mode needs it, so
  /// the legacy path measures its true pre-overhaul cost.
  void on_read(const void* addr) {
    if (cfg_.use_blocked_bloom) on_read(addr, util::hash_ptr(addr));
    else legacy_on_read(addr);
  }

  /// Cheap mode switch: while a thread's success rate is healthy nobody
  /// consumes its predictions, so all read-path and commit-path bookkeeping
  /// is skipped.  Re-activation clears the (stale) window and digest;
  /// predictions repopulate within two transactions.
  void set_active(bool active);
  bool active() const { return active_; }

  /// Record a write (only needed for accuracy instrumentation; Shrink's
  /// write prediction comes from note_abort).
  void on_write(const void* addr);

  /// The transaction committed: record accuracy and rotate the locality
  /// window.  Prediction sets are cleared lazily at the next begin_tx so the
  /// serialization check of the *next* transaction can still consume them
  /// (Algorithm 1 clears after the check, not at commit).
  void note_commit();

  /// The transaction aborted: its write set becomes the predicted write set
  /// of the retry.  The Bloom window is NOT rotated -- temporal locality
  /// works across commits and aborts; retries keep accumulating into bf0.
  void note_abort(std::span<void* const> write_addrs);

  /// Called at transaction start, *after* the serialization check consumed
  /// the predicted sets: snapshots the predictions as the accuracy baseline
  /// and drops them if the previous transaction committed.
  void begin_tx(bool track_accuracy);

  const util::FlatPtrSet& predicted_reads() const { return pred_reads_; }
  const util::FlatPtrSet& predicted_writes() const { return pred_writes_; }

  // --- accuracy instrumentation (Figure 3) ---
  const util::OnlineStats& read_accuracy() const { return read_acc_; }
  const util::OnlineStats& write_accuracy() const { return write_acc_; }
  /// Accuracy over retry transactions only (the ones whose predictions
  /// Shrink actually consumes for serialization decisions).
  const util::OnlineStats& retry_read_accuracy() const { return retry_read_acc_; }
  void reset_accuracy() {
    read_acc_ = {};
    write_acc_ = {};
    retry_read_acc_ = {};
  }

  // --- introspection (tests, diagnostics; not on the hot path) ---
  /// Whether the fused digest (blocked mode) would admit `addr` to the
  /// confidence walk.  Always false in legacy mode.
  bool digest_covers(const void* addr) const;
  /// Confidence the current window assigns to `addr`.
  int confidence_of(const void* addr) const;
  bool blocked_mode() const { return cfg_.use_blocked_bloom; }

 private:
  void legacy_on_read(const void* addr);
  int confidence_for(util::BlockedBloomFilter::Hashed h) const;
  int legacy_confidence_for(util::BloomFilter::Hashed h) const;
  void rotate_window();
  void rebuild_digest();
  void clear_window();

  PredictionConfig cfg_;
  /// window_[0] = current tx reads; exactly one of the two vectors is
  /// populated, selected by cfg_.use_blocked_bloom.
  std::vector<util::BlockedBloomFilter> window_;
  std::vector<util::BloomFilter> legacy_window_;
  util::BlockedBloomFilter digest_;  ///< superset of OR(window_[1..])
  unsigned rotations_since_rebuild_ = 0;
  util::FlatPtrSet pred_reads_;
  util::FlatPtrSet pred_writes_;
  bool last_committed_ = false;
  bool active_ = true;

  // accuracy tracking state for the transaction in flight
  bool tracking_ = false;
  std::size_t active_read_pred_size_ = 0;
  std::size_t active_write_pred_size_ = 0;
  util::FlatPtrSet read_hits_;
  util::FlatPtrSet write_hits_;
  util::FlatPtrSet active_read_pred_;
  bool this_tx_is_retry_ = false;
  util::OnlineStats read_acc_;
  util::OnlineStats write_acc_;
  util::OnlineStats retry_read_acc_;
};

}  // namespace shrinktm::core
