#include "core/shrink.hpp"

namespace shrinktm::core {

ShrinkScheduler::ShrinkScheduler(const stm::WriteOracle& oracle, ShrinkConfig cfg)
    : Scheduler("shrink"), oracle_(oracle), cfg_(std::move(cfg)),
      threads_(cfg_.max_threads) {}

ShrinkScheduler::ThreadState& ShrinkScheduler::state(int tid) {
  if (threads_[tid]) return *threads_[tid];
  std::lock_guard<std::mutex> g(reg_mutex_);
  if (!threads_[tid])
    threads_[tid] = std::make_unique<ThreadState>(
        cfg_, cfg_.seed + static_cast<std::uint64_t>(tid) * 0x9e3779b97f4a7c15ULL);
  return *threads_[tid];
}

void ShrinkScheduler::before_start(int tid) {
  ThreadState& ts = state(tid);
  ts.last_decision = 0;
  if (ts.succ_rate < cfg_.succ_threshold) {
    // Serialization affinity: engage the prediction scheme with probability
    // proportional to the number of threads already serialized.
    const std::uint64_t r = ts.rng.next_in(1, cfg_.affinity_scale);
    const std::uint64_t wc = wait_count_.load(std::memory_order_relaxed);
    if (!cfg_.use_affinity || r <= wc + cfg_.affinity_bootstrap) {
      stats_.prediction_uses.add(1);
      ts.last_decision |= kDecisionPredictionUsed;
      bool conflict_predicted = false;
      if (cfg_.use_read_prediction) {
        for (const void* addr : ts.pred.predicted_reads().items()) {
          if (oracle_.is_write_locked_by_other(addr, tid)) {
            conflict_predicted = true;
            break;
          }
        }
      }
      if (!conflict_predicted && cfg_.use_write_prediction) {
        for (const void* addr : ts.pred.predicted_writes().items()) {
          if (oracle_.is_write_locked_by_other(addr, tid)) {
            conflict_predicted = true;
            break;
          }
        }
      }
      if (conflict_predicted) {
        stats_.prediction_hits.add(1);
        stats_.waits.add(1);
        ts.last_decision |= kDecisionPredictionHit | kDecisionSerialized;
        // Count ourselves as waiting *before* blocking, so concurrent
        // affinity draws see the rising contention.
        wait_count_.fetch_add(1, std::memory_order_acq_rel);
        global_lock_.lock();
        ts.owns_global = true;
        stats_.serialized_txs.add(1);
      }
    }
  }
  // The serialization check above consumed the predicted sets; now let the
  // tracker clear stale state and arm accuracy bookkeeping.  The read-path
  // bookkeeping runs only for threads that have aborted recently (the
  // hysteresis band) -- healthy threads pay nothing per read.
  ts.track_reads =
      cfg_.track_accuracy || ts.succ_rate < cfg_.track_when_succ_below;
  ts.pred.set_active(ts.track_reads);
  ts.pred.begin_tx(cfg_.track_accuracy);
}

void ShrinkScheduler::on_read(int tid, const void* addr, std::uint64_t hash) {
  state(tid).pred.on_read(addr, hash);
}

void ShrinkScheduler::on_write(int tid, const void* addr) {
  state(tid).pred.on_write(addr);
}

void ShrinkScheduler::on_commit(int tid) {
  ThreadState& ts = state(tid);
  ts.succ_rate = (ts.succ_rate + cfg_.success) / 2.0;
  ts.pred.note_commit();
  if (ts.owns_global) {
    ts.owns_global = false;
    global_lock_.unlock();
    wait_count_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ShrinkScheduler::on_abort(int tid, std::span<void* const> write_addrs,
                               int /*enemy_tid*/) {
  ThreadState& ts = state(tid);
  ts.succ_rate /= 2.0;
  ts.pred.note_abort(write_addrs);
  if (ts.owns_global) {
    ts.owns_global = false;
    global_lock_.unlock();
    wait_count_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ShrinkScheduler::on_cancel(int tid) {
  // User cancel: release the serialization lock if this attempt held it, but
  // leave the success rate and predictor untouched -- a cancel carries no
  // contention signal, and the next before_start's begin_tx resets the
  // per-transaction tracking state anyway.
  ThreadState& ts = state(tid);
  if (ts.owns_global) {
    ts.owns_global = false;
    global_lock_.unlock();
    wait_count_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ShrinkScheduler::reset_stats() {
  Scheduler::reset_stats();
  std::lock_guard<std::mutex> g(reg_mutex_);
  for (auto& t : threads_)
    if (t) t->pred.reset_accuracy();
}

util::OnlineStats ShrinkScheduler::aggregate_read_accuracy() const {
  util::OnlineStats all;
  for (const auto& t : threads_)
    if (t) all.merge(t->pred.read_accuracy());
  return all;
}

util::OnlineStats ShrinkScheduler::aggregate_write_accuracy() const {
  util::OnlineStats all;
  for (const auto& t : threads_)
    if (t) all.merge(t->pred.write_accuracy());
  return all;
}

util::OnlineStats ShrinkScheduler::aggregate_retry_read_accuracy() const {
  util::OnlineStats all;
  for (const auto& t : threads_)
    if (t) all.merge(t->pred.retry_read_accuracy());
  return all;
}

}  // namespace shrinktm::core
