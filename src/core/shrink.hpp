// Shrink: the paper's prediction-based conflict-preventing scheduler
// (Algorithm 1 / Figure 4).
//
// Per thread, Shrink tracks a success rate (exponentially averaged
// commit/abort outcome).  While the success rate is healthy the thread runs
// exactly as under the base STM.  Once it drops below succ_threshold:
//   1. serialization affinity -- draw r uniform in [1, affinity_scale]; use
//      the prediction scheme only if r <= wait_count + affinity_bootstrap,
//      i.e. with probability proportional to the number of threads already
//      serialized (plus a bootstrap so the mechanism can start from zero;
//      see DESIGN.md §3 for why the paper's literal `r < wait_count` would
//      never fire),
//   2. prediction -- if any address in the predicted read or write set is
//      currently write-locked by another thread (the visible-writes oracle),
//      the transaction is serialized: it runs holding the global mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/prediction.hpp"
#include "core/scheduler.hpp"
#include "stm/hooks.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace shrinktm::core {

struct ShrinkConfig {
  // Paper §4 parameter values.
  double success = 1.0;
  double succ_threshold = 0.5;
  unsigned affinity_scale = 32;
  /// Added to wait_count in the affinity test so serialization can bootstrap
  /// from wait_count == 0 (probability bootstrap/scale).  See DESIGN.md.
  unsigned affinity_bootstrap = 4;
  /// Prediction bookkeeping (Bloom window maintenance on the read path)
  /// runs only while a thread's success rate is below this.  1.0 would keep
  /// it always-on (the literal Algorithm 1); anything in (succ_threshold, 1)
  /// is a hysteresis band: after an abort drops the rate, tracking stays on
  /// until ~log2(1/(1-band)) consecutive commits rebuild confidence.
  double track_when_succ_below = 0.995;
  PredictionConfig prediction;

  // Ablation switches (bench/ablation_shrink.cpp): disable one ingredient
  // at a time to quantify its contribution.
  bool use_read_prediction = true;
  bool use_write_prediction = true;
  /// false = check prediction on EVERY low-success start instead of with
  /// probability proportional to wait_count (turns off serialization
  /// affinity, the paper's §3 heuristic).
  bool use_affinity = true;
  /// Record per-transaction prediction accuracy (Figure 3); costs a little
  /// bookkeeping per read, off by default.
  bool track_accuracy = false;
  std::size_t max_threads = 128;
  std::uint64_t seed = 0x5eed5eedULL;
};

class ShrinkScheduler final : public Scheduler {
 public:
  ShrinkScheduler(const stm::WriteOracle& oracle, ShrinkConfig cfg = {});

  void before_start(int tid) override;
  void on_read(int tid, const void* addr, std::uint64_t hash) override;
  void on_write(int tid, const void* addr) override;
  void on_commit(int tid) override;
  void on_abort(int tid, std::span<void* const> write_addrs, int enemy_tid) override;
  void on_cancel(int tid) override;
  bool wants_read_hook() const override { return true; }
  bool wants_write_hook() const override { return cfg_.track_accuracy; }
  bool read_hook_active(int tid) const override {
    const auto& t = threads_[tid];
    return t == nullptr || t->track_reads;
  }

  std::uint64_t wait_count() const override {
    return wait_count_.load(std::memory_order_relaxed);
  }

  bool serialized_now(int tid) const override {
    const auto& t = threads_[tid];
    return t != nullptr && t->owns_global;
  }

  /// Full verdict of the last before_start: whether the prediction scheme
  /// was consulted (affinity draw won), whether it found a locked address,
  /// and whether the attempt runs serialized as a result.
  std::uint32_t last_decision(int tid) const override {
    const auto& t = threads_[tid];
    return t != nullptr ? t->last_decision : 0;
  }

  /// Success rate of `tid`, or the optimistic initial rate if the thread
  /// never registered (threads register lazily on their first hook call, so
  /// observers may probe unseen tids -- cf. the guard in read_hook_active).
  double success_rate(int tid) const {
    const auto& t = threads_[tid];
    return t != nullptr ? t->succ_rate : cfg_.success;
  }

  /// Predictor of `tid`; a shared empty tracker for unregistered threads.
  const PredictionTracker& predictor(int tid) const {
    const auto& t = threads_[tid];
    if (t != nullptr) return t->pred;
    static const PredictionTracker kEmpty{};
    return kEmpty;
  }

  /// Aggregate Figure-3 accuracy over all threads (mean of per-transaction
  /// accuracies).
  util::OnlineStats aggregate_read_accuracy() const;
  util::OnlineStats aggregate_write_accuracy() const;
  util::OnlineStats aggregate_retry_read_accuracy() const;
  /// Also restarts the Figure-3 accuracy streams.
  void reset_stats() override;

 private:
  struct alignas(util::kCacheLine) ThreadState {
    explicit ThreadState(const ShrinkConfig& cfg, std::uint64_t seed)
        : pred(cfg.prediction), rng(seed) {}
    double succ_rate = 1.0;  // optimistic start: Shrink inert until aborts
    bool owns_global = false;
    bool track_reads = true;  // refreshed each before_start
    std::uint32_t last_decision = 0;  // kDecision* bits, reset each attempt
    PredictionTracker pred;
    util::Xoshiro256 rng;
  };

  ThreadState& state(int tid);

  const stm::WriteOracle& oracle_;
  ShrinkConfig cfg_;
  std::mutex global_lock_;  ///< the paper's global_lock (pthread mutex there)
  alignas(util::kCacheLine) std::atomic<std::uint64_t> wait_count_{0};
  std::vector<std::unique_ptr<ThreadState>> threads_;
  mutable std::mutex reg_mutex_;
};

}  // namespace shrinktm::core
