// Scheduler base class and common state.
//
// A TM scheduler (paper §1) is "a software component encapsulating a policy
// that decides when a particular transaction executes".  Concretely it is a
// SchedulerHooks implementation whose before_start may block the calling
// thread (serialization) and whose on_commit/on_abort observe outcomes.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "stm/hooks.hpp"
#include "util/align.hpp"

namespace shrinktm::core {

/// Counters describing what a scheduler did during a run; cheap relaxed
/// atomics, aggregated by the experiment harness.
struct SchedStats {
  util::PaddedCounter serialized_txs;   ///< attempts run under the global lock
  util::PaddedCounter prediction_uses;  ///< affinity coin said "use prediction"
  util::PaddedCounter prediction_hits;  ///< predicted conflict found -> serialized
  util::PaddedCounter waits;            ///< blocking waits in before_start

  std::uint64_t serialized() const { return serialized_txs.load(); }
  void reset() {
    serialized_txs.reset();
    prediction_uses.reset();
    prediction_hits.reset();
    waits.reset();
  }
};

/// Base class for all schedulers in this library.
class Scheduler : public stm::SchedulerHooks {
 public:
  explicit Scheduler(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  SchedStats& sched_stats() { return stats_; }
  const SchedStats& sched_stats() const { return stats_; }
  /// Zero the counters reported since the last reset (quiescent callers,
  /// between measurement phases).  Policy state is kept.
  virtual void reset_stats() { stats_.reset(); }

  /// Number of threads currently waiting for / holding the serialization
  /// lock (Shrink's wait_count; 0 for schedulers without one).
  virtual std::uint64_t wait_count() const { return 0; }

  // serialized_now(tid) is inherited from stm::SchedulerHooks (default
  // false) so the runner layer can query it through the hooks interface.

 protected:
  SchedStats stats_;

 private:
  std::string name_;
};

/// The base STM without any scheduling: every hook is a no-op.
class NullScheduler final : public Scheduler {
 public:
  NullScheduler() : Scheduler("base") {}
  void before_start(int) override {}
  void on_commit(int) override {}
  void on_abort(int, std::span<void* const>, int) override {}
};

}  // namespace shrinktm::core
