// ThreadRecorder: the per-thread observability channel of the obs subsystem.
//
// One recorder per tid, driven by that tid's TxRunner at the attempt
// boundaries (start / commit / abort / cancel / retry park).  Two outputs
// share the same clock reads:
//   * the always-on op-class latency histograms (obs/histograms.hpp), which
//     every Runtime feeds regardless of configuration -- two steady-clock
//     reads plus a couple of array increments per attempt;
//   * the optional binary trace ring (obs/trace.hpp), enabled by
//     RuntimeOptions::trace -- when off the ring pointer is null and every
//     trace push is one predicted-not-taken branch, so tracing is compiled
//     in but costs nothing measurable (the micro_primitives gate and the
//     adaptive/null overhead bound both run with it disabled).
//
// Layering: obs depends only on util.  Abort reasons arrive as plain ints;
// the api layer supplies names at dump time (obs/trace_writer.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "obs/histograms.hpp"
#include "obs/trace.hpp"

namespace shrinktm::obs {

class ThreadRecorder {
 public:
  /// @param trace_capacity 0 = tracing off (histograms only); otherwise the
  /// per-thread ring capacity in events.
  ThreadRecorder(int tid, std::size_t trace_capacity) : tid_(tid) {
    if (trace_capacity != 0) ring_ = std::make_unique<TraceRing>(trace_capacity);
  }

  int tid() const { return tid_; }

  // ---- runner callbacks (owning thread only) ----

  void attempt_start(bool serialized) {
    const std::uint64_t t = now_ns();
    if (last_abort_ns_ != 0) {
      hist_.abort_gap.add(t - last_abort_ns_);
      last_abort_ns_ = 0;
    }
    attempt_start_ns_ = t;
    serialized_ = serialized;
    if (ring_ != nullptr) {
      ring_->push({t, 0, EventKind::kAttemptStart,
                   serialized ? kFlagSerialized : std::uint8_t{0}, 0, -1});
      if (serialized)
        ring_->push({t, 0, EventKind::kSerEnter, 0, 0, -1});
    }
  }

  void commit() {
    const std::uint64_t t = now_ns();
    const std::uint64_t dur = t - attempt_start_ns_;
    hist_.commit.add(dur);
    end_serialized(t, dur);
    if (ring_ != nullptr)
      ring_->push({t, dur, EventKind::kCommit, 0, 0, -1});
  }

  void abort(int reason, int enemy_tid) {
    const std::uint64_t t = now_ns();
    const std::uint64_t dur = t - attempt_start_ns_;
    last_abort_ns_ = t;
    end_serialized(t, dur);
    if (ring_ != nullptr)
      ring_->push({t, dur, EventKind::kAbort, 0,
                   static_cast<std::int16_t>(reason), enemy_tid});
  }

  void cancel() {
    const std::uint64_t t = now_ns();
    const std::uint64_t dur = t - attempt_start_ns_;
    end_serialized(t, dur);
    if (ring_ != nullptr)
      ring_->push({t, dur, EventKind::kCancel, 0, 0, -1});
  }

  void park_begin() {
    park_start_ns_ = now_ns();
    // The parked attempt is over; a serialized sleeper released its lock in
    // on_retry_block, so close the serialized span at the park boundary.
    end_serialized(park_start_ns_, park_start_ns_ - attempt_start_ns_);
  }

  void park_end(bool slept, bool timed_out) {
    const std::uint64_t t = now_ns();
    const std::uint64_t dur = t - park_start_ns_;
    hist_.park.add(dur);
    if (ring_ != nullptr) {
      std::uint8_t flags = 0;
      if (slept) flags |= kFlagSlept;
      if (timed_out) flags |= kFlagTimedOut;
      ring_->push({t, dur, EventKind::kRetryPark, flags, 0, -1});
    }
  }

  /// Scheduler admission verdict for the attempt just opened by
  /// attempt_start (bits mirror stm::SchedulerHooks::kDecision*).  Trace
  /// ring only -- the serialized-residency histogram already covers the
  /// always-on half.  Callers gate on tracing() so the virtual
  /// last_decision() query is never paid when tracing is off.
  void sched_decision(std::uint32_t bits) {
    if (ring_ != nullptr && bits != 0)
      ring_->push({attempt_start_ns_, 0, EventKind::kSchedDecision, 0,
                   static_cast<std::int16_t>(bits), -1});
  }

  /// Whether the optional trace ring is live (RuntimeOptions::trace).
  bool tracing() const { return ring_ != nullptr; }

  // ---- snapshots (quiescent, or racy-but-benign) ----

  const LatencyHistograms& latency() const { return hist_; }
  /// Between measurement phases, while the owning thread is quiescent.
  void reset_latency() { hist_ = LatencyHistograms{}; }
  const TraceRing* ring() const { return ring_.get(); }

  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  void end_serialized(std::uint64_t t, std::uint64_t dur) {
    if (!serialized_) return;
    serialized_ = false;
    hist_.serialized.add(dur);
    if (ring_ != nullptr) ring_->push({t, 0, EventKind::kSerExit, 0, 0, -1});
  }

  const int tid_;
  LatencyHistograms hist_;
  std::unique_ptr<TraceRing> ring_;  ///< null when tracing is off

  std::uint64_t attempt_start_ns_ = 0;
  std::uint64_t last_abort_ns_ = 0;
  std::uint64_t park_start_ns_ = 0;
  bool serialized_ = false;
};

}  // namespace shrinktm::obs
