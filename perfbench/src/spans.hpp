// Span recording for the traced run.
//
// SpanRunner wraps an api::ThreadHandle and is what the workloads hand to
// StmBench7::op and use for their own transaction bodies.  With a SpanLog
// attached it records three things per operation: the atomically() call and
// its return, each entry into the body, and each exit from the body,
// whether it returns or unwinds on an abort.  Those timestamps split the
// operation into admission (call -> first entry: the scheduler's
// before_start, including the Shrink serialization wait), attempt bodies,
// retry gaps (exit -> next entry: rollback, backoff, re-admission) and the
// commit tail (last exit -> return: lock, validate, write back, and on the
// durable backend the changelog enqueue, plus the fsync ack under group
// commit).  Without a log it forwards to the
// handle and records nothing.
//
// Spans stay in memory: the first kKeepOps operations of each worker in
// full, for the Chrome trace-event file, and every traced operation as
// reservoir samples, for the percentiles.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/shrinktm.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A uniform sample of at most `cap` values of a stream (Vitter's
/// algorithm R), so percentiles cover a whole run in bounded memory.
class Reservoir {
 public:
  Reservoir(std::size_t cap, std::uint64_t seed) : cap_(cap), rng_(seed) {
    v_.reserve(cap);
  }

  void add(std::uint64_t x) {
    ++seen_;
    if (v_.size() < cap_) {
      v_.push_back(x);
    } else {
      const std::uint64_t j = rng_.next_below(seen_);
      if (j < cap_) v_[j] = x;
    }
  }

  std::uint64_t seen() const { return seen_; }
  const std::vector<std::uint64_t>& values() const { return v_; }

 private:
  std::size_t cap_;
  shrinktm::util::Xoshiro256 rng_;
  std::vector<std::uint64_t> v_;
  std::uint64_t seen_ = 0;
};

/// Quantile `q` of the union of several reservoirs, each sample weighted by
/// how many stream values it stands for.  The estimate is the weighted mean
/// of the samples ranked within kQuantileBand of q: clock ticks make many
/// samples equal, and a single order statistic would then read the same in
/// every run.  0 when all reservoirs are empty.
inline constexpr double kQuantileBand = 0.005;

inline double quantile(const std::vector<const Reservoir*>& rs, double q) {
  std::vector<std::pair<std::uint64_t, double>> all;
  double total = 0.0;
  for (const Reservoir* r : rs) {
    if (r->values().empty()) continue;
    const double w = static_cast<double>(r->seen()) /
                     static_cast<double>(r->values().size());
    for (std::uint64_t v : r->values()) all.emplace_back(v, w);
    total += static_cast<double>(r->seen());
  }
  if (all.empty()) return 0.0;
  std::sort(all.begin(), all.end());
  const double lo = (q - kQuantileBand) * total;
  const double hi = (q + kQuantileBand) * total;
  double acc = 0.0;
  double sum = 0.0;
  double weight = 0.0;
  for (const auto& [v, w] : all) {
    const double before = acc;
    acc += w;
    // The part of this sample's weight that falls inside [lo, hi].
    const double in = std::min(acc, hi) - std::max(before, lo);
    if (in > 0) {
      sum += in * static_cast<double>(v);
      weight += in;
    }
    if (acc >= hi) break;
  }
  return weight > 0 ? sum / weight : static_cast<double>(all.back().first);
}

/// One worker's spans.  Owned by the worker's slot; only its worker writes
/// it, and it is read after the worker has been joined.
class SpanLog {
 public:
  static constexpr std::size_t kKeepOps = 2000;
  static constexpr std::size_t kSamples = std::size_t{1} << 16;

  struct Attempt {
    std::uint64_t enter = 0;
    std::uint64_t exit = 0;
    bool unwound = false;
  };
  struct Op {
    std::uint64_t id = 0;
    std::uint64_t call = 0;
    std::uint64_t ret = 0;
    bool returned = false;  ///< false: atomically() threw
    std::size_t first = 0;  ///< index of its first attempt in attempts()
    std::size_t count = 0;
  };

  SpanLog(int worker, std::uint64_t seed)
      : worker_(worker),
        admit_(kSamples, seed ^ 0xa1),
        body_(kSamples, seed ^ 0xb2),
        gap_(kSamples, seed ^ 0xc3),
        commit_(kSamples, seed ^ 0xd4) {}

  void begin(std::uint64_t t) {
    call_ = t;
    cur_.clear();
    open_ = false;
  }
  void enter(std::uint64_t t) {
    if (open_) ++violations_;  // a second entry before the first exit
    cur_.push_back({t, 0, false});
    open_ = true;
  }
  void exit(std::uint64_t t, bool unwound) {
    if (!open_ || cur_.empty()) {
      ++violations_;
      return;
    }
    cur_.back().exit = t;
    cur_.back().unwound = unwound;
    open_ = false;
  }
  void end(std::uint64_t t, bool returned) {
    const std::uint64_t id = (static_cast<std::uint64_t>(worker_) << 40) | ops_;
    ++ops_;
    entries_ += cur_.size();
    if (!nested(call_, t, cur_, open_)) ++violations_;
    if (returned && !cur_.empty()) {
      admit_.add(cur_.front().enter - call_);
      for (std::size_t i = 0; i < cur_.size(); ++i) {
        body_.add(cur_[i].exit - cur_[i].enter);
        if (i + 1 < cur_.size()) gap_.add(cur_[i + 1].enter - cur_[i].exit);
      }
      commit_.add(t - cur_.back().exit);
    }
    if (ops_kept_.size() < kKeepOps) {
      ops_kept_.push_back({id, call_, t, returned, attempts_.size(), cur_.size()});
      attempts_.insert(attempts_.end(), cur_.begin(), cur_.end());
    }
  }

  /// True when every attempt lies inside [call, ret], attempts do not
  /// overlap, and none is still open.
  static bool nested(std::uint64_t call, std::uint64_t ret,
                     const std::vector<Attempt>& at, bool open) {
    if (open || ret < call) return false;
    std::uint64_t prev = call;
    for (const Attempt& a : at) {
      if (a.enter < prev || a.exit < a.enter) return false;
      prev = a.exit;
    }
    return prev <= ret;
  }

  std::uint64_t ops() const { return ops_; }
  std::uint64_t body_entries() const { return entries_; }
  std::uint64_t violations() const { return violations_; }
  const Reservoir& admit() const { return admit_; }
  const Reservoir& body() const { return body_; }
  const Reservoir& retry_gap() const { return gap_; }
  const Reservoir& commit() const { return commit_; }
  int worker() const { return worker_; }
  const std::vector<Op>& kept_ops() const { return ops_kept_; }
  const std::vector<Attempt>& attempts() const { return attempts_; }
  std::uint64_t dropped_ops() const { return ops_ - ops_kept_.size(); }

 private:
  int worker_;
  std::uint64_t call_ = 0;
  std::vector<Attempt> cur_;
  bool open_ = false;
  std::uint64_t ops_ = 0;
  std::uint64_t entries_ = 0;
  std::uint64_t violations_ = 0;
  Reservoir admit_, body_, gap_, commit_;
  std::vector<Op> ops_kept_;
  std::vector<Attempt> attempts_;
};

/// The Runner the workloads use: forwards run(body) to the handle, and
/// records spans while a SpanLog is attached.
class SpanRunner {
 public:
  explicit SpanRunner(shrinktm::api::ThreadHandle& h) : h_(h) {}

  int tid() const { return h_.tid(); }
  void attach_log(SpanLog* log) { log_ = log; }

  template <typename Body>
  auto run(Body&& body) {
    if (log_ == nullptr) return h_.run(body);
    SpanLog* log = log_;
    auto traced = [&body, log](shrinktm::api::Tx& tx) {
      log->enter(now_ns());
      const ExitMark mark{log, std::uncaught_exceptions()};
      return body(tx);
    };
    log->begin(now_ns());
    using R = std::invoke_result_t<Body&, shrinktm::api::Tx&>;
    try {
      if constexpr (std::is_void_v<R>) {
        h_.run(traced);
        log->end(now_ns(), true);
      } else {
        R r = h_.run(traced);
        log->end(now_ns(), true);
        return r;
      }
    } catch (...) {
      log->end(now_ns(), false);
      throw;
    }
  }

 private:
  /// Marks the body's exit on every path out of it; an exit during stack
  /// unwinding is an attempt that aborted inside the body.
  struct ExitMark {
    SpanLog* log;
    int uncaught;
    ~ExitMark() { log->exit(now_ns(), std::uncaught_exceptions() > uncaught); }
  };

  shrinktm::api::ThreadHandle& h_;
  SpanLog* log_ = nullptr;
};

/// The kept spans as Chrome trace-event JSON, in the object form
/// obs/trace_writer emits ({"traceEvents":[...],"displayTimeUnit":"ms",
/// "otherData":{...}}): one track per worker, one complete ("X") event per
/// atomically() call with its admission, attempt bodies, retry gaps and
/// commit tail as child events; every event carries its operation's id.
inline std::string chrome_trace_json(
    const std::vector<const SpanLog*>& logs,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
  for (const SpanLog* l : logs)
    if (!l->kept_ops().empty()) base = std::min(base, l->kept_ops().front().call);
  if (base == std::numeric_limits<std::uint64_t>::max()) base = 0;
  auto us = [base](std::uint64_t t) {
    return static_cast<double>(t - base) / 1e3;
  };

  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"traceEvents\":[";
  bool first = true;
  auto span = [&](const char* name, std::uint64_t b, std::uint64_t e, int tid,
                  std::uint64_t id, const char* extra) {
    os << (first ? "" : ",") << "{\"name\":\"" << name
       << "\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":" << us(b)
       << ",\"dur\":" << static_cast<double>(e - b) / 1e3
       << ",\"pid\":0,\"tid\":" << tid << ",\"args\":{\"op\":" << id << extra
       << "}}";
    first = false;
  };
  std::uint64_t dropped = 0;
  for (const SpanLog* l : logs) {
    const int tid = l->worker();
    os << (first ? "" : ",")
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"name\":\"bench-worker-" << tid << "\"}}";
    first = false;
    const auto& at = l->attempts();
    for (const SpanLog::Op& op : l->kept_ops()) {
      span("atomically", op.call, op.ret, tid, op.id,
           op.returned ? ",\"returned\":true" : ",\"returned\":false");
      if (op.count == 0) continue;
      const std::size_t last = op.first + op.count - 1;
      span("admit", op.call, at[op.first].enter, tid, op.id, "");
      for (std::size_t i = op.first; i <= last; ++i) {
        const bool committed = op.returned && i == last;
        span("body", at[i].enter, at[i].exit, tid, op.id,
             committed ? ",\"outcome\":\"commit\""
             : at[i].unwound ? ",\"outcome\":\"abort-in-body\""
                             : ",\"outcome\":\"abort-at-commit\"");
        if (i < last) span("retry-gap", at[i].exit, at[i + 1].enter, tid, op.id, "");
      }
      if (op.returned) span("commit", at[last].exit, op.ret, tid, op.id, "");
    }
    dropped += l->dropped_ops();
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_ops\":" << dropped;
  for (const auto& [k, v] : metadata)
    os << ",\"" << shrinktm::util::json_escape(k) << "\":\""
       << shrinktm::util::json_escape(v) << "\"";
  os << "}}";
  return os.str();
}

}  // namespace perfbench
