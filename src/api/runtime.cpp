// Runtime facade internals: backend/scheduler construction, tid bookkeeping
// and the type-erased retry loop.  Everything per-transaction-hot lives in
// the header (api::Tx dispatch, body thunks); this file is entered once per
// transaction (run_erased) and once per attach/detach.
#include "api/shrinktm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/trace_writer.hpp"
#include "runtime/metrics_export.hpp"
#include "stm/runner.hpp"
#include "util/json.hpp"

namespace shrinktm::api {

namespace {
/// Process-unique Runtime ids for the implicit-handle cache: a destroyed
/// Runtime's id is never reused, so stale thread-local entries can never
/// alias a new instance.
std::atomic<std::uint64_t> next_runtime_id{1};
}  // namespace

struct Runtime::Impl {
  RuntimeOptions opts;
  std::uint64_t id = next_runtime_id.fetch_add(1, std::memory_order_relaxed);
  util::WaitPolicy wait = util::WaitPolicy::kPreemptive;

  // Exactly one backend is live, selected by opts.backend.  The durable
  // backend is a TinyBackend with a commit log, so it runs on the tiny arm.
  std::unique_ptr<stm::TinyBackend> tiny;
  std::unique_ptr<stm::SwissBackend> swiss;
  durable::DurableBackend* durable = nullptr;  ///< view into tiny if kDurable
  std::unique_ptr<core::Scheduler> sched;
  runtime::AdaptiveScheduler* adaptive = nullptr;  // view into sched

  // tid space + per-tid cached runners.  The vectors are sized once at
  // construction and never resized, so run_erased indexes them without
  // locking; slots are created under tid_mutex at attach time and the
  // attaching thread (or whoever it hands the handle to) is the only user
  // of a slot while the tid is claimed.
  mutable std::mutex tid_mutex;  ///< also taken by const snapshot readers
  std::vector<bool> tid_used;
  std::vector<std::unique_ptr<stm::TxRunner<stm::TinyTx>>> tiny_runners;
  std::vector<std::unique_ptr<stm::TxRunner<stm::SwissTx>>> swiss_runners;
  // One observability recorder per tid, created with the tid's runner and
  // wired into it (histograms always on; trace ring only when opts.trace).
  // Never resized after construction -- stats()/trace_json() walk it while
  // other slots attach.
  std::vector<std::unique_ptr<obs::ThreadRecorder>> recorders;

  /// The one place the live backend is branched on for cold-path plumbing:
  /// apply `f` to the concrete backend (the members used -- stats, wait
  /// table, clock -- are shape-identical across backends, so a generic
  /// lambda covers both).
  template <typename F>
  decltype(auto) visit_backend(F&& f) const {
    if (tiny != nullptr) return f(*tiny);
    return f(*swiss);
  }

  const stm::WriteOracle& oracle() const {
    return visit_backend([](const auto& b) -> const stm::WriteOracle& {
      return b;
    });
  }
};

Runtime::Runtime(RuntimeOptions opts) : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.opts = std::move(opts);
  const RuntimeOptions& o = im.opts;

  im.wait = o.wait_policy.value_or(core::native_wait_policy(o.backend));
  stm::StmConfig scfg = o.stm;
  scfg.wait_policy = im.wait;
  scfg.max_threads = o.max_threads;
  switch (o.backend) {
    case core::BackendKind::kTiny:
      im.tiny = std::make_unique<stm::TinyBackend>(scfg);
      break;
    case core::BackendKind::kSwiss:
      im.swiss = std::make_unique<stm::SwissBackend>(scfg);
      break;
    case core::BackendKind::kDurable: {
      auto d = std::make_unique<durable::DurableBackend>(o.durable, scfg);
      im.durable = d.get();
      im.tiny = std::move(d);
      break;
    }
  }

  switch (o.scheduler) {
    case core::SchedulerKind::kShrink: {
      core::ShrinkConfig cfg = o.shrink;
      cfg.seed = o.seed;
      cfg.max_threads = o.max_threads;
      cfg.track_accuracy = cfg.track_accuracy || o.track_accuracy;
      im.sched = std::make_unique<core::ShrinkScheduler>(im.oracle(), cfg);
      break;
    }
    case core::SchedulerKind::kAdaptive: {
      runtime::AdaptiveConfig cfg = o.adaptive;
      cfg.seed = o.seed;
      cfg.max_threads = o.max_threads;
      cfg.shrink_high.track_accuracy |= o.track_accuracy;
      cfg.shrink_pathological.track_accuracy |= o.track_accuracy;
      auto adaptive =
          std::make_unique<runtime::AdaptiveScheduler>(im.oracle(), cfg);
      im.adaptive = adaptive.get();
      im.sched = std::move(adaptive);
      break;
    }
    default: {
      core::SchedulerOptions so;
      so.wait_policy = im.wait;
      so.track_accuracy = o.track_accuracy;
      so.seed = o.seed;
      so.max_threads = o.max_threads;
      im.sched = core::make_scheduler(o.scheduler, im.oracle(), so);
      break;
    }
  }

  im.tid_used.assign(o.max_threads, false);
  if (im.tiny != nullptr) im.tiny_runners.resize(o.max_threads);
  else im.swiss_runners.resize(o.max_threads);
  im.recorders.resize(o.max_threads);
}

Runtime::~Runtime() = default;

int Runtime::attach_tid() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> g(im.tid_mutex);
  for (std::size_t t = 0; t < im.tid_used.size(); ++t) {
    if (im.tid_used[t]) continue;
    im.tid_used[t] = true;
    const int tid = static_cast<int>(t);
    // Backend descriptors, recorders and runners persist across
    // detach/re-attach; the scheduler pointer is fixed for the Runtime's
    // lifetime, so a cached runner stays valid for whichever thread claims
    // the tid next.
    if (im.recorders[t] == nullptr)
      im.recorders[t] = std::make_unique<obs::ThreadRecorder>(
          tid, im.opts.trace.enabled ? im.opts.trace.ring_capacity : 0);
    if (im.tiny != nullptr) {
      if (im.tiny_runners[t] == nullptr)
        im.tiny_runners[t] = std::make_unique<stm::TxRunner<stm::TinyTx>>(
            im.tiny->tx(tid), im.sched.get(), &im.opts.retry,
            im.recorders[t].get());
    } else if (im.swiss_runners[t] == nullptr) {
      im.swiss_runners[t] = std::make_unique<stm::TxRunner<stm::SwissTx>>(
          im.swiss->tx(tid), im.sched.get(), &im.opts.retry,
          im.recorders[t].get());
    }
    return tid;
  }
  throw std::runtime_error("shrinktm::api::Runtime: out of thread slots (" +
                           std::to_string(im.tid_used.size()) + ")");
}

void Runtime::detach_tid(int tid) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> g(im.tid_mutex);
  im.tid_used[static_cast<std::size_t>(tid)] = false;
}

int Runtime::implicit_tid() {
  // Per-thread cache of implicit registrations, newest runtime first.  The
  // single-entry fast slot covers the common one-runtime case; ids are never
  // reused, so entries for dead runtimes are inert.
  thread_local std::uint64_t fast_id = 0;
  thread_local int fast_tid = -1;
  thread_local std::vector<std::pair<std::uint64_t, int>> rest;
  const std::uint64_t id = impl_->id;
  if (fast_id == id) return fast_tid;
  for (auto& [rid, rtid] : rest) {
    if (rid != id) continue;
    std::swap(rid, fast_id);
    std::swap(rtid, fast_tid);
    return fast_tid;
  }
  const int tid = attach_tid();
  if (fast_id != 0) rest.emplace_back(fast_id, fast_tid);
  fast_id = id;
  fast_tid = tid;
  return tid;
}

namespace {
/// One transaction (or flat-nested join) on a concrete per-tid runner --
/// the shared shape of run_erased's per-backend arms.
template <typename Runner>
void run_on(Runner& runner, void (*fn)(void* ctx, Tx& tx), void* ctx) {
  if (runner.tx().in_tx()) {
    // Flat nesting: this tid's transaction is already in flight (the
    // caller is inside an atomically() body on the same handle), so the
    // nested body joins the live attempt instead of starting a second
    // transaction.  Conflicts unwind to the top-level retry loop; actions
    // registered here fire at top-level commit.
    Tx view(runner.tx(), &runner.actions());
    fn(ctx, view);
    return;
  }
  runner.run([&](auto& tx) {
    Tx view(tx, &runner.actions());
    fn(ctx, view);
  });
}
}  // namespace

void Runtime::run_erased(int tid, BodyFn fn, void* ctx) {
  Impl& im = *impl_;
  const auto t = static_cast<std::size_t>(tid);
  if (im.tiny != nullptr) {
    run_on(*im.tiny_runners[t], fn, ctx);
  } else {
    run_on(*im.swiss_runners[t], fn, ctx);
  }
}

core::BackendKind Runtime::backend_kind() const { return impl_->opts.backend; }
core::SchedulerKind Runtime::scheduler_kind() const {
  return impl_->opts.scheduler;
}
const char* Runtime::backend_name() const {
  return core::backend_kind_name(impl_->opts.backend);
}
const char* Runtime::scheduler_name() const {
  return core::scheduler_kind_name(impl_->opts.scheduler);
}
util::WaitPolicy Runtime::wait_policy() const { return impl_->wait; }
std::size_t Runtime::max_threads() const { return impl_->opts.max_threads; }

core::Scheduler* Runtime::scheduler() { return impl_->sched.get(); }
runtime::AdaptiveScheduler* Runtime::adaptive() { return impl_->adaptive; }

runtime::Regime Runtime::regime() const {
  // Non-adaptive schedulers never report pathological pressure: admission
  // control layered on this hook stays open under them by construction.
  return impl_->adaptive != nullptr ? impl_->adaptive->regime()
                                    : runtime::Regime::kLow;
}

const char* Runtime::regime_name() const {
  return runtime::regime_name(regime());
}

stm::ThreadStats Runtime::aggregate_stats() const {
  return impl_->visit_backend([](const auto& b) { return b.aggregate_stats(); });
}

void Runtime::reset_stats() {
  // Every count stats() reports restarts here; state -- recovery facts, the
  // regime, the log's sequence numbers -- does not.
  Impl& im = *impl_;
  im.visit_backend([](auto& b) { b.reset_stats(); });
  if (im.durable != nullptr) im.durable->reset_counters();
  if (im.sched != nullptr) im.sched->reset_stats();
  std::lock_guard<std::mutex> g(im.tid_mutex);
  for (const auto& r : im.recorders)
    if (r != nullptr) r->reset_latency();
}

std::uint64_t Runtime::snapshot() {
  if (impl_->durable == nullptr)
    throw std::logic_error(
        "Runtime::snapshot(): backend '" + std::string(backend_name()) +
        "' is volatile; snapshots need BackendKind::kDurable");
  return impl_->durable->snapshot();
}

const durable::RecoveryInfo* Runtime::recovery_info() const {
  return impl_->durable != nullptr ? &impl_->durable->recovery() : nullptr;
}

durable::Region* Runtime::durable_region() {
  return impl_->durable != nullptr ? &impl_->durable->region() : nullptr;
}

std::string Runtime::durable_dir() const {
  return impl_->durable != nullptr ? impl_->durable->dir() : std::string{};
}

std::uint64_t Runtime::commit_ts() const {
  if (impl_->durable == nullptr)
    throw std::logic_error(
        "Runtime::commit_ts(): backend '" + std::string(backend_name()) +
        "' has no changelog; follower tickets need BackendKind::kDurable");
  // Recovered records predate this Changelog instance's counter; fold the
  // recovered high-water mark in so a ticket taken right after a restart
  // still covers the pre-crash history.
  return std::max(impl_->durable->changelog().max_appended_ts(),
                  impl_->durable->recovery().last_ts);
}

RuntimeStats Runtime::stats() const {
  const Impl& im = *impl_;
  RuntimeStats s;
  s.backend = backend_name();
  s.scheduler = scheduler_name();

  const auto per_tid =
      im.visit_backend([](const auto& b) { return b.per_thread_stats(); });
  for (const auto& [tid, ts] : per_tid) {
    s.attempts += ts.attempts;
    s.commits += ts.commits;
    s.aborts += ts.aborts;
    s.cancels += ts.cancels;
    s.retry_waits += ts.retry_waits;
    s.retry_sleeps += ts.retry_sleeps;
    s.retry_timeouts += ts.retry_timeouts;
    s.retry_wait_ns += ts.retry_wait_ns;
    s.reads += ts.reads;
    s.writes += ts.writes;
    s.extensions += ts.extensions;
    s.kills_issued += ts.kills_issued;
    for (std::size_t i = 0; i < s.aborts_by_reason.size(); ++i)
      s.aborts_by_reason[i] += ts.aborts_by_reason[i];
    if (ts.attempts != 0)
      s.per_thread.push_back({tid, ts.attempts, ts.commits, ts.aborts,
                              ts.cancels, ts.retry_waits, ts.retry_sleeps,
                              ts.retry_timeouts, ts.retry_wait_ns});
  }

  {
    // Snapshot recorder pointers under the attach lock (slots are written
    // there); the recorders themselves live until the Runtime dies, and
    // their histograms are racy-but-benign like the counters above.
    std::vector<const obs::ThreadRecorder*> recs;
    {
      std::lock_guard<std::mutex> g(im.tid_mutex);
      for (const auto& r : im.recorders)
        if (r != nullptr) recs.push_back(r.get());
    }
    for (const auto* r : recs) s.latency += r->latency();
  }

  {
    const stm::WaitTable& wt = im.visit_backend(
        [](const auto& b) -> const stm::WaitTable& { return b.wait_table(); });
    s.retry_notifies = wt.notifies();
    s.retry_wakeups = wt.wakeups();
  }

  if (im.durable != nullptr) {
    s.durable.present = true;
    const auto& log = im.durable->changelog();
    const durable::ChangelogCounters c = log.counters();
    s.durable.log_records = c.records;
    s.durable.log_bytes = c.bytes;
    s.durable.batches = c.batches;
    s.durable.fsyncs = c.fsyncs;
    s.durable.max_batch_records = c.max_batch_records;
    const auto [hist, acks] = im.durable->ack_histogram();
    s.durable.ack = hist;
    s.durable.acks = acks;
    s.durable.log_failed = log.failed();
    s.durable.auto_snapshots = im.durable->auto_snapshots();
    const auto& rec = im.durable->recovery();
    s.durable.recovered_snapshot = rec.snapshot_loaded;
    s.durable.recovered_records = rec.replayed_records;
    s.durable.recovered_torn_tail = rec.torn_tail;
  }

  if (im.sched != nullptr) {
    const auto& ss = im.sched->sched_stats();
    s.serialized = ss.serialized();
    s.sched_waits = ss.waits.load();
    if (const auto* shrink =
            dynamic_cast<const core::ShrinkScheduler*>(im.sched.get())) {
      const auto ra = shrink->aggregate_read_accuracy();
      const auto wa = shrink->aggregate_write_accuracy();
      const auto rra = shrink->aggregate_retry_read_accuracy();
      if (ra.count() > 0) s.read_accuracy = ra.mean();
      if (wa.count() > 0) s.write_accuracy = wa.mean();
      if (rra.count() > 0) s.retry_read_accuracy = rra.mean();
    }
  }

  if (im.adaptive != nullptr) {
    s.adaptive.present = true;
    s.adaptive.regime = runtime::regime_name(im.adaptive->regime());
    s.adaptive.windows_closed = im.adaptive->windows_closed();
    const auto switches = im.adaptive->switches();
    s.adaptive.switches = switches.size();
    // Residency reconstruction: the scheduler starts in LOW; a switch
    // recorded at window w means windows (prev..w] still ran under `from`.
    auto regime_slot = [](runtime::Regime r) {
      return static_cast<std::size_t>(r) % 4;
    };
    runtime::Regime cur = runtime::Regime::kLow;
    std::uint64_t prev = 0;
    for (const auto& sw : switches) {
      const std::uint64_t upto = sw.window_index + 1;
      if (upto > prev) s.adaptive.residency_windows[regime_slot(sw.from)] +=
          upto - prev;
      prev = upto;
      cur = sw.to;
    }
    if (s.adaptive.windows_closed > prev)
      s.adaptive.residency_windows[regime_slot(cur)] +=
          s.adaptive.windows_closed - prev;
  }
  return s;
}

std::string Runtime::trace_json() const {
  const Impl& im = *impl_;
  obs::TraceDump dump;
  {
    std::lock_guard<std::mutex> g(im.tid_mutex);
    for (const auto& r : im.recorders)
      if (r != nullptr) dump.threads.push_back(r.get());
  }
  dump.abort_reason_name = +[](int r) {
    return stm::abort_reason_name(static_cast<stm::AbortReason>(r));
  };
  if (im.adaptive != nullptr) {
    // PolicySwitch timestamps are seconds since the scheduler was born;
    // rebase them onto the recorders' steady clock so the marks line up
    // with the transaction events.
    const auto born_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            im.adaptive->born().time_since_epoch())
            .count());
    for (const auto& sw : im.adaptive->switches()) {
      dump.policy_marks.push_back(
          {born_ns + static_cast<std::uint64_t>(sw.at_seconds * 1e9),
           std::string(runtime::regime_name(sw.from)) + "->" +
               runtime::regime_name(sw.to) + " (" + sw.policy + ")"});
    }
  }
  dump.metadata.emplace_back("backend", backend_name());
  dump.metadata.emplace_back("scheduler", scheduler_name());
  dump.metadata.emplace_back("trace_enabled",
                             im.opts.trace.enabled ? "true" : "false");
  return obs::chrome_trace_json(dump);
}

bool Runtime::dump_trace(const std::string& path) const {
  return util::write_json_file(path, trace_json());
}

RuntimeStats& RuntimeStats::operator+=(const RuntimeStats& o) {
  if (backend.empty()) backend = o.backend;
  else if (backend != o.backend) backend = "mixed";
  if (scheduler.empty()) scheduler = o.scheduler;
  else if (scheduler != o.scheduler) scheduler = "mixed";

  attempts += o.attempts;
  commits += o.commits;
  aborts += o.aborts;
  cancels += o.cancels;
  retry_waits += o.retry_waits;
  reads += o.reads;
  writes += o.writes;
  extensions += o.extensions;
  kills_issued += o.kills_issued;
  for (std::size_t i = 0; i < aborts_by_reason.size(); ++i)
    aborts_by_reason[i] += o.aborts_by_reason[i];
  serialized += o.serialized;
  sched_waits += o.sched_waits;
  retry_sleeps += o.retry_sleeps;
  retry_timeouts += o.retry_timeouts;
  retry_wait_ns += o.retry_wait_ns;
  retry_notifies += o.retry_notifies;
  retry_wakeups += o.retry_wakeups;
  latency += o.latency;

  // Accuracies: per-stream running means over the snapshots that tracked
  // each stream (a cell may track reads but have no write samples, so the
  // three streams count independently).
  auto fold = [](double& mine, double theirs, std::uint64_t& n) {
    if (theirs < 0) return;
    // A snapshot fresh from Runtime::stats() carries a tracked value but a
    // zero sample counter; count it as one sample so `a.stats() += b` means
    // a real running mean, not a silent overwrite.
    if (mine >= 0 && n == 0) n = 1;
    mine = n == 0 ? theirs
                  : (mine * static_cast<double>(n) + theirs) /
                        static_cast<double>(n + 1);
    ++n;
  };
  fold(read_accuracy, o.read_accuracy, read_accuracy_samples_);
  fold(write_accuracy, o.write_accuracy, write_accuracy_samples_);
  fold(retry_read_accuracy, o.retry_read_accuracy, retry_accuracy_samples_);

  // Per-thread rows merge BY TID: a tid is a thread slot, and the bench
  // harness runs same-shaped cells, so slot-k rows add up and the per-tid
  // wait profile survives into aggregated artifacts.
  for (const auto& ot : o.per_thread) {
    auto it = std::find_if(per_thread.begin(), per_thread.end(),
                           [&](const PerThread& t) { return t.tid == ot.tid; });
    if (it == per_thread.end()) {
      per_thread.push_back(ot);
      continue;
    }
    it->attempts += ot.attempts;
    it->commits += ot.commits;
    it->aborts += ot.aborts;
    it->cancels += ot.cancels;
    it->retry_waits += ot.retry_waits;
    it->retry_sleeps += ot.retry_sleeps;
    it->retry_timeouts += ot.retry_timeouts;
    it->retry_wait_ns += ot.retry_wait_ns;
  }
  std::sort(per_thread.begin(), per_thread.end(),
            [](const PerThread& a, const PerThread& b) { return a.tid < b.tid; });
  adaptive.present = adaptive.present || o.adaptive.present;
  if (!o.adaptive.regime.empty()) adaptive.regime = o.adaptive.regime;
  adaptive.windows_closed += o.adaptive.windows_closed;
  adaptive.switches += o.adaptive.switches;
  for (std::size_t i = 0; i < adaptive.residency_windows.size(); ++i)
    adaptive.residency_windows[i] += o.adaptive.residency_windows[i];

  durable.present = durable.present || o.durable.present;
  durable.log_records += o.durable.log_records;
  durable.log_bytes += o.durable.log_bytes;
  durable.batches += o.durable.batches;
  durable.fsyncs += o.durable.fsyncs;
  durable.max_batch_records =
      std::max(durable.max_batch_records, o.durable.max_batch_records);
  durable.acks += o.durable.acks;
  durable.ack.merge(o.durable.ack);
  durable.log_failed = durable.log_failed || o.durable.log_failed;
  durable.auto_snapshots += o.durable.auto_snapshots;
  durable.recovered_snapshot =
      durable.recovered_snapshot || o.durable.recovered_snapshot;
  durable.recovered_records += o.durable.recovered_records;
  durable.recovered_torn_tail =
      durable.recovered_torn_tail || o.durable.recovered_torn_tail;
  return *this;
}

std::string RuntimeStats::to_json() const {
  static constexpr const char* kRegimeNames[4] = {"low", "moderate", "high",
                                                  "pathological"};
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"backend\":\"" << runtime::json_escape(backend)
     << "\",\"scheduler\":\"" << runtime::json_escape(scheduler)
     << "\",\"attempts\":" << attempts << ",\"commits\":" << commits
     << ",\"aborts\":" << aborts << ",\"cancels\":" << cancels
     << ",\"retry_waits\":" << retry_waits
     << ",\"conserved\":" << (conserved() ? "true" : "false")
     << ",\"abort_ratio\":" << abort_ratio() << ",\"reads\":" << reads
     << ",\"writes\":" << writes << ",\"extensions\":" << extensions
     << ",\"kills_issued\":" << kills_issued
     << ",\"retry_sleeps\":" << retry_sleeps
     << ",\"retry_timeouts\":" << retry_timeouts
     << ",\"retry_wait_ns\":" << retry_wait_ns
     << ",\"retry_notifies\":" << retry_notifies
     << ",\"retry_wakeups\":" << retry_wakeups;
  os << ",\"latency\":{";
  const std::pair<const char*, const util::HdrHistogram*> classes[] = {
      {"commit", &latency.commit},
      {"abort_gap", &latency.abort_gap},
      {"park", &latency.park},
      {"serialized", &latency.serialized},
  };
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& h = *classes[i].second;
    os << (i ? "," : "") << "\"" << classes[i].first
       << "\":{\"count\":" << h.total() << ",\"mean_ns\":" << h.mean()
       << ",\"p50_ns\":" << h.value_at_quantile(0.50)
       << ",\"p99_ns\":" << h.value_at_quantile(0.99)
       << ",\"p999_ns\":" << h.value_at_quantile(0.999)
       << ",\"max_ns\":" << h.max_value() << "}";
  }
  os << "}";
  os << ",\"aborts_by_reason\":{";
  for (std::size_t i = 0; i < aborts_by_reason.size(); ++i) {
    os << (i ? "," : "") << "\""
       << stm::abort_reason_name(static_cast<stm::AbortReason>(i))
       << "\":" << aborts_by_reason[i];
  }
  os << "},\"serialized\":" << serialized << ",\"sched_waits\":" << sched_waits;
  if (read_accuracy >= 0) os << ",\"read_accuracy\":" << read_accuracy;
  if (write_accuracy >= 0) os << ",\"write_accuracy\":" << write_accuracy;
  if (retry_read_accuracy >= 0)
    os << ",\"retry_read_accuracy\":" << retry_read_accuracy;
  os << ",\"per_thread\":[";
  for (std::size_t i = 0; i < per_thread.size(); ++i) {
    const auto& t = per_thread[i];
    os << (i ? "," : "") << "{\"tid\":" << t.tid
       << ",\"attempts\":" << t.attempts << ",\"commits\":" << t.commits
       << ",\"aborts\":" << t.aborts << ",\"cancels\":" << t.cancels
       << ",\"retry_waits\":" << t.retry_waits
       << ",\"retry_sleeps\":" << t.retry_sleeps
       << ",\"retry_timeouts\":" << t.retry_timeouts
       << ",\"retry_wait_ns\":" << t.retry_wait_ns << "}";
  }
  os << "]";
  if (adaptive.present) {
    os << ",\"adaptive\":{\"regime\":\"" << runtime::json_escape(adaptive.regime)
       << "\",\"windows_closed\":" << adaptive.windows_closed
       << ",\"switches\":" << adaptive.switches << ",\"residency_windows\":{";
    for (std::size_t i = 0; i < adaptive.residency_windows.size(); ++i) {
      os << (i ? "," : "") << "\"" << kRegimeNames[i]
         << "\":" << adaptive.residency_windows[i];
    }
    os << "}}";
  }
  if (durable.present) {
    os << ",\"durable\":{\"log_records\":" << durable.log_records
       << ",\"log_bytes\":" << durable.log_bytes
       << ",\"batches\":" << durable.batches << ",\"fsyncs\":" << durable.fsyncs
       << ",\"max_batch_records\":" << durable.max_batch_records
       << ",\"acks\":" << durable.acks
       << ",\"log_failed\":" << (durable.log_failed ? "true" : "false")
       << ",\"auto_snapshots\":" << durable.auto_snapshots
       << ",\"recovered_snapshot\":"
       << (durable.recovered_snapshot ? "true" : "false")
       << ",\"recovered_records\":" << durable.recovered_records
       << ",\"recovered_torn_tail\":"
       << (durable.recovered_torn_tail ? "true" : "false")
       << ",\"ack\":{\"count\":" << durable.ack.total()
       << ",\"mean_ns\":" << durable.ack.mean()
       << ",\"p50_ns\":" << durable.ack.value_at_quantile(0.50)
       << ",\"p99_ns\":" << durable.ack.value_at_quantile(0.99)
       << ",\"p999_ns\":" << durable.ack.value_at_quantile(0.999)
       << ",\"max_ns\":" << durable.ack.max_value() << "}}";
  }
  os << "}";
  return os.str();
}

}  // namespace shrinktm::api
