// perfbench: the repository benchmark.  One closed-loop workload per run:
//
//   perfbench --workload sb7-rw|hotspot-rmw|ledger-durable --seed N
//             --seconds S --trace 0|1 [--workers W] [--work-dir DIR]
//             [--trace-out FILE]
//
// A run sets the workload up kSetups times (setup_s is the median), warms
// up, then measures for S seconds in kSubPhases equal sub-phases while W
// worker threads each send their next operation once the previous one has
// returned.  Workers stop only at the end of a round of kRound operations.
// At the quiescent point between warm-up and measured phase, and again after
// the run, the workload's checks compare the program's state with the
// workers' own tallies.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// perfbench/README.md describes every metric.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 9;
constexpr int kSubPhases = 10;
constexpr int kRound = 16;
constexpr double kWarmupSeconds = 1.0;
constexpr std::size_t kLatencySamples = std::size_t{1} << 15;  ///< per sub-phase

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  int workers = 3;
  std::string work_dir = ".";
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sb7-rw|hotspot-rmw|ledger-durable --seed N --seconds S "
               "--trace 0|1 [--workers W] [--work-dir DIR] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workers") a.workers = std::stoi(v);
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else usage(("unknown flag " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.workers < 1 || a.workers > 64) usage("--workers must be in [1, 64]");
  return a;
}

/// A fixed single-thread loop: 2^24 dependent multiply-adds.  Its time
/// shows the host's speed phase next to a run's figures.
double ref_loop_ms() {
  std::uint64_t x = 1;
  const std::uint64_t t0 = now_ns();
  for (std::uint32_t i = 0; i < (1u << 24); ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));
  }
  return static_cast<double>(now_ns() - t0) / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double per(double num, double den, double scale = 1.0) {
  return den == 0 ? 0.0 : num * scale / den;
}

/// Pins the calling thread to the `i`-th CPU the process may run on
/// (wrapping around), so workers do not migrate during a run.  Worker w
/// takes the (w+1)-th CPU.  The main thread takes the first one before
/// the runtime exists, so the threads the runtime starts (the durable log
/// writer) inherit that CPU and never preempt a worker.
void pin_to_cpu(int i) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

template <typename W>
struct WorkerSlot {
  WorkerSlot(int idx, std::uint64_t seed, bool trace)
      : state(seed),
        spans(trace ? std::make_unique<SpanLog>(idx, seed) : nullptr) {
    for (int k = 0; k < kSubPhases; ++k)
      latency.emplace_back(kLatencySamples, seed ^ (0x1a7 + k));
  }
  typename W::Worker state;
  /// Call -> return of every measured operation, ns, one per sub-phase.
  std::vector<Reservoir> latency;
  std::unique_ptr<SpanLog> spans;
  std::atomic<std::uint64_t> done{0};  ///< measured operations returned
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

template <typename W>
int run(W& w, const Args& a) {
  // ---- set-up, kSetups times; the last data set is the one measured ----
  pin_to_cpu(0);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) w.teardown();
    const std::uint64_t t0 = now_ns();
    w.setup(SetupConfig{a.seed, a.trace, a.work_dir, i});
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  api::Runtime& rt = w.runtime();

  const int n = a.workers;
  std::vector<std::unique_ptr<WorkerSlot<W>>> slots;
  shrinktm::util::SplitMix64 seeds(a.seed);
  for (int i = 0; i < n; ++i)
    slots.push_back(std::make_unique<WorkerSlot<W>>(i, seeds.next(), a.trace));

  std::atomic<bool> warm{true};
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  std::atomic<int> sub_phase{0};
  std::barrier sync(n + 1);

  auto round = [&](SpanRunner& r, WorkerSlot<W>& s, bool measured) {
    for (int k = 0; k < kRound; ++k) {
      r.attach_log(measured && tracing.load(std::memory_order_relaxed)
                       ? s.spans.get()
                       : nullptr);
      const std::uint64_t t0 = now_ns();
      const bool ok = w.op(r, s.state);
      const std::uint64_t t1 = now_ns();
      if (!measured) continue;
      s.latency[static_cast<std::size_t>(
                    sub_phase.load(std::memory_order_relaxed))]
          .add(t1 - t0);
      ++s.attempted;
      s.failed += ok ? 0 : 1;
      s.done.store(s.attempted, std::memory_order_relaxed);
    }
  };

  std::vector<typename W::Worker*> states;
  for (auto& s : slots) states.push_back(&s->state);
  CheckResult chk;

  std::vector<double> rate(kSubPhases, 0.0);
  double ref_before = 0;
  double ref_after = 0;
  api::RuntimeStats s0;
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        pin_to_cpu(i + 1);
        api::ThreadHandle h = rt.attach();
        SpanRunner r(h);
        WorkerSlot<W>& s = *slots[i];
        while (warm.load(std::memory_order_relaxed)) round(r, s, false);
        sync.arrive_and_wait();  // warm-up over: main resets the counters
        sync.arrive_and_wait();  // measured phase starts
        while (!stop.load(std::memory_order_relaxed)) round(r, s, true);
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    warm.store(false);
    sync.arrive_and_wait();
    // Workers are quiescent here.
    w.begin_measure(states, chk);
    rt.reset_stats();
    s0 = rt.stats();
    ref_before = ref_loop_ms();
    sync.arrive_and_wait();
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t prev_ops = 0;
    auto prev_t = start;
    for (int k = 0; k < kSubPhases; ++k) {
      // Traced runs alternate: even sub-phases untraced, odd ones traced.
      tracing.store(a.trace && k % 2 == 1, std::memory_order_relaxed);
      sub_phase.store(k, std::memory_order_relaxed);
      std::this_thread::sleep_until(
          start + std::chrono::duration<double>(a.seconds * (k + 1) / kSubPhases));
      const auto t = std::chrono::steady_clock::now();
      std::uint64_t ops = 0;
      for (const auto& s : slots) ops += s->done.load(std::memory_order_relaxed);
      rate[k] = static_cast<double>(ops - prev_ops) /
                std::chrono::duration<double>(t - prev_t).count();
      prev_ops = ops;
      prev_t = t;
    }
    stop.store(true);
  }  // joins the workers
  ref_after = ref_loop_ms();
  const api::RuntimeStats s1 = rt.stats();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (auto& s : slots) {
    attempted += s->attempted;
    failed += s->failed;
  }
  w.check(states, chk);
  failed += chk.failed;

  std::vector<double> untraced;
  std::vector<double> traced;
  for (int k = 0; k < kSubPhases; ++k)
    (a.trace && k % 2 == 1 ? traced : untraced).push_back(rate[k]);
  // Latency quantile of each untraced sub-phase, in us; the reported
  // percentile is their median, so a burst of slow fsyncs confined to one
  // sub-phase does not move it.
  auto op_quantiles = [&](double q) {
    std::vector<double> per_phase;
    for (int k = 0; k < kSubPhases; ++k) {
      if (a.trace && k % 2 == 1) continue;
      std::vector<const Reservoir*> rs;
      for (const auto& s : slots) rs.push_back(&s->latency[static_cast<std::size_t>(k)]);
      per_phase.push_back(quantile(rs, q) / 1e3);
    }
    return per_phase;
  };
  const std::vector<double> p50s = op_quantiles(0.50);
  const std::vector<double> p99s = op_quantiles(0.99);

  std::vector<const SpanLog*> logs;
  for (auto& s : slots)
    if (s->spans) logs.push_back(s->spans.get());
  std::uint64_t span_violations = 0;
  for (const SpanLog* l : logs) span_violations += l->violations();
  if (span_violations != 0) {
    chk.correct = false;
    chk.errors.push_back(std::to_string(span_violations) +
                         " operations whose spans do not nest");
  }

  std::printf("workload=%s seed=%llu workers=%d seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), n,
              a.seconds, a.trace ? 1 : 0);
  std::size_t samples = 0;
  for (const auto& s : slots)
    for (const Reservoir& r : s->latency) samples += r.values().size();
  std::printf("latency: %llu operations timed, percentiles from %zu samples\n",
              static_cast<unsigned long long>(attempted), samples);
  std::printf("setup_s of each set-up:");
  for (double t : setup_s) std::printf(" %.6f", t);
  std::printf("\n");
  std::printf("host.ref_loop_ms before=%.3f after=%.3f\n", ref_before, ref_after);
  std::printf("ops/s per sub-phase%s:", a.trace ? " (odd ones traced)" : "");
  for (double r : rate) std::printf(" %.0f", r);
  std::printf("\n");
  std::printf("op_p99_us per untraced sub-phase:");
  for (double p : p99s) std::printf(" %.2f", p);
  std::printf("\n");
  std::printf("P0 anomalies (not in failed, see README): torn_ops=%llu "
              "lost_increments=%llu; in the warm-up: torn_ops=%llu "
              "lost_increments=%llu\n",
              static_cast<unsigned long long>(chk.torn_ops),
              static_cast<unsigned long long>(chk.lost_increments),
              static_cast<unsigned long long>(chk.warm_torn_ops),
              static_cast<unsigned long long>(chk.warm_lost_increments));
  std::printf("ledger legs off (in failed): %llu; in the warm-up: %llu\n",
              static_cast<unsigned long long>(chk.legs_off),
              static_cast<unsigned long long>(chk.warm_legs_off));
  for (const auto& e : chk.errors) std::printf("check failed: %s\n", e.c_str());

  std::vector<Metric> m;
  if (!a.trace) {
    m = {{"setup_s", median(setup_s), "s"},
         {"commit_tps", median(untraced), "1/s"},
         {"op_p50_us", median(p50s), "us"},
         {"op_p99_us", median(p99s), "us"},
         {"rss_mb", peak_rss_mb(), "MB"}};
  } else {
    auto q = [&](const Reservoir& (SpanLog::*which)() const, double p) {
      std::vector<const Reservoir*> rs;
      for (const SpanLog* l : logs) rs.push_back(&(l->*which)());
      return quantile(rs, p) / 1e3;
    };
    std::uint64_t traced_ops = 0;
    std::uint64_t entries = 0;
    for (const SpanLog* l : logs) {
      traced_ops += l->ops();
      entries += l->body_entries();
    }
    const double commits = static_cast<double>(s1.commits);
    auto reason = [&](shrinktm::stm::AbortReason r) {
      return per(static_cast<double>(s1.aborts_by_reason[static_cast<std::size_t>(r)]),
                 commits, 1000.0);
    };
    using shrinktm::stm::AbortReason;
    const auto& d = s1.durable;
    m = {
        {"core.admit_us_p50", q(&SpanLog::admit, 0.50), "us"},
        {"core.admit_us_p99", q(&SpanLog::admit, 0.99), "us"},
        {"core.serialized_per_kcommit",
         per(static_cast<double>(s1.serialized - s0.serialized), commits, 1000.0),
         "1/kcommit"},
        {"core.sched_waits_per_kcommit",
         per(static_cast<double>(s1.sched_waits - s0.sched_waits), commits, 1000.0),
         "1/kcommit"},
        {"core.read_accuracy", s1.read_accuracy, "ratio"},
        {"stm.body_us_p50", q(&SpanLog::body, 0.50), "us"},
        {"stm.body_us_p99", q(&SpanLog::body, 0.99), "us"},
        {"stm.reads_per_commit", per(static_cast<double>(s1.reads), commits), "1/commit"},
        {"stm.writes_per_commit", per(static_cast<double>(s1.writes), commits), "1/commit"},
        {"stm.extensions_per_commit", per(static_cast<double>(s1.extensions), commits),
         "1/commit"},
        {"stm.attempts_per_commit",
         per(static_cast<double>(entries), static_cast<double>(traced_ops)), "1/op"},
        {"stm.retry_gap_us_p50", q(&SpanLog::retry_gap, 0.50), "us"},
        {"stm.aborts_per_kcommit.read_conflict", reason(AbortReason::kReadConflict),
         "1/kcommit"},
        {"stm.aborts_per_kcommit.write_conflict", reason(AbortReason::kWriteConflict),
         "1/kcommit"},
        {"stm.aborts_per_kcommit.validation", reason(AbortReason::kValidation),
         "1/kcommit"},
        {"stm.aborts_per_kcommit.killed", reason(AbortReason::kKilled), "1/kcommit"},
        {"stm.commit_us_p50", q(&SpanLog::commit, 0.50), "us"},
        {"stm.commit_us_p99", q(&SpanLog::commit, 0.99), "us"},
        {"durable.records_per_batch",
         per(static_cast<double>(d.log_records - s0.durable.log_records),
             static_cast<double>(d.batches - s0.durable.batches)),
         "1/batch"},
        {"durable.log_bytes_per_commit",
         per(static_cast<double>(d.log_bytes - s0.durable.log_bytes), commits),
         "B/commit"},
        {"durable.recover_us_per_record", chk.recover_us_per_record, "us"},
        {"host.ref_loop_ms", (ref_before + ref_after) / 2, "ms"},
        {"trace.overhead_ratio", median(untraced) / median(traced), "ratio"},
        {"check.torn_ops", static_cast<double>(chk.torn_ops), "count"},
        {"check.lost_increments", static_cast<double>(chk.lost_increments), "count"},
        {"check.ledger_legs_off", static_cast<double>(chk.legs_off), "count"},
    };
    if (!a.trace_out.empty()) {
      const std::string json = chrome_trace_json(
          logs, {{"workload", a.workload}, {"seed", std::to_string(a.seed)}});
      if (!shrinktm::util::write_json_file(a.trace_out, json))
        std::fprintf(stderr, "perfbench: could not write %s\n", a.trace_out.c_str());
      else
        std::printf("trace: %s\n", a.trace_out.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              chk.correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < m.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m[i].name, m[i].value, m[i].unit);
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  try {
    std::filesystem::create_directories(a.work_dir);
    if (a.workload == "sb7-rw") {
      Sb7Rw w;
      return run(w, a);
    }
    if (a.workload == "hotspot-rmw") {
      HotspotRmw w;
      return run(w, a);
    }
    if (a.workload == "ledger-durable") {
      LedgerDurable w;
      return run(w, a);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  usage(("unknown workload " + a.workload).c_str());
}
