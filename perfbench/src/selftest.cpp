// Self-test of the benchmark's checks: each check is fed a hand-made wrong
// output and must count it, and a right output and must count nothing.
//
//   perfbench_selftest [work-dir]
//
// Exits 0 when every case holds.  `python3 perfbench/run.py --selftest`
// runs this and then each workload with a single worker.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/shrinktm.hpp"
#include "checks.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace api = shrinktm::api;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  failures += ok ? 0 : 1;
}

void torn_records() {
  expect(!torn(Rec{{7, 7, 7, 7}}), "an untorn record is not counted");
  expect(torn(Rec{{7, 7, 8, 7}}), "a record with one differing word is torn");
  expect(torn(Rec{{8, 7, 7, 7}}), "a record with a differing first word is torn");
}

void tallies() {
  const std::vector<std::uint64_t> initial{10, 20, 30};
  const std::vector<std::uint32_t> t0{1, 0, 2}, t1{0, 3, 0};
  const std::vector<const std::vector<std::uint32_t>*> tally{&t0, &t1};
  std::vector<Rec> recs{{{11, 11, 11, 11}}, {{23, 23, 23, 23}}, {{32, 32, 32, 32}}};
  auto at = [&](std::size_t i) { return recs[i]; };
  expect(lost_increments(3, at, initial, tally) == 0,
         "records equal to initial + tally count no lost increment");
  recs[1] = {{22, 22, 22, 22}};
  expect(lost_increments(3, at, initial, tally) == 1,
         "a record one below its tally counts one lost increment");
  recs[1] = {{23, 23, 22, 23}};
  expect(lost_increments(3, at, initial, tally) == 1,
         "a record with one word one below its tally counts one");
  recs[1] = {{25, 25, 25, 25}};
  expect(lost_increments(3, at, initial, tally) == 2,
         "a record two above its tally counts two");

  const std::vector<std::int64_t> init{100, 200, 300};
  const std::vector<std::int64_t> d0{-1, 1, 0}, d1{0, -2, 2};
  const std::vector<const std::vector<std::int64_t>*> deltas{&d0, &d1};
  expect(ledger_legs_off({99, 199, 302}, init, deltas) == 0,
         "balances equal to initial + deltas count no leg");
  expect(ledger_legs_off({99, 200, 302}, init, deltas) == 1,
         "a balance off by one counts one leg");
}

/// Accounts changed between close and reopen, through a real durable
/// runtime: a transfer committed after the "before" read must show as two
/// mismatches, and a clean close/reopen as none.
void restart(const std::string& work_dir) {
  const std::string dir = work_dir + "/selftest-ledger";
  std::filesystem::remove_all(dir);
  auto open = [&] {
    return std::make_unique<api::Runtime>(api::RuntimeOptions{}.with_log_dir(dir));
  };
  auto read_all = [](api::Runtime& rt) {
    std::vector<std::int64_t> v;
    for (std::size_t a = 0; a < 4; ++a)
      v.push_back(rt.durable_region()->slot<std::int64_t>(a).unsafe_read());
    return v;
  };
  auto rt = open();
  atomically(*rt, [&](api::Tx& tx) {
    for (std::size_t a = 0; a < 4; ++a)
      rt->durable_region()->slot<std::int64_t>(a).write(tx, 100 + std::int64_t(a));
  });
  const auto before = read_all(*rt);
  rt.reset();
  rt = open();
  expect(restart_mismatches(before, read_all(*rt)) == 0,
         "a clean close and reopen reads every account back");
  atomically(*rt, [&](api::Tx& tx) {
    auto s0 = rt->durable_region()->slot<std::int64_t>(0);
    auto s3 = rt->durable_region()->slot<std::int64_t>(3);
    s0.write(tx, s0.read(tx) - 5);
    s3.write(tx, s3.read(tx) + 5);
  });
  rt.reset();
  rt = open();
  expect(restart_mismatches(before, read_all(*rt)) == 2,
         "two accounts changed between close and reopen count two mismatches");
  rt.reset();
  std::filesystem::remove_all(dir);
}

/// The ledger-durable workload's own accounting: a transfer leg its workers
/// did not tally, committed in the measured phase, is a failed operation;
/// one committed in the warm-up makes the run incorrect.
void ledger_accounting(const std::string& work_dir) {
  for (const bool in_warmup : {false, true}) {
    LedgerDurable w;
    w.setup(SetupConfig{3, false, work_dir, 0});
    LedgerDurable::Worker worker(5);
    const std::vector<LedgerDurable::Worker*> ws{&worker};
    CheckResult out;
    {
      api::ThreadHandle h = w.runtime().attach();
      SpanRunner r(h);
      auto untallied = [&] {
        atomically(h, [&](api::Tx& tx) {
          auto a = w.runtime().durable_region()->slot<std::int64_t>(7);
          a.write(tx, a.read(tx) + 1);
        });
      };
      for (int i = 0; i < 50; ++i) w.op(r, worker);
      if (in_warmup) untallied();
      w.begin_measure(ws, out);
      for (int i = 0; i < 50; ++i) w.op(r, worker);
      if (!in_warmup) untallied();
    }
    w.check(ws, out);
    if (in_warmup)
      expect(out.warm_legs_off == 1 && out.failed == 0 && !out.correct,
             "an untallied leg in the warm-up makes the run incorrect");
    else
      expect(out.legs_off == 1 && out.failed == 1 && out.correct,
             "an untallied leg in the measured phase counts one failed operation");
  }
}

void spans() {
  using A = SpanLog::Attempt;
  expect(SpanLog::nested(10, 50, {{12, 20, true}, {25, 40, false}}, false),
         "attempts inside their atomically span nest");
  expect(!SpanLog::nested(10, 50, {{12, 20, true}, {25, 55, false}}, false),
         "an attempt ending after its atomically span is caught");
  expect(!SpanLog::nested(10, 50, {{8, 20, false}}, false),
         "an attempt starting before its atomically span is caught");
  expect(!SpanLog::nested(10, 50, {{12, 30, true}, {25, 40, false}}, false),
         "overlapping attempts are caught");
  expect(!SpanLog::nested(10, 50, {A{12, 0, false}}, true),
         "an attempt left open is caught");

  // A real operation whose first attempt restarts: two body entries, the
  // first one unwound, and every span inside the operation's span.
  api::Runtime rt(api::RuntimeOptions{}.with_backend(shrinktm::core::BackendKind::kTiny));
  api::ThreadHandle h = rt.attach();
  SpanLog log(0, 1);
  SpanRunner r(h);
  r.attach_log(&log);
  api::TVar<long> cell;
  int tries = 0;
  r.run([&](api::Tx& tx) {
    cell.write(tx, cell.read(tx) + 1);
    if (++tries == 1) tx.restart();
  });
  expect(log.ops() == 1 && log.body_entries() == 2 && log.violations() == 0,
         "a restarted operation records two nested attempts");
  expect(log.attempts().size() == 2 && log.attempts()[0].unwound &&
             !log.attempts()[1].unwound,
         "the aborted attempt is marked unwound, the committed one not");
  const std::string json = chrome_trace_json({&log}, {{"workload", "selftest"}});
  expect(json.find("\"traceEvents\":[") != std::string::npos &&
             json.find("\"name\":\"retry-gap\"") != std::string::npos,
         "the trace holds the operation's retry gap");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : ".";
  std::filesystem::create_directories(work_dir);
  torn_records();
  tallies();
  restart(work_dir);
  ledger_accounting(work_dir);
  spans();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "selftest passed" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
