// Durable backend: group-commit changelog, snapshot + replay recovery,
// fail-stop durability errors, and the deterministic fault-injection layer.
// Everything here runs in-process (single process, multiple Runtime
// instances over one directory); the fork-based crash matrix that kills the
// process at injected points lives in test_recovery.cpp.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/shrinktm.hpp"
#include "durable/backend.hpp"
#include "durable/changelog.hpp"
#include "durable/log_format.hpp"
#include "durable/log_reader.hpp"
#include "stm/runner.hpp"

namespace shrinktm {
namespace {

namespace fs = std::filesystem;

/// Scratch directory removed at scope exit; every cross-restart test gets a
/// fresh one so runs never see a predecessor's files.
struct TempDir {
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "shrinktm-test-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

api::RuntimeOptions durable_opts(const std::string& dir = "") {
  api::RuntimeOptions o;
  o.with_backend(core::BackendKind::kDurable);
  if (!dir.empty()) o.with_log_dir(dir);
  return o;
}

std::uintmax_t log_size(const std::string& dir) {
  return fs::file_size(dir + "/changelog.shtm");
}

// ------------------------------------------------- backend-kind parsing

TEST(ParseBackendKind, AcceptsDurableAndIsCaseInsensitive) {
  EXPECT_EQ(core::parse_backend_kind("durable"), core::BackendKind::kDurable);
  EXPECT_EQ(core::parse_backend_kind("DURABLE"), core::BackendKind::kDurable);
  EXPECT_EQ(core::parse_backend_kind("Durable"), core::BackendKind::kDurable);
  EXPECT_EQ(core::parse_backend_kind("tiny"), core::BackendKind::kTiny);
  EXPECT_EQ(core::parse_backend_kind("TINY"), core::BackendKind::kTiny);
  EXPECT_EQ(core::parse_backend_kind("Swiss"), core::BackendKind::kSwiss);
  EXPECT_STREQ(core::backend_kind_name(core::BackendKind::kDurable),
               "durable");
}

TEST(ParseBackendKind, ErrorEnumeratesEveryValidKind) {
  try {
    core::parse_backend_kind("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tiny"), std::string::npos) << msg;
    EXPECT_NE(msg.find("swiss"), std::string::npos) << msg;
    EXPECT_NE(msg.find("durable"), std::string::npos) << msg;
  }
}

// --------------------------------------------------- basic commit + stats

TEST(Durable, EphemeralCommitReadbackAndGroupCommitStats) {
  api::Runtime rt(durable_opts());
  ASSERT_NE(rt.durable_region(), nullptr);
  EXPECT_FALSE(rt.durable_dir().empty());
  EXPECT_STREQ(rt.backend_name(), "durable");

  auto a = rt.durable_region()->slot<std::int64_t>(0);
  auto b = rt.durable_region()->slot<std::int64_t>(1);

  api::ThreadHandle th = rt.attach();
  bool committed = false;
  atomically(th, [&](api::Tx& tx) {
    tx.write(a, std::int64_t{7});
    tx.write(b, std::int64_t{35});
    tx.on_commit([&] { committed = true; });
  });
  // on_commit fires after commit() returns, i.e. after the covering fsync:
  // this flag observed true IS the durability acknowledgment.
  EXPECT_TRUE(committed);

  const auto sum = atomically(th, [&](api::Tx& tx) {
    return tx.read(a) + tx.read(b);
  });
  EXPECT_EQ(sum, 42);

  const api::RuntimeStats s = rt.stats();
  EXPECT_TRUE(s.conserved());
  ASSERT_TRUE(s.durable.present);
  EXPECT_FALSE(s.durable.log_failed);
  EXPECT_GE(s.durable.log_records, 1u);
  EXPECT_GE(s.durable.batches, 1u);
  EXPECT_GE(s.durable.fsyncs, 1u);
  EXPECT_GE(s.durable.acks, 1u);
  EXPECT_GE(s.durable.ack.total(), 1u);
  EXPECT_GE(s.durable.max_batch_records, 1u);
}

TEST(Durable, StatsJsonCarriesDurableSection) {
  api::Runtime rt(durable_opts());
  auto a = rt.durable_region()->slot<std::int64_t>(0);
  api::ThreadHandle th = rt.attach();
  atomically(th, [&](api::Tx& tx) { tx.write(a, std::int64_t{1}); });

  const std::string json = rt.stats().to_json();
  EXPECT_NE(json.find("\"durable\""), std::string::npos);
  EXPECT_NE(json.find("\"ack\""), std::string::npos);
  EXPECT_NE(json.find("\"fsyncs\""), std::string::npos);
  EXPECT_NE(json.find("\"log_failed\":false"), std::string::npos);

  // Volatile backends must not emit the section.
  api::Runtime volatile_rt;
  EXPECT_EQ(volatile_rt.stats().to_json().find("\"durable\""),
            std::string::npos);
}

TEST(Durable, WritesOutsideRegionAreVolatileAndUnlogged) {
  api::Runtime rt(durable_opts());
  api::TVar<std::int64_t> scratch{0};
  api::ThreadHandle th = rt.attach();
  atomically(th, [&](api::Tx& tx) { tx.write(scratch, 99); });
  EXPECT_EQ(scratch.unsafe_read(), 99);

  // The commit ran with full transactional semantics but touched no region
  // word: nothing was logged and no durability ack was waited out.
  const api::RuntimeStats s = rt.stats();
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.durable.log_records, 0u);
  EXPECT_EQ(s.durable.acks, 0u);
}

TEST(Durable, SnapshotOnVolatileBackendThrowsLogicError) {
  api::Runtime rt;  // default: swiss
  EXPECT_THROW(rt.snapshot(), std::logic_error);
  EXPECT_EQ(rt.recovery_info(), nullptr);
  EXPECT_EQ(rt.durable_region(), nullptr);
  EXPECT_EQ(rt.durable_dir(), "");
}

TEST(Durable, EphemeralDirIsRemovedWithTheRuntime) {
  std::string dir;
  {
    api::Runtime rt(durable_opts());
    dir = rt.durable_dir();
    EXPECT_TRUE(fs::exists(dir));
    auto a = rt.durable_region()->slot<std::int64_t>(0);
    api::ThreadHandle th = rt.attach();
    atomically(th, [&](api::Tx& tx) { tx.write(a, std::int64_t{1}); });
  }
  EXPECT_FALSE(fs::exists(dir));
}

// ----------------------------------------------------------- recovery

TEST(Durable, ColdStartReplaysTheLog) {
  TempDir dir;
  constexpr std::size_t kSlots = 10;
  {
    api::Runtime rt(durable_opts(dir.path));
    api::ThreadHandle th = rt.attach();
    for (std::size_t i = 0; i < kSlots; ++i) {
      auto s = rt.durable_region()->slot<std::int64_t>(i);
      atomically(th, [&](api::Tx& tx) {
        tx.write(s, static_cast<std::int64_t>(i * i));
      });
    }
  }
  {
    api::Runtime rt(durable_opts(dir.path));
    const api::RecoveryInfo* ri = rt.recovery_info();
    ASSERT_NE(ri, nullptr);
    EXPECT_FALSE(ri->snapshot_loaded);
    EXPECT_FALSE(ri->torn_tail);
    EXPECT_EQ(ri->log_records, kSlots);
    EXPECT_EQ(ri->replayed_records, kSlots);
    EXPECT_GT(ri->last_ts, 0u);
    for (std::size_t i = 0; i < kSlots; ++i) {
      EXPECT_EQ(rt.durable_region()->slot<std::int64_t>(i).unsafe_read(),
                static_cast<std::int64_t>(i * i))
          << "slot " << i;
    }
    // Recovered stats are visible through the runtime snapshot too.
    const api::RuntimeStats s = rt.stats();
    EXPECT_TRUE(s.durable.present);
    EXPECT_EQ(s.durable.recovered_records, kSlots);
    EXPECT_FALSE(s.durable.recovered_torn_tail);
  }
}

TEST(Durable, SnapshotTruncatesLogAndColdStartLoadsIt) {
  TempDir dir;
  {
    api::Runtime rt(durable_opts(dir.path));
    api::ThreadHandle th = rt.attach();
    for (std::size_t i = 0; i < 5; ++i) {
      auto s = rt.durable_region()->slot<std::int64_t>(i);
      atomically(th, [&](api::Tx& tx) {
        tx.write(s, static_cast<std::int64_t>(i + 1));
      });
    }
    const std::uint64_t ts = rt.snapshot();
    EXPECT_GT(ts, 0u);
    // The pre-snapshot records are redundant now: the log is just a header.
    EXPECT_EQ(log_size(dir.path), sizeof(durable::LogFileHeader));
    EXPECT_TRUE(fs::exists(dir.path + "/snapshot.shtm"));
    for (std::size_t i = 5; i < 10; ++i) {
      auto s = rt.durable_region()->slot<std::int64_t>(i);
      atomically(th, [&](api::Tx& tx) {
        tx.write(s, static_cast<std::int64_t>(i + 1));
      });
    }
  }
  {
    api::Runtime rt(durable_opts(dir.path));
    const api::RecoveryInfo* ri = rt.recovery_info();
    ASSERT_NE(ri, nullptr);
    EXPECT_TRUE(ri->snapshot_loaded);
    EXPECT_FALSE(ri->snapshot_corrupt);
    EXPECT_GT(ri->snapshot_ts, 0u);
    // Only the post-snapshot suffix needed replaying.
    EXPECT_EQ(ri->replayed_records, 5u);
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(rt.durable_region()->slot<std::int64_t>(i).unsafe_read(),
                static_cast<std::int64_t>(i + 1))
          << "slot " << i;
    }
  }
}

TEST(Durable, TornTailIsDetectedTruncatedAndSurvivable) {
  TempDir dir;
  {
    api::Runtime rt(durable_opts(dir.path));
    api::ThreadHandle th = rt.attach();
    auto a = rt.durable_region()->slot<std::int64_t>(0);
    auto b = rt.durable_region()->slot<std::int64_t>(1);
    atomically(th, [&](api::Tx& tx) { tx.write(a, std::int64_t{1}); });
    atomically(th, [&](api::Tx& tx) { tx.write(b, std::int64_t{2}); });
  }
  const std::uintmax_t clean_size = log_size(dir.path);
  {
    // Manufacture a torn tail: garbage bytes where a record header should be.
    std::ofstream app(dir.path + "/changelog.shtm",
                      std::ios::app | std::ios::binary);
    const std::vector<char> junk(20, '\xAB');
    app.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  {
    api::Runtime rt(durable_opts(dir.path));
    const api::RecoveryInfo* ri = rt.recovery_info();
    ASSERT_NE(ri, nullptr);
    EXPECT_TRUE(ri->torn_tail);
    EXPECT_EQ(ri->torn_bytes_dropped, 20u);
    EXPECT_EQ(ri->log_records, 2u);
    // The valid prefix replayed; the tail was truncated off the file.
    EXPECT_EQ(rt.durable_region()->slot<std::int64_t>(0).unsafe_read(), 1);
    EXPECT_EQ(rt.durable_region()->slot<std::int64_t>(1).unsafe_read(), 2);
    EXPECT_EQ(log_size(dir.path), clean_size);
    // And the log accepts new appends cleanly after the truncation.
    auto c = rt.durable_region()->slot<std::int64_t>(2);
    api::ThreadHandle th = rt.attach();
    atomically(th, [&](api::Tx& tx) { tx.write(c, std::int64_t{3}); });
  }
  {
    api::Runtime rt(durable_opts(dir.path));
    EXPECT_FALSE(rt.recovery_info()->torn_tail);
    EXPECT_EQ(rt.recovery_info()->log_records, 3u);
    EXPECT_EQ(rt.durable_region()->slot<std::int64_t>(2).unsafe_read(), 3);
  }
}

TEST(Durable, ClockIsMonotoneAcrossRestarts) {
  TempDir dir;
  std::uint64_t first_last_ts = 0;
  {
    api::Runtime rt(durable_opts(dir.path));
    auto a = rt.durable_region()->slot<std::int64_t>(0);
    api::ThreadHandle th = rt.attach();
    for (int i = 0; i < 8; ++i)
      atomically(th, [&](api::Tx& tx) {
        tx.write(a, static_cast<std::int64_t>(i));
      });
  }
  {
    api::Runtime rt(durable_opts(dir.path));
    first_last_ts = rt.recovery_info()->last_ts;
    EXPECT_GT(first_last_ts, 0u);
    auto a = rt.durable_region()->slot<std::int64_t>(0);
    api::ThreadHandle th = rt.attach();
    atomically(th, [&](api::Tx& tx) { tx.write(a, std::int64_t{100}); });
  }
  {
    // New commits were stamped past everything recovered, so the recovered
    // timestamp strictly advances restart over restart.
    api::Runtime rt(durable_opts(dir.path));
    EXPECT_GT(rt.recovery_info()->last_ts, first_last_ts);
  }
}

TEST(Durable, MultiThreadConservationAndRecovery) {
  constexpr int kThreads = 4;
  constexpr std::int64_t kOpsPerThread = 500;
  TempDir dir;
  {
    api::Runtime rt(durable_opts(dir.path));
    // Offset 0: contended shared counter; offsets 1..kThreads: per-thread.
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        api::ThreadHandle th = rt.attach();
        auto shared = rt.durable_region()->slot<std::int64_t>(0);
        auto mine = rt.durable_region()->slot<std::int64_t>(
            static_cast<std::size_t>(t) + 1);
        for (std::int64_t i = 0; i < kOpsPerThread; ++i) {
          atomically(th, [&](api::Tx& tx) {
            tx.write(shared, tx.read(shared) + 1);
            tx.write(mine, tx.read(mine) + 1);
          });
        }
      });
    }
    for (auto& w : workers) w.join();

    const api::RuntimeStats s = rt.stats();
    EXPECT_TRUE(s.conserved())
        << s.attempts << " != " << s.commits << "+" << s.aborts << "+"
        << s.cancels << "+" << s.retry_waits;
    EXPECT_EQ(s.commits, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
    EXPECT_EQ(s.durable.acks, s.commits);
    // Group commit amortizes: under this load many commits share one fsync.
    EXPECT_LE(s.durable.fsyncs, s.durable.log_records);
    EXPECT_EQ(rt.durable_region()->slot<std::int64_t>(0).unsafe_read(),
              kThreads * kOpsPerThread);
  }
  {
    api::Runtime rt(durable_opts(dir.path));
    EXPECT_EQ(rt.durable_region()->slot<std::int64_t>(0).unsafe_read(),
              kThreads * kOpsPerThread);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(rt.durable_region()
                    ->slot<std::int64_t>(static_cast<std::size_t>(t) + 1)
                    .unsafe_read(),
                kOpsPerThread)
          << "thread " << t;
    }
  }
}

// ------------------------------------------------ fail-stop (injected EIO)

TEST(Durable, FsyncEIOIsFailStopNeverSilent) {
  auto plan = std::make_shared<api::FaultPlan>();
  plan->arm({api::FaultPoint::kFsyncBefore, api::FaultAction::kEIO, 1});
  api::Runtime rt(api::RuntimeOptions{}
                      .with_durable(api::DurableOptions{})
                      .with_fault_plan(plan));
  auto a = rt.durable_region()->slot<std::int64_t>(0);
  api::ThreadHandle th = rt.attach();

  bool commit_fired = false, abort_fired = false;
  EXPECT_THROW(atomically(th,
                          [&](api::Tx& tx) {
                            tx.write(a, std::int64_t{1});
                            tx.on_commit([&] { commit_fired = true; });
                            tx.on_abort([&] { abort_fired = true; });
                          }),
               api::TxDurabilityError);
  // Never acknowledged: the memory write may stand, but the caller was told
  // the truth -- on_abort, not on_commit, and a thrown TxDurabilityError.
  EXPECT_FALSE(commit_fired);
  EXPECT_TRUE(abort_fired);

  // Fail-stop: every later writing commit refuses before any memory effect.
  EXPECT_THROW(atomically(th,
                          [&](api::Tx& tx) { tx.write(a, std::int64_t{2}); }),
               api::TxDurabilityError);
  // Read-only transactions still run (nothing to persist).
  EXPECT_NO_THROW(atomically(th, [&](api::Tx& tx) { return tx.read(a); }));

  const api::RuntimeStats s = rt.stats();
  EXPECT_TRUE(s.conserved())
      << s.attempts << " != " << s.commits << "+" << s.aborts << "+"
      << s.cancels << "+" << s.retry_waits;
  EXPECT_TRUE(s.durable.log_failed);
}

TEST(Durable, WriteEIOAlsoPoisonsTheLog) {
  auto plan = std::make_shared<api::FaultPlan>();
  plan->arm({api::FaultPoint::kWriteBefore, api::FaultAction::kEIO, 1});
  api::Runtime rt(api::RuntimeOptions{}
                      .with_durable(api::DurableOptions{})
                      .with_fault_plan(plan));
  auto a = rt.durable_region()->slot<std::int64_t>(0);
  api::ThreadHandle th = rt.attach();
  EXPECT_THROW(atomically(th,
                          [&](api::Tx& tx) { tx.write(a, std::int64_t{1}); }),
               api::TxDurabilityError);
  EXPECT_TRUE(rt.stats().durable.log_failed);
}

TEST(Durable, SnapshotEIOLeavesDurabilityIntact) {
  auto plan = std::make_shared<api::FaultPlan>();
  plan->arm({api::FaultPoint::kSnapshotBeforeRename, api::FaultAction::kEIO, 1});
  TempDir dir;
  {
    api::DurableOptions dopts;
    dopts.dir = dir.path;
    dopts.fault = plan;
    api::Runtime rt(api::RuntimeOptions{}.with_durable(dopts));
    auto a = rt.durable_region()->slot<std::int64_t>(0);
    api::ThreadHandle th = rt.attach();
    atomically(th, [&](api::Tx& tx) { tx.write(a, std::int64_t{5}); });

    // The snapshot write fails; no image lands and -- critically -- the log
    // is NOT truncated, so nothing durable was lost.
    EXPECT_THROW(rt.snapshot(), api::TxDurabilityError);
    EXPECT_FALSE(fs::exists(dir.path + "/snapshot.shtm"));

    // The changelog itself is untouched: commits keep flowing.
    auto b = rt.durable_region()->slot<std::int64_t>(1);
    EXPECT_NO_THROW(
        atomically(th, [&](api::Tx& tx) { tx.write(b, std::int64_t{6}); }));
  }
  {
    api::Runtime rt(durable_opts(dir.path));
    EXPECT_FALSE(rt.recovery_info()->snapshot_loaded);
    EXPECT_EQ(rt.durable_region()->slot<std::int64_t>(0).unsafe_read(), 5);
    EXPECT_EQ(rt.durable_region()->slot<std::int64_t>(1).unsafe_read(), 6);
  }
}

// ----------------------------------------------------------- sync modes

TEST(Durable, AsyncAndNoneModesSkipTheAckWait) {
  for (const api::SyncMode mode : {api::SyncMode::kAsync, api::SyncMode::kNone}) {
    SCOPED_TRACE(durable::sync_mode_name(mode));
    TempDir dir;
    {
      api::DurableOptions dopts;
      dopts.dir = dir.path;
      dopts.sync = mode;
      api::Runtime rt(api::RuntimeOptions{}.with_durable(dopts));
      auto a = rt.durable_region()->slot<std::int64_t>(0);
      api::ThreadHandle th = rt.attach();
      for (int i = 1; i <= 16; ++i)
        atomically(th, [&](api::Tx& tx) {
          tx.write(a, static_cast<std::int64_t>(i));
        });
      const api::RuntimeStats s = rt.stats();
      EXPECT_TRUE(s.conserved());
      EXPECT_EQ(s.durable.acks, 0u);  // commits return without waiting
      if (mode == api::SyncMode::kNone) {
        EXPECT_EQ(s.durable.fsyncs, 0u);
      }
    }
    {
      // A clean shutdown drained the writer, so the data still recovers;
      // only a crash may lose the un-synced tail in these modes.
      api::Runtime rt(durable_opts(dir.path));
      EXPECT_EQ(rt.durable_region()->slot<std::int64_t>(0).unsafe_read(), 16);
    }
  }
}

// ------------------------------------------- composable blocking on durable

TEST(Durable, RetryParksAndWakesOnDurableBackend) {
  api::Runtime rt(durable_opts());
  auto flag = rt.durable_region()->slot<std::int64_t>(0);

  std::int64_t seen = -1;
  std::thread consumer([&] {
    api::ThreadHandle th = rt.attach();
    seen = atomically(th, [&](api::Tx& tx) {
      const auto v = tx.read(flag);
      if (v == 0) tx.retry();
      return v;
    });
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    api::ThreadHandle th = rt.attach();
    atomically(th, [&](api::Tx& tx) { tx.write(flag, std::int64_t{42}); });
  }
  consumer.join();
  EXPECT_EQ(seen, 42);
  const api::RuntimeStats s = rt.stats();
  EXPECT_TRUE(s.conserved());
  EXPECT_GE(s.retry_waits, 1u);
  EXPECT_GE(s.retry_notifies, 1u);
}

// ------------------------------------------- the commit tail on TinyTx

TEST(Durable, ValidationDeathInsideTheGateReleasesIt) {
  // A reads x, B commits x, then A writes a region word and commits: A's
  // validation fails inside the gated section.  The die path must release
  // the gate (or snapshot() blocks forever) and must log nothing of A's.
  durable::DurableBackend backend;
  stm::Word* x = backend.region().word(3);
  stm::Word* y = backend.region().word(5);
  stm::TinyTx& a = backend.tx(0);
  a.start();
  EXPECT_EQ(a.load(x), 0);
  {
    stm::TxRunner<stm::TinyTx> b(backend.tx(1), nullptr);
    b.run([&](stm::TinyTx& tx) { tx.store(x, 7); });
  }
  a.store(y, 9);
  try {
    a.commit();
    FAIL() << "A committed over B's write to x";
  } catch (const stm::TxConflict& c) {
    EXPECT_EQ(c.reason(), stm::AbortReason::kValidation);
  }
  EXPECT_FALSE(a.in_tx());
  EXPECT_EQ(*y, 0) << "the doomed attempt wrote back";

  backend.changelog().flush(-1);
  durable::LogReader reader({backend.dir() + "/" + durable::kLogFileName, 4096});
  durable::LogReader::Record rec;
  ASSERT_EQ(reader.next(rec), durable::LogReader::Status::kRecord);
  ASSERT_EQ(rec.count, 1u);
  EXPECT_EQ(rec.words[0].offset, 3u);
  EXPECT_EQ(rec.words[0].value, 7u);
  EXPECT_EQ(reader.next(rec), durable::LogReader::Status::kEnd)
      << "the log holds more than B's record";

  // A gate leaked by the die path would block this forever: watch it from
  // here and fail loudly instead of hanging the suite.
  std::atomic<bool> done{false};
  std::thread snap([&] {
    backend.snapshot();
    done = true;
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (!done) {
    std::fprintf(stderr, "snapshot() still blocked after 10 s: gate leaked\n");
    std::_Exit(1);
  }
  snap.join();
}

TEST(Changelog, FlushCutsTheLingerShort) {
  // A 2 s group-commit linger must not delay an explicit flush.
  TempDir dir;
  durable::Changelog::Config cfg;
  cfg.path = dir.path + "/" + durable::kLogFileName;
  cfg.group_commit_interval_us = 2'000'000;
  cfg.fsync = false;
  durable::Changelog log(cfg, nullptr);
  const durable::RedoWord w{0, 1};
  log.append({&w, 1}, 1);
  const auto t0 = std::chrono::steady_clock::now();
  log.flush(-1);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(log.counters().batches, 1u);
}

TEST(Durable, ResetStatsZeroesEveryReportedCount) {
  TempDir dir;
  {  // a previous generation, so the runtime below has recovery facts
    api::Runtime pre(durable_opts(dir.path));
    api::ThreadHandle th = pre.attach();
    auto v = pre.durable_region()->slot<std::int64_t>(0);
    atomically(th, [&](api::Tx& tx) { tx.write(v, std::int64_t{100}); });
  }
  api::Runtime rt(durable_opts(dir.path)
                      .with_scheduler(core::SchedulerKind::kShrink)
                      .with_track_accuracy(true));
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      api::ThreadHandle th = rt.attach();
      auto hot = rt.durable_region()->slot<std::int64_t>(0);
      auto own = rt.durable_region()->slot<std::int64_t>(1 + t);
      for (int i = 0; i < 300; ++i) {
        atomically(th, [&](api::Tx& tx) {
          tx.write(hot, tx.read(hot) + 1);
          tx.write(own, tx.read(own) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  const api::RuntimeStats warm = rt.stats();
  ASSERT_GT(warm.commits, 0u);
  ASSERT_GT(warm.durable.log_records, 0u);
  ASSERT_GT(warm.durable.acks, 0u);
  ASSERT_GT(warm.latency.commit.total(), 0u);
  ASSERT_GE(warm.read_accuracy, 0.0) << "Shrink tracked no accuracy";
  ASSERT_EQ(warm.durable.recovered_records, 1u);

  rt.reset_stats();
  const api::RuntimeStats s = rt.stats();
  EXPECT_EQ(s.attempts, 0u);
  EXPECT_EQ(s.commits, 0u);
  EXPECT_EQ(s.aborts, 0u);
  EXPECT_EQ(s.cancels, 0u);
  EXPECT_EQ(s.retry_waits, 0u);
  EXPECT_EQ(s.reads, 0u);
  EXPECT_EQ(s.writes, 0u);
  EXPECT_EQ(s.extensions, 0u);
  for (const auto n : s.aborts_by_reason) EXPECT_EQ(n, 0u);
  EXPECT_EQ(s.retry_notifies, 0u);
  EXPECT_EQ(s.retry_wakeups, 0u);
  EXPECT_EQ(s.serialized, 0u);
  EXPECT_EQ(s.sched_waits, 0u);
  EXPECT_LT(s.read_accuracy, 0.0) << "accuracy streams kept warm-up samples";
  EXPECT_LT(s.write_accuracy, 0.0);
  EXPECT_LT(s.retry_read_accuracy, 0.0);
  EXPECT_EQ(s.latency.commit.total(), 0u);
  EXPECT_EQ(s.latency.abort_gap.total(), 0u);
  EXPECT_EQ(s.latency.park.total(), 0u);
  EXPECT_EQ(s.latency.serialized.total(), 0u);
  EXPECT_EQ(s.durable.log_records, 0u);
  EXPECT_EQ(s.durable.log_bytes, 0u);
  EXPECT_EQ(s.durable.batches, 0u);
  EXPECT_EQ(s.durable.fsyncs, 0u);
  EXPECT_EQ(s.durable.max_batch_records, 0u);
  EXPECT_EQ(s.durable.acks, 0u);
  EXPECT_EQ(s.durable.ack.total(), 0u);
  EXPECT_EQ(s.durable.auto_snapshots, 0u);
  // Recovery facts and the log's sequence state are not counts: a commit
  // after the reset is still acknowledged and counted from zero.
  EXPECT_EQ(s.durable.recovered_records, 1u);
  {
    api::ThreadHandle th = rt.attach();
    auto hot = rt.durable_region()->slot<std::int64_t>(0);
    atomically(th, [&](api::Tx& tx) { tx.write(hot, tx.read(hot) + 1); });
  }
  const api::RuntimeStats after = rt.stats();
  EXPECT_EQ(after.commits, 1u);
  EXPECT_EQ(after.durable.log_records, 1u);
  EXPECT_EQ(after.durable.acks, 1u);
}

// ----------------------------------------------------- LogReader itself
//
// The shared record iterator behind recovery replay and the replica tailer
// (durable/log_reader.hpp), unit-tested against hand-damaged files.

TEST(LogReader, IteratesRecordsAcrossTinyBufferBoundaries) {
  TempDir dir;
  constexpr int kTxs = 8;
  constexpr std::size_t kWordsPerTx = 10;
  {
    api::Runtime rt(durable_opts(dir.path));
    api::ThreadHandle th = rt.attach();
    for (int i = 0; i < kTxs; ++i) {
      atomically(th, [&](api::Tx& tx) {
        for (std::size_t w = 0; w < kWordsPerTx; ++w) {
          auto s = rt.durable_region()->slot<std::int64_t>(
              static_cast<std::size_t>(i) * kWordsPerTx + w);
          tx.write(s, static_cast<std::int64_t>(i * 100) +
                          static_cast<std::int64_t>(w));
        }
      });
    }
  }
  // A 32-byte buffer cannot hold even one header + one word: every record
  // spans multiple refills and must be reassembled transparently.
  durable::LogReader reader({dir.path + "/changelog.shtm", 32});
  durable::LogReader::Record rec;
  std::uint64_t prev_ts = 0;
  std::uint64_t prev_off = 0;
  int n = 0;
  while (reader.next(rec) == durable::LogReader::Status::kRecord) {
    EXPECT_EQ(rec.count, kWordsPerTx) << "record " << n;
    EXPECT_GT(rec.commit_ts, prev_ts) << "record " << n;
    EXPECT_GT(rec.offset, prev_off) << "record " << n;
    std::int64_t sum = 0;
    for (std::uint32_t w = 0; w < rec.count; ++w)
      sum += static_cast<std::int64_t>(rec.words[w].value);
    std::int64_t want = 0;
    for (std::size_t w = 0; w < kWordsPerTx; ++w)
      want += n * 100 + static_cast<std::int64_t>(w);
    EXPECT_EQ(sum, want) << "record " << n;
    prev_ts = rec.commit_ts;
    prev_off = rec.offset;
    ++n;
  }
  EXPECT_EQ(n, kTxs);
  EXPECT_EQ(reader.next(rec), durable::LogReader::Status::kEnd);
  EXPECT_EQ(reader.offset(), fs::file_size(dir.path + "/changelog.shtm"));
  EXPECT_FALSE(reader.shrank());
}

TEST(LogReader, MidRecordTornTailIsPartialUntilTheBytesArrive) {
  TempDir dir;
  {
    api::Runtime rt(durable_opts(dir.path));
    api::ThreadHandle th = rt.attach();
    for (int i = 0; i < 4; ++i) {
      auto s =
          rt.durable_region()->slot<std::int64_t>(static_cast<std::size_t>(i));
      atomically(th, [&](api::Tx& tx) {
        tx.write(s, static_cast<std::int64_t>(i) + 1);
      });
    }
  }
  const std::string log = dir.path + "/changelog.shtm";
  // Save the last 5 bytes, then cut them: the final record is torn
  // mid-payload, exactly what an in-flight leader append looks like.
  const std::uintmax_t full = fs::file_size(log);
  std::vector<char> stolen(5);
  {
    std::ifstream in(log, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(full - 5));
    in.read(stolen.data(), 5);
    ASSERT_EQ(in.gcount(), 5);
  }
  fs::resize_file(log, full - 5);

  durable::LogReader reader({log, 32});
  durable::LogReader::Record rec;
  int n = 0;
  durable::LogReader::Status st;
  while ((st = reader.next(rec)) == durable::LogReader::Status::kRecord) ++n;
  EXPECT_EQ(n, 3);
  EXPECT_EQ(st, durable::LogReader::Status::kPartial);
  const std::uint64_t held = reader.offset();
  // kPartial consumes nothing: the cursor holds at the last whole record...
  EXPECT_EQ(reader.next(rec), durable::LogReader::Status::kPartial);
  EXPECT_EQ(reader.offset(), held);
  // ...and once the writer finishes the append (tailer semantics: lookahead
  // was dropped, the bytes are re-read fresh), the record materializes.
  {
    std::ofstream app(log, std::ios::app | std::ios::binary);
    app.write(stolen.data(), static_cast<std::streamsize>(stolen.size()));
  }
  ASSERT_EQ(reader.next(rec), durable::LogReader::Status::kRecord);
  EXPECT_EQ(static_cast<std::int64_t>(rec.words[0].value), 4);
  EXPECT_EQ(reader.next(rec), durable::LogReader::Status::kEnd);
}

TEST(LogReader, MissingFileBadHeaderShrinkAndRewind) {
  TempDir dir;
  const std::string log = dir.path + "/changelog.shtm";
  durable::LogReader::Record rec;
  {
    durable::LogReader reader({log, 64});
    EXPECT_EQ(reader.next(rec), durable::LogReader::Status::kNoFile);
  }
  {
    std::ofstream out(log, std::ios::binary);
    out.write("xyz", 3);
  }
  {
    durable::LogReader reader({log, 64});
    EXPECT_EQ(reader.next(rec), durable::LogReader::Status::kBadHeader);
  }
  fs::remove(log);
  {
    api::Runtime rt(durable_opts(dir.path));
    api::ThreadHandle th = rt.attach();
    auto s = rt.durable_region()->slot<std::int64_t>(0);
    for (int i = 1; i <= 3; ++i)
      atomically(th, [&](api::Tx& tx) {
        tx.write(s, static_cast<std::int64_t>(i));
      });
  }
  durable::LogReader reader({log, 64});
  int n = 0;
  while (reader.next(rec) == durable::LogReader::Status::kRecord) ++n;
  EXPECT_EQ(n, 3);
  EXPECT_FALSE(reader.shrank());
  // Truncate back to the bare header (what snapshot() does): the consumed
  // prefix no longer exists -- shrank() flags it, rewind() starts over.
  fs::resize_file(log, sizeof(durable::LogFileHeader));
  EXPECT_TRUE(reader.shrank());
  reader.rewind();
  EXPECT_EQ(reader.offset(), 0u);
  EXPECT_EQ(reader.next(rec), durable::LogReader::Status::kEnd);
  EXPECT_EQ(reader.offset(), sizeof(durable::LogFileHeader));
  EXPECT_FALSE(reader.shrank());
}

// ------------------------------------------------- auto-snapshot cadence

TEST(Durable, AutoSnapshotCadenceBoundsRecoveryReplay) {
  TempDir dir;
  constexpr int kOps = 600;
  {
    api::DurableOptions dopts;
    dopts.dir = dir.path;
    dopts.snapshot_every_bytes = 4096;  // tiny: trip several times
    api::Runtime rt(api::RuntimeOptions{}.with_durable(dopts));
    api::ThreadHandle th = rt.attach();
    auto s = rt.durable_region()->slot<std::int64_t>(0);
    for (int i = 1; i <= kOps; ++i)
      atomically(th, [&](api::Tx& tx) {
        tx.write(s, static_cast<std::int64_t>(i));
      });
    // The cadence thread polls on a short interval; wait for it to observe
    // the final log size.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (rt.stats().durable.auto_snapshots == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(rt.stats().durable.auto_snapshots, 1u);
  }
  {
    api::Runtime rt(durable_opts(dir.path));
    const api::RecoveryInfo* ri = rt.recovery_info();
    ASSERT_NE(ri, nullptr);
    EXPECT_TRUE(ri->snapshot_loaded);
    // Bounded replay: cold start only walks the records since the last
    // cadence snapshot, not the whole history.
    EXPECT_LT(ri->replayed_records, static_cast<std::uint64_t>(kOps));
    EXPECT_EQ(rt.durable_region()->slot<std::int64_t>(0).unsafe_read(), kOps);
  }
}

// ------------------------------------------------------ FaultPlan itself

TEST(FaultPlan, FiresAtTheArmedHitAndOnlyOnce) {
  durable::FaultPlan plan;
  plan.arm({durable::FaultPoint::kFsyncBefore, durable::FaultAction::kEIO, 3});
  EXPECT_TRUE(plan.armed());
  EXPECT_EQ(plan.check(durable::FaultPoint::kFsyncBefore),
            durable::FaultAction::kNone);
  EXPECT_EQ(plan.check(durable::FaultPoint::kFsyncBefore),
            durable::FaultAction::kNone);
  EXPECT_EQ(plan.check(durable::FaultPoint::kFsyncBefore),
            durable::FaultAction::kEIO);  // third pass: fires
  EXPECT_EQ(plan.check(durable::FaultPoint::kFsyncBefore),
            durable::FaultAction::kNone);  // consumed: never re-fires
  EXPECT_EQ(plan.passes(durable::FaultPoint::kFsyncBefore), 4u);
  // Other points are untouched.
  EXPECT_EQ(plan.check(durable::FaultPoint::kWriteBefore),
            durable::FaultAction::kNone);
}

TEST(FaultPlan, ParsesTheEnvGrammar) {
  const auto plan =
      durable::FaultPlan::parse("fsync.before:eio:2,append.after:crash");
  EXPECT_TRUE(plan->armed());
  EXPECT_EQ(plan->check(durable::FaultPoint::kFsyncBefore),
            durable::FaultAction::kNone);
  EXPECT_EQ(plan->check(durable::FaultPoint::kFsyncBefore),
            durable::FaultAction::kEIO);
  // (The crash spec is armed at hit 1 but not exercised here: kCrash
  // _Exit()s the process, which is test_recovery.cpp territory.)

  EXPECT_THROW(durable::FaultPlan::parse("bogus.point:eio"),
               std::invalid_argument);
  EXPECT_THROW(durable::FaultPlan::parse("fsync.before:bogus"),
               std::invalid_argument);
  EXPECT_THROW(durable::FaultPlan::parse("fsync.before"),
               std::invalid_argument);

  // Round-trip every point name through the parser.
  for (std::size_t i = 0; i < durable::kNumFaultPoints; ++i) {
    const auto p = static_cast<durable::FaultPoint>(i);
    EXPECT_EQ(durable::parse_fault_point(durable::fault_point_name(p)), p);
  }
}

}  // namespace
}  // namespace shrinktm
