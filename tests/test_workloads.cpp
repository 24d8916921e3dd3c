// Integration tests: every workload runs on every backend under several
// schedulers, commits work, and passes its own invariant verification.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "durable/backend.hpp"
#include "stm/swiss.hpp"
#include "stm/tiny.hpp"
#include "workloads/driver.hpp"
#include "workloads/rbtree_bench.hpp"
#include "workloads/stamp/registry.hpp"
#include "workloads/stmbench7.hpp"

namespace shrinktm::workloads {
namespace {

template <typename Backend>
class WorkloadTest : public ::testing::Test {};

using Backends = ::testing::Types<stm::TinyBackend, stm::SwissBackend,
                                  durable::DurableBackend>;
TYPED_TEST_SUITE(WorkloadTest, Backends);

DriverConfig quick(int threads) {
  DriverConfig cfg;
  cfg.threads = threads;
  cfg.duration_ms = 60;
  return cfg;
}

TYPED_TEST(WorkloadTest, RBTreeBenchRunsAndVerifies) {
  for (int threads : {1, 4}) {
    TypeParam backend;
    RBTreeBench w(RBTreeBenchConfig{.key_range = 2048, .update_percent = 20});
    const RunResult res = run_workload(backend, nullptr, w, quick(threads));
    EXPECT_TRUE(res.verified);
    EXPECT_GT(res.stm.commits, 0u) << "threads=" << threads;
  }
}

TYPED_TEST(WorkloadTest, RBTreeBenchUnderEveryScheduler) {
  for (auto kind : {core::SchedulerKind::kShrink, core::SchedulerKind::kAts,
                    core::SchedulerKind::kPool, core::SchedulerKind::kSerializer}) {
    TypeParam backend;
    auto sched = core::make_scheduler(kind, backend);
    RBTreeBench w(RBTreeBenchConfig{.key_range = 512, .update_percent = 70});
    const RunResult res = run_workload(backend, sched.get(), w, quick(4));
    EXPECT_TRUE(res.verified) << core::scheduler_kind_name(kind);
    EXPECT_GT(res.stm.commits, 0u) << core::scheduler_kind_name(kind);
    if (sched) {
      EXPECT_EQ(sched->wait_count(), 0u) << "serialization lock leaked";
    }
  }
}

TYPED_TEST(WorkloadTest, StmBench7AllMixesVerify) {
  for (auto mix : {Sb7Mix::kReadDominated, Sb7Mix::kReadWrite,
                   Sb7Mix::kWriteDominated}) {
    TypeParam backend;
    Sb7Config cfg;
    cfg.mix = mix;
    StmBench7 w(cfg);
    const RunResult res = run_workload(backend, nullptr, w, quick(4));
    EXPECT_TRUE(res.verified) << sb7_mix_name(mix);
    EXPECT_GT(res.stm.commits, 0u) << sb7_mix_name(mix);
  }
}

TYPED_TEST(WorkloadTest, StmBench7UnderShrink) {
  TypeParam backend;
  core::SchedulerOptions opts;
  opts.track_accuracy = true;
  auto sched = core::make_scheduler(core::SchedulerKind::kShrink, backend, opts);
  Sb7Config cfg;
  cfg.mix = Sb7Mix::kWriteDominated;
  StmBench7 w(cfg);
  const RunResult res = run_workload(backend, sched.get(), w, quick(6));
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.stm.commits, 0u);
  EXPECT_EQ(sched->wait_count(), 0u);
}

TYPED_TEST(WorkloadTest, EveryStampAppVerifiesUnderBaseAndShrink) {
  for (const auto app : stamp::kAllApps) {
    {
      TypeParam backend;
      const RunResult res = stamp::run_stamp(app, backend, nullptr, quick(2));
      EXPECT_TRUE(res.verified) << stamp::app_name(app) << " base";
      EXPECT_GT(res.stm.commits, 0u) << stamp::app_name(app) << " base";
    }
    {
      TypeParam backend;
      auto sched = core::make_scheduler(core::SchedulerKind::kShrink, backend);
      const RunResult res = stamp::run_stamp(app, backend, sched.get(), quick(4));
      EXPECT_TRUE(res.verified) << stamp::app_name(app) << " shrink";
      EXPECT_GT(res.stm.commits, 0u) << stamp::app_name(app) << " shrink";
      EXPECT_EQ(sched->wait_count(), 0u) << stamp::app_name(app);
    }
  }
}

TYPED_TEST(WorkloadTest, OverloadedRunStillVerifies) {
  // Far more threads than cores: the paper's overloaded regime.
  TypeParam backend;
  auto sched = core::make_scheduler(core::SchedulerKind::kShrink, backend);
  RBTreeBench w(RBTreeBenchConfig{.key_range = 256, .update_percent = 70});
  const RunResult res = run_workload(backend, sched.get(), w, quick(16));
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.stm.commits, 0u);
}

TYPED_TEST(WorkloadTest, StmBench7SixteenThreadsVerify) {
  // Sixteen threads put SM1's part ids for tid 11 in play.  A build-date
  // key that aliases them to initial parts' ids drops an index insert on a
  // date collision, and the two indices diverge.  The fixed seeds and op
  // budget keep the run box-independent; this budget reaches such a
  // collision before later removals and re-dates can mask the size
  // mismatch verify() checks.
  constexpr int kThreads = 16;
  constexpr int kOpsPerThread = 3000;
  TypeParam backend;
  StmBench7 w(Sb7Config{.mix = Sb7Mix::kWriteDominated});
  {
    stm::TxRunner<typename TypeParam::Tx> r0(backend.tx(0), nullptr);
    FacadeRunner<typename TypeParam::Tx> f0(r0);
    w.setup(f0);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      stm::TxRunner<typename TypeParam::Tx> r(backend.tx(t), nullptr);
      FacadeRunner<typename TypeParam::Tx> f(r);
      util::Xoshiro256 rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) w.op(f, t, rng);
    });
  }
  for (auto& th : threads) th.join();
  stm::TxRunner<typename TypeParam::Tx> r0(backend.tx(0), nullptr);
  FacadeRunner<typename TypeParam::Tx> f0(r0);
  EXPECT_TRUE(w.verify(f0));
}

TEST(StmBench7Keys, DateKeyIsInjectiveOverTheSm1IdScheme) {
  // Initial parts take ids from 1'000'000 up; SM1 gives tid t's k-th new
  // part 10'000'000 + t * 10^9 + k.  Every such id must decode back out of
  // its key with the date, for 64 tids.
  const std::int64_t span = StmBench7::kDateKeyIdSpan;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 100'000; i += 7) ids.push_back(1'000'000 + i);
  for (std::uint64_t t = 0; t < 64; ++t)
    for (std::uint64_t k : {0ULL, 1ULL, 576ULL, 24'064ULL, 1'048'576ULL, 999'999'999ULL})
      ids.push_back(10'000'000 + t * 1'000'000'000ULL + k);
  for (std::int64_t date : {0, 1, 500, 999}) {
    for (std::uint64_t id : ids) {
      ASSERT_LT(id, static_cast<std::uint64_t>(span));
      const std::int64_t key = StmBench7::date_key(date, id);
      ASSERT_EQ(key / span, date) << id;
      ASSERT_EQ(static_cast<std::uint64_t>(key % span), id) << date;
    }
  }
  // The pair that broke 16-thread runs: tid 11's first SM1 id and the
  // initial part 1'000'576 shared a key whenever they shared a date.
  EXPECT_NE(StmBench7::date_key(7, 11'010'000'000ULL),
            StmBench7::date_key(7, 1'000'576));
  // Keys stay date-ordered: the largest id of a date sorts first.
  EXPECT_LT(StmBench7::date_key(7, span - 1), StmBench7::date_key(8, 0));
}

TEST(Driver, MaxOpsBoundsWork) {
  stm::TinyBackend backend;
  RBTreeBench w(RBTreeBenchConfig{.key_range = 128, .update_percent = 0});
  DriverConfig cfg;
  cfg.threads = 2;
  cfg.duration_ms = 200;  // threads finish their op budget well before this
  cfg.max_ops_per_thread = 50;
  const RunResult res = run_workload(backend, nullptr, w, cfg);
  EXPECT_EQ(res.ops, 100u);
}

}  // namespace
}  // namespace shrinktm::workloads
