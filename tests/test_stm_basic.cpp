// Basic single- and multi-threaded correctness of every STM backend (the
// durable one runs TinyTx behind its commit-log tail).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "api/tx.hpp"
#include "durable/backend.hpp"
#include "stm/runner.hpp"
#include "stm/swiss.hpp"
#include "stm/tiny.hpp"
#include "txstruct/tvar.hpp"
#include "txstruct/vector.hpp"
#include "util/rng.hpp"

namespace shrinktm {
namespace {

template <typename Backend>
class StmBasicTest : public ::testing::Test {};

using Backends = ::testing::Types<stm::TinyBackend, stm::SwissBackend,
                                  durable::DurableBackend>;
TYPED_TEST_SUITE(StmBasicTest, Backends);

TYPED_TEST(StmBasicTest, ReadYourOwnWrite) {
  TypeParam backend;
  txs::TVar<std::int64_t> v(10);
  stm::TxRunner<typename TypeParam::Tx> r(backend.tx(0), nullptr);
  r.run([&](auto& tx) {
    EXPECT_EQ(v.read(tx), 10);
    v.write(tx, 20);
    EXPECT_EQ(v.read(tx), 20);  // redo log visible to self
    v.write(tx, 30);
    EXPECT_EQ(v.read(tx), 30);
  });
  EXPECT_EQ(v.unsafe_read(), 30);
}

TYPED_TEST(StmBasicTest, ReadOnlyTransactionCommits) {
  TypeParam backend;
  txs::TVar<std::int64_t> v(5);
  stm::TxRunner<typename TypeParam::Tx> r(backend.tx(0), nullptr);
  const auto got = r.run([&](auto& tx) { return v.read(tx); });
  EXPECT_EQ(got, 5);
  EXPECT_EQ(backend.aggregate_stats().commits, 1u);
  EXPECT_EQ(backend.aggregate_stats().aborts, 0u);
}

TYPED_TEST(StmBasicTest, ReturnValuePropagates) {
  TypeParam backend;
  txs::TVar<std::int64_t> v(123);
  stm::TxRunner<typename TypeParam::Tx> r(backend.tx(0), nullptr);
  const std::int64_t doubled = r.run([&](auto& tx) { return 2 * v.read(tx); });
  EXPECT_EQ(doubled, 246);
}

TYPED_TEST(StmBasicTest, UserExceptionCancelsTransaction) {
  TypeParam backend;
  txs::TVar<std::int64_t> v(1);
  stm::TxRunner<typename TypeParam::Tx> r(backend.tx(0), nullptr);
  EXPECT_THROW(r.run([&](auto& tx) {
                 v.write(tx, 99);
                 throw std::runtime_error("boom");
               }),
               std::runtime_error);
  EXPECT_EQ(v.unsafe_read(), 1) << "speculative write must not survive";
  // A later transaction still works.
  r.run([&](auto& tx) { v.write(tx, 2); });
  EXPECT_EQ(v.unsafe_read(), 2);
}

TYPED_TEST(StmBasicTest, CounterIsSerializable) {
  // The canonical STM test: concurrent increments never lose updates.
  TypeParam backend;
  txs::TVar<std::int64_t> counter(0);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&backend, &counter, t] {
      stm::TxRunner<typename TypeParam::Tx> r(backend.tx(t), nullptr);
      for (int i = 0; i < kIncrements; ++i) {
        r.run([&](auto& tx) { counter.write(tx, counter.read(tx) + 1); });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.unsafe_read(), kThreads * kIncrements);
  EXPECT_EQ(backend.aggregate_stats().commits,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TYPED_TEST(StmBasicTest, SnapshotIsolationPairInvariant) {
  // Two variables always updated together must never be observed torn.
  TypeParam backend;
  txs::TVar<std::int64_t> a(0), b(0);
  std::atomic<bool> reader_done{false};
  std::atomic<std::uint64_t> writes{0};

  std::thread writer([&] {
    stm::TxRunner<typename TypeParam::Tx> r(backend.tx(0), nullptr);
    for (std::int64_t i = 1; !reader_done.load(); ++i) {
      r.run([&](auto& tx) {
        a.write(tx, i);
        b.write(tx, -i);
      });
      writes.store(i);
    }
  });
  std::thread reader([&] {
    stm::TxRunner<typename TypeParam::Tx> r(backend.tx(1), nullptr);
    // Start only once the writer has committed, so the reads overlap a live
    // writer instead of racing thread start-up.
    while (writes.load() == 0) std::this_thread::yield();
    for (int c = 0; c < 3000; ++c) {
      r.run([&](auto& tx) {
        const auto x = a.read(tx);
        const auto y = b.read(tx);
        if (x != -y) std::abort();  // torn snapshot: fail loudly
      });
    }
    reader_done.store(true);
  });
  writer.join();
  reader.join();
  EXPECT_GT(writes.load(), 0u);
  EXPECT_EQ(a.unsafe_read(), -b.unsafe_read());
}

TYPED_TEST(StmBasicTest, WriteOracleSeesForeignLocks) {
  TypeParam backend;
  txs::TVar<std::int64_t> v(0);
  auto& tx0 = backend.tx(0);
  tx0.set_scheduler(nullptr);
  tx0.start();
  tx0.store(const_cast<stm::Word*>(static_cast<const stm::Word*>(v.address())), 42);
  EXPECT_FALSE(backend.is_write_locked_by_other(v.address(), 0));
  EXPECT_TRUE(backend.is_write_locked_by_other(v.address(), 1));
  tx0.commit();
  EXPECT_FALSE(backend.is_write_locked_by_other(v.address(), 1));
  EXPECT_EQ(v.unsafe_read(), 42);
}

TYPED_TEST(StmBasicTest, TransactionalAllocationRollsBack) {
  TypeParam backend;
  txs::TVar<void*> slot(nullptr);
  stm::TxRunner<typename TypeParam::Tx> r(backend.tx(0), nullptr);
  // Force one abort: first attempt allocates then restarts explicitly.
  int attempts = 0;
  r.run([&](auto& tx) {
    void* p = tx.tx_alloc(64);
    if (attempts++ == 0) tx.restart();  // allocation must be reclaimed
    slot.write(tx, p);
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_NE(slot.unsafe_read(), nullptr);
  EXPECT_EQ(backend.aggregate_stats().aborts, 1u);
}

TYPED_TEST(StmBasicTest, StripedCountersSumCorrectly) {
  TypeParam backend;
  txs::TxArray<std::int64_t> cells(64, 0);
  constexpr int kThreads = 4;
  constexpr int kOps = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&backend, &cells, t] {
      stm::TxRunner<typename TypeParam::Tx> r(backend.tx(t), nullptr);
      util::Xoshiro256 rng(100 + t);
      for (int i = 0; i < kOps; ++i) {
        // Transfer between two random cells: the total must be conserved.
        const auto from = rng.next_below(cells.size());
        const auto to = rng.next_below(cells.size());
        r.run([&](auto& tx) {
          api::Tx view(tx);  // containers are concrete on the facade Tx
          cells.set(view, from, cells.get(view, from) - 1);
          cells.set(view, to, cells.get(view, to) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) total += cells.unsafe_get(i);
  EXPECT_EQ(total, 0);
}

}  // namespace
}  // namespace shrinktm
