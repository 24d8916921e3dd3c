// Figure 1 of the paper, as deterministic interleavings.
//
// (a) T1 and T3 read x; T2 writes x and y and commits; T1 and T3 then read
//     y and are "bound to abort due to an inconsistency in the values
//     read".  The STM must refuse the torn snapshot.
// (b) T1 and T2 conflict on x (both write); only one commits.  The loser's
//     retry would NOT conflict again -- the paper's argument for why coarse
//     serialization (queueing the loser behind unrelated transactions)
//     wastes parallelism.
#include <gtest/gtest.h>

#include "durable/backend.hpp"
#include "stm/runner.hpp"
#include "stm/swiss.hpp"
#include "stm/tiny.hpp"
#include "txstruct/tvar.hpp"

namespace shrinktm {
namespace {

template <typename Backend>
class Figure1Test : public ::testing::Test {};

using Backends = ::testing::Types<stm::TinyBackend, stm::SwissBackend,
                                  durable::DurableBackend>;
TYPED_TEST_SUITE(Figure1Test, Backends);

template <typename T>
stm::Word* waddr(const txs::TVar<T>& v) {
  return const_cast<stm::Word*>(static_cast<const stm::Word*>(v.address()));
}

TYPED_TEST(Figure1Test, PartAInconsistentReadMustAbort) {
  TypeParam backend;
  txs::TVar<std::int64_t> x(1), y(1);

  auto& t1 = backend.tx(0);
  t1.set_scheduler(nullptr);
  auto& t2 = backend.tx(1);
  t2.set_scheduler(nullptr);

  // T1 reads x...
  t1.start();
  EXPECT_EQ(t1.load(waddr(x)), 1u);

  // ... T2 writes x and y and commits ...
  t2.start();
  t2.store(waddr(x), 2);
  t2.store(waddr(y), 2);
  t2.commit();

  // ... T1 now reads y: returning 2 here next to the x==1 it already saw
  // would be the Figure-1(a) inconsistency, so the read must conflict.
  EXPECT_THROW((void)t1.load(waddr(y)), stm::TxConflict);
  EXPECT_FALSE(t1.in_tx()) << "conflict must roll the attempt back";

  // The retry sees the consistent post-T2 state.
  stm::TxRunner<typename TypeParam::Tx> r(t1, nullptr);
  r.run([&](auto& tx) {
    EXPECT_EQ(x.read(tx), 2);
    EXPECT_EQ(y.read(tx), 2);
  });
}

TYPED_TEST(Figure1Test, PartBWriteWriteConflictOneCommits) {
  TypeParam backend;
  txs::TVar<std::int64_t> x(0);

  auto& t1 = backend.tx(0);
  t1.set_scheduler(nullptr);
  auto& t2 = backend.tx(1);
  t2.set_scheduler(nullptr);

  // T1 write-locks x (both backends detect W/W eagerly).
  t1.start();
  t1.store(waddr(x), 10);

  // T2's write to x must lose: both backends' first-phase CM aborts self.
  t2.start();
  EXPECT_THROW(t2.store(waddr(x), 20), stm::TxConflict);

  t1.commit();
  EXPECT_EQ(x.unsafe_read(), 10);

  // The loser's retry, after the winner finished, commits cleanly -- the
  // conflict does not repeat (Figure 1(b)'s point against coarse queues).
  stm::TxRunner<typename TypeParam::Tx> r(t2, nullptr);
  r.run([&](auto& tx) { x.write(tx, 20); });
  EXPECT_EQ(x.unsafe_read(), 20);
}

TYPED_TEST(Figure1Test, PartAReaderNotDisturbedByUnrelatedCommit) {
  // Sanity inverse of (a): if T2 writes only y, T1's later read of y must
  // succeed via snapshot extension, NOT abort (x is unchanged).
  TypeParam backend;
  txs::TVar<std::int64_t> x(1), y(1);
  auto& t1 = backend.tx(0);
  t1.set_scheduler(nullptr);
  auto& t2 = backend.tx(1);
  t2.set_scheduler(nullptr);

  t1.start();
  EXPECT_EQ(t1.load(waddr(x)), 1u);
  t2.start();
  t2.store(waddr(y), 5);
  t2.commit();
  // y changed after T1's snapshot, but extending the snapshot revalidates
  // x successfully, so the read returns the fresh value.
  EXPECT_EQ(t1.load(waddr(y)), 5u);
  t1.commit();
  EXPECT_GT(backend.aggregate_stats().extensions, 0u);
}

}  // namespace
}  // namespace shrinktm
