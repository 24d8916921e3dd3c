// The benchmark's three closed-loop workloads.  Each one owns an
// api::Runtime and its data set and provides:
//
//   struct Worker               per-worker state: its RNG and its tally of
//                               what its committed operations did
//   setup(cfg) / teardown()     build / destroy the runtime and data set
//   runtime()
//   op(runner, worker)          one operation; false when it failed
//   begin_measure(workers, out) at the quiescent point after warm-up: check
//                               the warm-up, then restart the tallies so
//                               that check() covers the measured phase only
//   check(workers, out)         after the run: compare the program's state
//                               with the workers' tallies
//
// Why these three is recorded in README.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/shrinktm.hpp"
#include "checks.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "workloads/stmbench7.hpp"

namespace perfbench {

namespace api = shrinktm::api;
namespace core = shrinktm::core;

struct SetupConfig {
  std::uint64_t seed = 1;
  bool trace = false;
  std::string work_dir;  ///< where ledger-durable keeps its log directories
  int index = 0;         ///< which of the repeated set-ups this is
};

/// What the checks found.  `failed` counts measured operations the checks
/// proved wrong, ledger legs that are off among them; hotspot-rmw's P0
/// counts are reported apart (see README.md).  The counts cover the
/// measured phase; the warm_* ones the warm-up before it.
struct CheckResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t failed = 0;
  std::uint64_t torn_ops = 0;
  std::uint64_t lost_increments = 0;
  std::uint64_t legs_off = 0;
  std::uint64_t warm_torn_ops = 0;
  std::uint64_t warm_lost_increments = 0;
  std::uint64_t warm_legs_off = 0;
  double recover_us_per_record = 0.0;
};

// ------------------------------------------------------------------ sb7-rw

class Sb7Rw {
 public:
  struct Worker {
    explicit Worker(std::uint64_t seed) : rng(seed) {}
    shrinktm::util::Xoshiro256 rng;
  };

  ~Sb7Rw() { teardown(); }

  void setup(const SetupConfig& c) {
    rt_ = std::make_unique<api::Runtime>(
        api::RuntimeOptions{}
            .with_backend(core::BackendKind::kTiny)
            .with_scheduler(core::SchedulerKind::kShrink)
            .with_seed(c.seed)
            .with_track_accuracy(c.trace));
    shrinktm::workloads::Sb7Config cfg;
    cfg.mix = shrinktm::workloads::Sb7Mix::kReadWrite;
    cfg.seed = c.seed;
    bench_ = std::make_unique<shrinktm::workloads::StmBench7>(cfg);
    api::ThreadHandle h = rt_->attach();
    bench_->setup(h);
  }

  void teardown() {
    bench_.reset();  // frees parts before the runtime that allocated them
    rt_.reset();
  }

  api::Runtime& runtime() { return *rt_; }

  bool op(SpanRunner& r, Worker& w) {
    try {
      bench_->op(r, r.tid(), w.rng);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  void begin_measure(const std::vector<Worker*>&, CheckResult&) {}

  void check(const std::vector<Worker*>&, CheckResult& out) {
    // Rbtree invariants, equal index sizes, live parts == indexed parts.
    try {
      api::ThreadHandle h = rt_->attach();
      bench_->verify(h);
    } catch (const std::exception& e) {
      out.correct = false;
      out.errors.push_back(e.what());
    }
  }

 private:
  std::unique_ptr<api::Runtime> rt_;
  std::unique_ptr<shrinktm::workloads::StmBench7> bench_;
};

// ------------------------------------------------------------- hotspot-rmw

class HotspotRmw {
 public:
  static constexpr std::size_t kRecords = std::size_t{1} << 20;
  static constexpr std::size_t kHot = 8;
  static constexpr std::size_t kScan = 32;

  struct Worker {
    explicit Worker(std::uint64_t seed) : rng(seed), tally(kRecords, 0) {}
    shrinktm::util::Xoshiro256 rng;
    std::vector<std::uint32_t> tally;  ///< committed updates per record
    std::uint64_t torn_ops = 0;
  };

  ~HotspotRmw() { teardown(); }

  void setup(const SetupConfig& c) {
    rt_ = std::make_unique<api::Runtime>(
        api::RuntimeOptions{}
            .with_backend(core::BackendKind::kSwiss)
            .with_scheduler(core::SchedulerKind::kNone)
            .with_seed(c.seed));
    recs_.reset(new api::Shared<Rec>[kRecords]);
    base_.assign(kRecords, 0);
    shrinktm::util::Xoshiro256 rng(c.seed);
    for (std::size_t i = 0; i < kRecords; ++i) {
      const std::uint64_t v = rng.next() >> 24;  // headroom for increments
      base_[i] = v;
      recs_[i].unsafe_write(Rec{{v, v, v, v}});
    }
    hot_.clear();
    while (hot_.size() < kHot) {
      const std::size_t k = rng.next_below(kRecords);
      bool dup = false;
      for (std::size_t h : hot_) dup |= h == k;
      if (!dup) hot_.push_back(k);
    }
  }

  void teardown() {
    recs_.reset();
    rt_.reset();
  }

  api::Runtime& runtime() { return *rt_; }

  bool op(SpanRunner& r, Worker& w) {
    const std::uint64_t kind = w.rng.next_below(10);
    std::size_t k = key(w.rng);
    bool saw_torn = false;
    if (kind < 5) {  // update: read all four words, write value+1 to all four
      api::Shared<Rec>& cell = recs_[k];
      saw_torn = r.run([&](api::Tx& tx) {
        const Rec v = cell.read(tx);
        const std::uint64_t n = v.w[0] + 1;
        cell.write(tx, Rec{{n, n, n, n}});
        return torn(v);
      });
      ++w.tally[k];
    } else if (kind < 9) {  // point read
      const api::Shared<Rec>& cell = recs_[k];
      saw_torn = r.run([&](api::Tx& tx) { return torn(cell.read(tx)); });
    } else {  // scan of kScan consecutive records
      if (k > kRecords - kScan) k = kRecords - kScan;
      saw_torn = r.run([&](api::Tx& tx) {
        bool any = false;
        for (std::size_t i = k; i < k + kScan; ++i) any |= torn(recs_[i].read(tx));
        return any;
      });
    }
    w.torn_ops += saw_torn ? 1 : 0;
    return true;
  }

  void begin_measure(const std::vector<Worker*>& ws, CheckResult& out) {
    tally_anomalies(ws, out.warm_torn_ops, out.warm_lost_increments);
    // The measured phase is checked against the records as they are now.
    for (std::size_t i = 0; i < kRecords; ++i) base_[i] = recs_[i].unsafe_read().w[0];
    for (Worker* w : ws) {
      std::fill(w->tally.begin(), w->tally.end(), 0);
      w->torn_ops = 0;
    }
  }

  void check(const std::vector<Worker*>& ws, CheckResult& out) {
    tally_anomalies(ws, out.torn_ops, out.lost_increments);
  }

 private:
  /// Torn operations the workers saw, and increments missing from the
  /// records against base_ plus the workers' tallies.
  void tally_anomalies(const std::vector<Worker*>& ws, std::uint64_t& torn_ops,
                       std::uint64_t& lost) const {
    std::vector<const std::vector<std::uint32_t>*> tallies;
    for (const Worker* w : ws) {
      tallies.push_back(&w->tally);
      torn_ops += w->torn_ops;
    }
    lost = lost_increments(
        kRecords, [&](std::size_t i) { return recs_[i].unsafe_read(); }, base_,
        tallies);
  }

  /// 9 in 10 operations go to one of the kHot hot records.
  std::size_t key(shrinktm::util::Xoshiro256& rng) const {
    if (rng.next_below(10) < 9) return hot_[rng.next_below(kHot)];
    return rng.next_below(kRecords);
  }

  std::unique_ptr<api::Runtime> rt_;
  std::unique_ptr<api::Shared<Rec>[]> recs_;
  /// Every record's value when the tallies started: the data set's at
  /// set-up, the records' own at the start of the measured phase.
  std::vector<std::uint64_t> base_;
  std::vector<std::size_t> hot_;
};

// ---------------------------------------------------------- ledger-durable

class LedgerDurable {
 public:
  static constexpr std::size_t kAccounts = 1024;
  static constexpr std::size_t kFundBatch = 64;  ///< accounts per funding tx

  struct Worker {
    explicit Worker(std::uint64_t seed) : rng(seed), delta(kAccounts, 0) {}
    shrinktm::util::Xoshiro256 rng;
    std::vector<std::int64_t> delta;  ///< committed balance change per account
  };

  ~LedgerDurable() { teardown(); }

  void setup(const SetupConfig& c) {
    dir_ = c.work_dir + "/ledger-" + std::to_string(c.index);
    std::filesystem::remove_all(dir_);
    seed_ = c.seed;
    open();
    base_.assign(kAccounts, 0);
    shrinktm::util::Xoshiro256 rng(c.seed);
    for (auto& b : base_) b = 1000 + static_cast<std::int64_t>(rng.next_below(1'000'000));
    {
      api::ThreadHandle h = rt_->attach();
      for (std::size_t a0 = 0; a0 < kAccounts; a0 += kFundBatch) {
        atomically(h, [&](api::Tx& tx) {
          for (std::size_t a = a0; a < a0 + kFundBatch; ++a)
            account(a).write(tx, base_[a]);
        });
      }
    }
    // Close and reopen once: the data set the run starts from is the one
    // recovered from the funding log.
    rt_.reset();
    open();
    if (restart_mismatches(base_, balances()) != 0)
      throw std::runtime_error("ledger-durable: funding did not survive reopen");
  }

  void teardown() {
    rt_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_.clear();
  }

  api::Runtime& runtime() { return *rt_; }

  bool op(SpanRunner& r, Worker& w) {
    const std::size_t from = w.rng.next_below(kAccounts);
    std::size_t to = w.rng.next_below(kAccounts - 1);
    if (to >= from) ++to;
    const auto src = account(from);
    const auto dst = account(to);
    r.run([&](api::Tx& tx) {
      src.write(tx, src.read(tx) - 1);
      dst.write(tx, dst.read(tx) + 1);
    });
    --w.delta[from];
    ++w.delta[to];
    return true;
  }

  void begin_measure(const std::vector<Worker*>& ws, CheckResult& out) {
    const std::vector<std::int64_t> now = balances();
    out.warm_legs_off = ledger_legs_off(now, base_, deltas(ws));
    if (out.warm_legs_off != 0) {
      // No warm-up operation is in `attempted`, so these cannot be counted
      // as failed; the measured phase starts from a wrong ledger.
      out.correct = false;
      out.errors.push_back(std::to_string(out.warm_legs_off) +
                           " accounts off their tally after the warm-up");
    }
    base_ = now;
    for (Worker* w : ws) std::fill(w->delta.begin(), w->delta.end(), 0);
  }

  void check(const std::vector<Worker*>& ws, CheckResult& out) {
    const std::vector<std::int64_t> before = balances();
    out.legs_off = ledger_legs_off(before, base_, deltas(ws));
    out.failed += out.legs_off;

    // Clean restart: close, reopen on the same directory, read back.
    rt_.reset();
    const std::uint64_t t0 = now_ns();
    open();
    const std::uint64_t t1 = now_ns();
    const std::uint64_t replayed = rt_->recovery_info()->replayed_records;
    out.recover_us_per_record = static_cast<double>(t1 - t0) / 1e3 /
                                static_cast<double>(replayed == 0 ? 1 : replayed);
    out.failed += restart_mismatches(before, balances());
  }

 private:
  /// The log is written but never fsynced (SyncMode::kNone), so commits
  /// do not wait for an acknowledgement.  The fsync latency of a shared
  /// virtual disk moved same-code medians by more than 30 % between sets of
  /// runs; without it the workload measures the program's own durable write
  /// path: redo capture, changelog append, batching, write(2) and, at the
  /// reopen, recovery replay.  With no committer waiting, a linger only
  /// sizes batches, and the default 100 us one made the log writer wake on
  /// every append (README), so the writer here writes whatever is pending
  /// as soon as it wakes.
  void open() {
    rt_ = std::make_unique<api::Runtime>(
        api::RuntimeOptions{}
            .with_log_dir(dir_)
            .with_sync_mode(api::SyncMode::kNone)
            .with_group_commit_interval_us(0)
            .with_scheduler(core::SchedulerKind::kNone)
            .with_seed(seed_));
  }

  api::Slot<std::int64_t> account(std::size_t a) {
    return rt_->durable_region()->slot<std::int64_t>(a);
  }

  static std::vector<const std::vector<std::int64_t>*> deltas(
      const std::vector<Worker*>& ws) {
    std::vector<const std::vector<std::int64_t>*> out;
    for (const Worker* w : ws) out.push_back(&w->delta);
    return out;
  }

  /// Every balance, read at quiescence.
  std::vector<std::int64_t> balances() {
    std::vector<std::int64_t> out(kAccounts);
    for (std::size_t a = 0; a < kAccounts; ++a) out[a] = account(a).unsafe_read();
    return out;
  }

  std::unique_ptr<api::Runtime> rt_;
  std::string dir_;
  std::uint64_t seed_ = 1;
  /// Every balance when the tallies started: the funding, then the
  /// balances at the start of the measured phase.
  std::vector<std::int64_t> base_;
};

}  // namespace perfbench
