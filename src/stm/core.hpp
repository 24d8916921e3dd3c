// The machinery every word-based backend shares, written once.
//
// Two CRTP bases, no virtual calls on the hot path:
//   * BackendCore owns the orec table, the global clock, the tx.retry()
//     wait table, the epoch reclaimer and the per-tid descriptor registry
//     with its statistics walks;
//   * TxCore owns a descriptor's attempt lifecycle: scheduler hooks, remote
//     kill requests, transactional allocation, rollback, cancel, restart,
//     snapshot extension and the tx.retry() park.
// A backend supplies only its concurrency control -- load/store/commit,
// validate(), and roll_back_locks() (what an aborted attempt undoes on the
// orecs it holds).  TinyBackend/TinyTx and SwissBackend/SwissTx are the two
// instantiations; the durable backend is a TinyBackend.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "stm/clock.hpp"
#include "stm/config.hpp"
#include "stm/hooks.hpp"
#include "stm/stats.hpp"
#include "stm/tx_sets.hpp"
#include "stm/wakeup.hpp"
#include "stm/word.hpp"
#include "util/align.hpp"
#include "util/epoch.hpp"

namespace shrinktm::stm {

/// Shared state of a word-based runtime.  `Derived` is the concrete backend
/// handed to each descriptor's constructor.
template <typename Derived, typename TxT, typename OrecT>
class BackendCore : public WriteOracle {
 public:
  using Tx = TxT;
  using Orec = OrecT;

  explicit BackendCore(const StmConfig& cfg)
      : cfg_(cfg),
        log2_orecs_(cfg.log2_orecs),
        orec_mask_((std::uint64_t{1} << cfg.log2_orecs) - 1),
        orecs_(std::size_t{1} << cfg.log2_orecs),
        wait_table_(WaitTableConfig{cfg.log2_wait_buckets, cfg.retry_spin_pauses,
                                    cfg.retry_force_condvar}),
        descs_(cfg.max_threads) {}

  BackendCore(const BackendCore&) = delete;
  BackendCore& operator=(const BackendCore&) = delete;

  /// Descriptor for thread `tid` (created on first use; thread-safe).
  Tx& tx(int tid) {
    assert(tid >= 0 && static_cast<std::size_t>(tid) < cfg_.max_threads);
    // Fast path: descriptor already created by this thread earlier.
    if (descs_[tid]) return *descs_[tid];
    std::lock_guard<std::mutex> g(reg_mutex_);
    if (!descs_[tid])
      descs_[tid] = std::make_unique<Tx>(static_cast<Derived&>(*this), tid);
    return *descs_[tid];
  }

  Orec& orec_of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    return orecs_[((a >> 3) ^ (a >> (3 + log2_orecs_))) & orec_mask_];
  }

  GlobalClock& clock() { return clock_; }
  util::EpochReclaimer& reclaimer() { return reclaimer_; }
  const StmConfig& config() const { return cfg_; }

  /// Composable-blocking rendezvous: writing commits publish their orec set
  /// here; tx.retry() waiters sleep on it (see stm/wakeup.hpp).
  WaitTable& wait_table() { return wait_table_; }
  const WaitTable& wait_table() const { return wait_table_; }

  /// Sum of all registered threads' statistics.
  ThreadStats aggregate_stats() const {
    std::lock_guard<std::mutex> g(reg_mutex_);
    ThreadStats total;
    for (const auto& d : descs_)
      if (d) total += d->stats();
    return total;
  }

  /// Per-tid snapshots for every descriptor created so far, as (tid, stats)
  /// pairs in tid order.  Read while threads run is racy-but-benign (plain
  /// counter loads); read quiescent for exact conservation.
  std::vector<std::pair<int, ThreadStats>> per_thread_stats() const {
    std::lock_guard<std::mutex> g(reg_mutex_);
    std::vector<std::pair<int, ThreadStats>> out;
    for (std::size_t t = 0; t < descs_.size(); ++t)
      if (descs_[t]) out.emplace_back(static_cast<int>(t), descs_[t]->stats());
    return out;
  }

  /// Reset all registered threads' statistics (between measurement phases).
  void reset_stats() {
    std::lock_guard<std::mutex> g(reg_mutex_);
    for (auto& d : descs_)
      if (d) d->stats() = ThreadStats{};
    // Keep the wakeup-table counters in phase with the per-thread retry
    // counters they are reported alongside.
    wait_table_.reset_counters();
  }

 protected:
  StmConfig cfg_;
  unsigned log2_orecs_;
  std::uint64_t orec_mask_;
  std::vector<Orec> orecs_;
  GlobalClock clock_;
  WaitTable wait_table_;
  util::EpochReclaimer reclaimer_;
  mutable std::mutex reg_mutex_;
  std::vector<std::unique_ptr<Tx>> descs_;  ///< after reclaimer_: dies first
};

/// Per-thread transaction descriptor state and lifecycle.  Not thread-safe:
/// exactly one thread drives each descriptor (the usual STM contract).
/// `Derived` provides validate() and roll_back_locks().  Cache-line aligned
/// so the counters one thread bumps on every access never share a line with
/// the next thread's descriptor.
template <typename Derived, typename Backend, typename OrecT>
class alignas(util::kCacheLine) TxCore {
 public:
  using Orec = OrecT;

  TxCore(Backend& backend, int tid)
      : backend_(backend), tid_(tid), epoch_slot_(backend.reclaimer().register_thread()) {
    // Sized for steady-state STMBench7 transactions: once warm, an attempt
    // never reallocates any of its sets (clear() keeps capacity).
    read_set_.reserve(1024);
    locked_orecs_.reserve(256);
    last_write_addrs_.reserve(256);
    wait_set_.reserve(1024);
    allocs_.reserve(16);
    frees_.reserve(16);
  }
  ~TxCore() { backend_.reclaimer().unregister_thread(epoch_slot_); }

  TxCore(const TxCore&) = delete;
  TxCore& operator=(const TxCore&) = delete;

  int tid() const { return tid_; }
  util::WaitPolicy wait_policy() const { return backend_.config().wait_policy; }

  /// Install scheduler callbacks (read hook is cached for the fast path).
  void set_scheduler(SchedulerHooks* hooks) {
    sched_ = hooks;
    read_hook_ = hooks != nullptr && hooks->wants_read_hook();
    write_hook_ = hooks != nullptr && hooks->wants_write_hook();
  }

  void start() {
    assert(!active_ && "nested transactions are not supported (flatten them)");
    active_ = true;
    ++stats_.attempts;
    if (sched_ != nullptr)
      read_hook_ = sched_->wants_read_hook() && sched_->read_hook_active(tid_);
    status_.store(kRunning, std::memory_order_release);
    killer_tid_.store(-1, std::memory_order_relaxed);
    rv_ = backend_.clock().now();
    read_set_.clear();
    wlog_.clear();
    locked_orecs_.clear();
    allocs_.clear();
    frees_.clear();
    backend_.reclaimer().pin(epoch_slot_);
  }

  /// Transactional allocation: undone on abort; frees deferred to commit
  /// and routed through epoch reclamation.
  void* tx_alloc(std::size_t bytes) {
    void* p = ::operator new(bytes);
    allocs_.push_back(p);
    return p;
  }
  void tx_free(void* p) { frees_.push_back(p); }

  /// User-requested restart of the current attempt.
  [[noreturn]] void restart() { die(AbortReason::kExplicit, -1); }

  /// Roll back the current attempt because the user abandoned the
  /// transaction (a non-conflict exception escaped the body).  Counts as a
  /// cancel, not an abort, and does not throw.
  void cancel() {
    ++stats_.cancels;
    finish(false);
  }

  /// tx.retry() service (called by the runner after on_retry_block): rolls
  /// the attempt back as a retry-wait (neither abort nor cancel), arms the
  /// backend's WaitTable with tickets for the attempt's read set, and --
  /// unless a commit already invalidated that read set -- blocks until one
  /// does.  With timeout_ns >= 0 (tx.retry_for) the park is bounded: on
  /// expiry the descriptor returns with retry_timed_out() set (and counts a
  /// retry_timeouts stat) so the re-executed body can observe the timeout.
  /// Throws std::logic_error if the read set is empty (nothing could ever
  /// wake the sleeper).  On return the descriptor is idle and the runner
  /// re-executes the body.
  void retry_wait(std::int64_t timeout_ns = -1) {
    assert(active_ && "retry_wait outside a transaction");
    WaitTable& wt = backend_.wait_table();
    ++stats_.retry_waits;
    // Protocol order (see stm/wakeup.hpp): register BEFORE capturing tickets
    // and re-validating, so a committer that misses our registration is
    // guaranteed visible to the validation below and we rerun instead of
    // sleeping through its wakeup.
    wt.register_waiter();
    wait_set_.clear();
    for (const auto& e : read_set_) wait_set_.push_back(wt.capture(e.orec));
    finish(false);  // release locks, free speculative allocations, go idle
    if (wait_set_.empty()) {
      wt.unregister_waiter();
      throw std::logic_error(
          "tx.retry(): the attempt read nothing, so no commit could ever wake "
          "it -- read the condition variables before retrying");
    }
    // A version moved (or another writer holds a lock) since we read: the
    // wakeup condition may already hold -- rerun immediately, never sleep.
    if (self().validate()) {
      const auto t0 = std::chrono::steady_clock::now();
      const WaitTable::WaitResult wr = wt.wait_for(wait_set_, timeout_ns);
      if (wr.slept) ++stats_.retry_sleeps;
      if (wr.timed_out) {
        ++stats_.retry_timeouts;
        retry_timed_out_ = true;
      }
      stats_.retry_wait_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    wt.unregister_waiter();
  }

  /// Whether the most recent retry_wait() on this descriptor expired its
  /// tx.retry_for bound instead of being woken.  Sticky until the next
  /// top-level transaction (TxRunner::run clears it), so the re-executed
  /// body -- and any conflict-retries of it -- can test api::Tx::timed_out.
  bool retry_timed_out() const { return retry_timed_out_; }
  void clear_retry_timeout() { retry_timed_out_ = false; }

  /// Cooperative remote abort (used by contention managers / tests).
  void request_kill(int killer_tid) {
    killer_tid_.store(killer_tid, std::memory_order_relaxed);
    std::uint32_t expected = kRunning;
    status_.compare_exchange_strong(expected, kKilled, std::memory_order_acq_rel);
  }

  /// Write addresses of the most recently aborted attempt (valid until the
  /// next start()); source of Shrink's write-set prediction.
  std::span<void* const> last_write_addrs() const { return last_write_addrs_; }

  ThreadStats& stats() { return stats_; }
  const ThreadStats& stats() const { return stats_; }
  bool in_tx() const { return active_; }

 protected:
  enum : std::uint32_t { kIdle = 0, kRunning = 1, kKilled = 2 };

  struct LockedOrec {
    Orec* orec;
    /// Tiny: the unlocked orec word to restore on abort.  Swiss: the rver
    /// frozen while we hold the write lock.
    std::uint64_t prior;
  };

  /// Lock words are the owning descriptor's address with the low bit set.
  static Derived* owner_of(std::uint64_t word) {
    return reinterpret_cast<Derived*>(word & ~std::uint64_t{1});
  }
  std::uint64_t my_lock_word() const {
    return reinterpret_cast<std::uint64_t>(static_cast<const Derived*>(this)) | 1;
  }

  /// Our LockedOrec::prior for `o`, or an impossible version if we do not
  /// hold it (callers then treat the read as invalid).
  std::uint64_t prior_of(const Orec* o) const {
    for (const auto& lo : locked_orecs_)
      if (lo.orec == o) return lo.prior;
    return ~std::uint64_t{0};
  }

  void check_killed() {
    if (status_.load(std::memory_order_acquire) == kKilled)
      die(AbortReason::kKilled, killer_tid_.load(std::memory_order_relaxed));
  }

  /// LSA snapshot extension: read the clock, then validate the read set.
  void extend_or_die() {
    const std::uint64_t now = backend_.clock().now();
    if (!self().validate()) die(AbortReason::kValidation, -1);
    rv_ = now;
    ++stats_.extensions;
  }

  [[noreturn]] void die(AbortReason reason, int enemy_tid) {
    stats_.record_abort(reason);
    finish(false);
    throw TxConflict(reason, enemy_tid);
  }

  /// End the attempt: a commit retires deferred frees; a rollback undoes
  /// the backend's locks, keeps the write addresses for Shrink's prediction
  /// and frees speculative allocations.  Either way the descriptor idles.
  void finish(bool committed) {
    if (committed) {
      ++stats_.commits;
      for (void* p : frees_) backend_.reclaimer().retire_delete(epoch_slot_, p);
    } else {
      self().roll_back_locks();
      wlog_.collect_addrs(last_write_addrs_);
      for (void* p : allocs_) ::operator delete(p);
    }
    allocs_.clear();
    frees_.clear();
    backend_.reclaimer().unpin(epoch_slot_);
    status_.store(kIdle, std::memory_order_release);
    active_ = false;
  }

  Derived& self() { return static_cast<Derived&>(*this); }

  Backend& backend_;
  const int tid_;
  const int epoch_slot_;
  SchedulerHooks* sched_ = nullptr;
  bool read_hook_ = false;
  bool write_hook_ = false;
  bool active_ = false;
  bool retry_timed_out_ = false;  ///< last retry_wait expired (tx.retry_for)
  std::uint64_t rv_ = 0;  ///< snapshot (read) version
  std::atomic<std::uint32_t> status_{kIdle};
  std::atomic<int> killer_tid_{-1};

  std::vector<ReadEntry<Orec>> read_set_;
  WriteLog<Orec> wlog_;
  std::vector<LockedOrec> locked_orecs_;
  std::vector<void*> allocs_;
  std::vector<void*> frees_;
  std::vector<void*> last_write_addrs_;
  std::vector<WaitTable::Ticket> wait_set_;  ///< retry_wait() tickets
  ThreadStats stats_;
};

}  // namespace shrinktm::stm
