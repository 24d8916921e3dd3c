#include "stm/tiny.hpp"

#include <cassert>
#include <chrono>
#include <new>
#include <stdexcept>

namespace shrinktm::stm {

const char* abort_reason_name(AbortReason r) {
  switch (r) {
    case AbortReason::kReadConflict: return "read-conflict";
    case AbortReason::kWriteConflict: return "write-conflict";
    case AbortReason::kValidation: return "validation";
    case AbortReason::kKilled: return "killed";
    case AbortReason::kExplicit: return "explicit";
    default: return "?";
  }
}

TinyBackend::TinyBackend(StmConfig cfg)
    : cfg_(cfg),
      log2_orecs_(cfg.log2_orecs),
      orec_mask_((std::uint64_t{1} << cfg.log2_orecs) - 1),
      orecs_(std::size_t{1} << cfg.log2_orecs),
      wait_table_(WaitTableConfig{cfg.log2_wait_buckets, cfg.retry_spin_pauses,
                                  cfg.retry_force_condvar}),
      descs_(cfg.max_threads) {}

TinyBackend::~TinyBackend() = default;

TinyTx& TinyBackend::tx(int tid) {
  assert(tid >= 0 && static_cast<std::size_t>(tid) < cfg_.max_threads);
  // Fast path: descriptor already created by this thread earlier.
  if (descs_[tid]) return *descs_[tid];
  std::lock_guard<std::mutex> g(reg_mutex_);
  if (!descs_[tid]) descs_[tid] = std::make_unique<TinyTx>(*this, tid);
  return *descs_[tid];
}

bool TinyBackend::is_write_locked_by_other(const void* addr, int self_tid) const {
  auto& self = const_cast<TinyBackend*>(this)->orec_of(addr);
  const std::uint64_t w = self.word.load(std::memory_order_acquire);
  if ((w & 1) == 0) return false;
  const TinyTx* owner = TinyTx::owner_of(w);
  return owner->tid() != self_tid;
}

ThreadStats TinyBackend::aggregate_stats() const {
  std::lock_guard<std::mutex> g(reg_mutex_);
  ThreadStats total;
  for (const auto& d : descs_)
    if (d) total += d->stats();
  return total;
}

std::vector<std::pair<int, ThreadStats>> TinyBackend::per_thread_stats() const {
  std::lock_guard<std::mutex> g(reg_mutex_);
  std::vector<std::pair<int, ThreadStats>> out;
  for (std::size_t t = 0; t < descs_.size(); ++t)
    if (descs_[t]) out.emplace_back(static_cast<int>(t), descs_[t]->stats());
  return out;
}

void TinyBackend::reset_stats() {
  std::lock_guard<std::mutex> g(reg_mutex_);
  for (auto& d : descs_)
    if (d) d->stats() = ThreadStats{};
  // Keep the wakeup-table counters in phase with the per-thread retry
  // counters they are reported alongside.
  wait_table_.reset_counters();
}

TinyTx::TinyTx(TinyBackend& backend, int tid)
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

TinyTx::~TinyTx() { backend_.reclaimer().unregister_thread(epoch_slot_); }

void TinyTx::set_scheduler(SchedulerHooks* hooks) {
  sched_ = hooks;
  read_hook_ = hooks != nullptr && hooks->wants_read_hook();
  write_hook_ = hooks != nullptr && hooks->wants_write_hook();
}

void TinyTx::start() {
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

void TinyTx::check_killed() {
  if (status_.load(std::memory_order_acquire) == kKilled)
    die(AbortReason::kKilled, killer_tid_.load(std::memory_order_relaxed));
}

std::uint64_t TinyTx::self_locked_version(const Orec* o) const {
  for (const auto& lo : locked_orecs_)
    if (lo.orec == o) return lo.old_word;
  return ~std::uint64_t{0};  // not ours: caller treats as validation failure
}

bool TinyTx::validate() const {
  for (const auto& e : read_set_) {
    const std::uint64_t w = e.orec->word.load(std::memory_order_acquire);
    if (w == e.version) continue;
    if ((w & 1) != 0 && owner_of(w) == this &&
        self_locked_version(e.orec) == e.version)
      continue;
    return false;
  }
  return true;
}

void TinyTx::extend_or_die() {
  const std::uint64_t now = backend_.clock().now();
  if (!validate()) die(AbortReason::kValidation, -1);
  rv_ = now;
  ++stats_.extensions;
}

Word TinyTx::load(const Word* addr) {
  ++stats_.reads;
  check_killed();
  // Hash-once invariant: the hook hash is computed here, exactly once per
  // read event, and reused by every predictor probe downstream.
  if (read_hook_) sched_->on_read(tid_, addr, util::hash_ptr(addr));

  Orec& o = backend_.orec_of(addr);
  std::uint64_t v = o.word.load(std::memory_order_acquire);
  for (;;) {
    if ((v & 1) != 0) {
      if (owner_of(v) == this) {
        // We hold the lock (possibly for a colliding address): the redo log
        // has the speculative value if we wrote this address.
        if (const auto* e = wlog_.find(addr)) return e->value;
        return raw_load(addr);
      }
      // Encounter-time conflict, suicide CM: abort self immediately.
      die(AbortReason::kReadConflict, owner_of(v)->tid());
    }
    const Word val = raw_load(addr);
    const std::uint64_t v2 = o.word.load(std::memory_order_acquire);
    if (v2 == v) {
      // Enter the read set before extending, so the extension's validate()
      // also re-checks this read against commits that raced the seqlock.
      read_set_.push_back({&o, v});
      if ((v >> 1) > rv_) extend_or_die();
      return val;
    }
    v = v2;  // raced with a committer; re-examine
  }
}

void TinyTx::store(Word* addr, Word value) {
  ++stats_.writes;
  check_killed();
  if (write_hook_) sched_->on_write(tid_, addr);

  // One index probe serves both the write-after-write hit and, via the slot
  // hint, the subsequent append on a miss.
  const auto hit = wlog_.find_or_slot(addr);
  if (hit.entry != nullptr) {  // write-after-write: update the log
    hit.entry->value = value;
    return;
  }
  Orec& o = backend_.orec_of(addr);
  std::uint64_t v = o.word.load(std::memory_order_acquire);
  for (;;) {
    if ((v & 1) != 0) {
      if (owner_of(v) == this) break;  // own lock via a colliding address
      die(AbortReason::kWriteConflict, owner_of(v)->tid());
    }
    // Keep the snapshot consistent before taking the lock, so the redo log
    // never mixes values from different snapshots.
    if ((v >> 1) > rv_) extend_or_die();
    if (o.word.compare_exchange_weak(v, my_lock_word(), std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      locked_orecs_.push_back({&o, v});
      break;
    }
  }
  wlog_.append_at(hit.slot, addr, value, &o, 0);
}

void TinyTx::commit() {
  check_killed();
  if (wlog_.empty()) {  // read-only: the snapshot is consistent by LSA
    finish(true);
    return;
  }
  const std::uint64_t wv = backend_.clock().tick();
  // If no other writer committed since our snapshot, validation is vacuous.
  if (wv != rv_ + 1 && !validate()) die(AbortReason::kValidation, -1);
  for (const auto& e : wlog_.entries()) raw_store(e.addr, e.value);
  const std::uint64_t new_word = wv << 1;
  for (const auto& lo : locked_orecs_) {
    lo.orec->word.store(new_word, std::memory_order_release);
  }
  // Composable blocking: after the versions are published (so a woken
  // sleeper re-reads committed data), wake tx.retry() waiters whose read
  // set overlaps this write set.  armed() carries the fence of the
  // lost-wakeup protocol; with no waiters the whole block is fence + load.
  if (backend_.wait_table_.armed()) {
    for (const auto& lo : locked_orecs_) backend_.wait_table_.mark(lo.orec);
    backend_.wait_table_.publish();
  }
  finish(true);
}

void* TinyTx::tx_alloc(std::size_t bytes) {
  void* p = ::operator new(bytes);
  allocs_.push_back(p);
  return p;
}

void TinyTx::tx_free(void* p) { frees_.push_back(p); }

void TinyTx::restart() { die(AbortReason::kExplicit, -1); }

void TinyTx::cancel() {
  ++stats_.cancels;
  finish(false);
}

void TinyTx::retry_wait(std::int64_t timeout_ns) {
  assert(active_ && "retry_wait outside a transaction");
  WaitTable& wt = backend_.wait_table_;
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
  if (validate()) {
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

void TinyTx::request_kill(int killer_tid) {
  killer_tid_.store(killer_tid, std::memory_order_relaxed);
  std::uint32_t expected = kRunning;
  status_.compare_exchange_strong(expected, kKilled, std::memory_order_acq_rel);
}

void TinyTx::release_locks_to_old() {
  for (const auto& lo : locked_orecs_) {
    lo.orec->word.store(lo.old_word, std::memory_order_release);
  }
}

void TinyTx::finish(bool committed) {
  if (committed) {
    ++stats_.commits;
    for (void* p : frees_) backend_.reclaimer().retire_delete(epoch_slot_, p);
    allocs_.clear();
    frees_.clear();
  } else {
    release_locks_to_old();
    wlog_.collect_addrs(last_write_addrs_);
    for (void* p : allocs_) ::operator delete(p);
    allocs_.clear();
    frees_.clear();
  }
  backend_.reclaimer().unpin(epoch_slot_);
  status_.store(kIdle, std::memory_order_release);
  active_ = false;
}

void TinyTx::die(AbortReason reason, int enemy_tid) {
  stats_.record_abort(reason);
  finish(false);
  throw TxConflict(reason, enemy_tid);
}

}  // namespace shrinktm::stm
