#include "stm/swiss.hpp"

#include <cassert>
#include <chrono>
#include <stdexcept>

namespace shrinktm::stm {

SwissBackend::SwissBackend(StmConfig cfg)
    : cfg_(cfg),
      log2_orecs_(cfg.log2_orecs),
      orec_mask_((std::uint64_t{1} << cfg.log2_orecs) - 1),
      orecs_(std::size_t{1} << cfg.log2_orecs),
      wait_table_(WaitTableConfig{cfg.log2_wait_buckets, cfg.retry_spin_pauses,
                                  cfg.retry_force_condvar}),
      descs_(cfg.max_threads) {}

SwissBackend::~SwissBackend() = default;

SwissTx& SwissBackend::tx(int tid) {
  assert(tid >= 0 && static_cast<std::size_t>(tid) < cfg_.max_threads);
  if (descs_[tid]) return *descs_[tid];
  std::lock_guard<std::mutex> g(reg_mutex_);
  if (!descs_[tid]) descs_[tid] = std::make_unique<SwissTx>(*this, tid);
  return *descs_[tid];
}

bool SwissBackend::is_write_locked_by_other(const void* addr, int self_tid) const {
  auto& o = const_cast<SwissBackend*>(this)->orec_of(addr);
  const std::uint64_t w = o.wlock.load(std::memory_order_acquire);
  if (w == 0) return false;
  return SwissTx::owner_of(w)->tid() != self_tid;
}

ThreadStats SwissBackend::aggregate_stats() const {
  std::lock_guard<std::mutex> g(reg_mutex_);
  ThreadStats total;
  for (const auto& d : descs_)
    if (d) total += d->stats();
  return total;
}

std::vector<std::pair<int, ThreadStats>> SwissBackend::per_thread_stats() const {
  std::lock_guard<std::mutex> g(reg_mutex_);
  std::vector<std::pair<int, ThreadStats>> out;
  for (std::size_t t = 0; t < descs_.size(); ++t)
    if (descs_[t]) out.emplace_back(static_cast<int>(t), descs_[t]->stats());
  return out;
}

void SwissBackend::reset_stats() {
  std::lock_guard<std::mutex> g(reg_mutex_);
  for (auto& d : descs_)
    if (d) d->stats() = ThreadStats{};
  // Keep the wakeup-table counters in phase with the per-thread retry
  // counters they are reported alongside.
  wait_table_.reset_counters();
}

SwissTx::SwissTx(SwissBackend& backend, int tid)
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

SwissTx::~SwissTx() { backend_.reclaimer().unregister_thread(epoch_slot_); }

void SwissTx::set_scheduler(SchedulerHooks* hooks) {
  sched_ = hooks;
  read_hook_ = hooks != nullptr && hooks->wants_read_hook();
  write_hook_ = hooks != nullptr && hooks->wants_write_hook();
}

void SwissTx::start() {
  assert(!active_ && "nested transactions are not supported (flatten them)");
  active_ = true;
  ++stats_.attempts;
  if (sched_ != nullptr)
    read_hook_ = sched_->wants_read_hook() && sched_->read_hook_active(tid_);
  commit_locking_ = false;
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

void SwissTx::check_killed() {
  if (status_.load(std::memory_order_acquire) == kKilled)
    die(AbortReason::kKilled, killer_tid_.load(std::memory_order_relaxed));
}

std::uint64_t SwissTx::self_locked_rver(const Orec* o) const {
  for (const auto& lo : locked_orecs_)
    if (lo.orec == o) return lo.prelock_rver;
  return ~std::uint64_t{0};
}

bool SwissTx::validate(bool during_commit) {
  for (const auto& e : read_set_) {
    util::Backoff backoff(backend_.cfg_.wait_policy);
    for (;;) {
      const std::uint64_t v = e.orec->rver.load(std::memory_order_acquire);
      if (v == e.version) break;
      if ((v & 1) != 0) {
        // A committer is writing back.  If it is us (commit-time marker on
        // an orec we both read and wrote), compare against the frozen
        // pre-lock version.
        const std::uint64_t w = e.orec->wlock.load(std::memory_order_acquire);
        if (w != 0 && owner_of(w) == this) {
          if (self_locked_rver(e.orec) == e.version) break;
          return false;
        }
        // Foreign marker.  While merely extending we hold no markers
        // ourselves, so waiting cannot deadlock; during commit two
        // validating committers could wait on each other's markers, so we
        // conservatively fail instead.
        if (during_commit) return false;
        check_killed();
        backoff.pause();
        continue;
      }
      return false;  // version moved: someone committed a write we read
    }
  }
  return true;
}

void SwissTx::extend_or_die() {
  const std::uint64_t now = backend_.clock().now();
  if (!validate(/*during_commit=*/false)) die(AbortReason::kValidation, -1);
  rv_ = now;
  ++stats_.extensions;
}

Word SwissTx::load(const Word* addr) {
  ++stats_.reads;
  check_killed();
  // Hash-once invariant: the hook hash is computed here, exactly once per
  // read event, and reused by every predictor probe downstream.
  if (read_hook_) sched_->on_read(tid_, addr, util::hash_ptr(addr));

  if (const auto* e = wlog_.find(addr)) return e->value;  // read-after-write

  Orec& o = backend_.orec_of(addr);
  const std::uint64_t w = o.wlock.load(std::memory_order_acquire);
  if (w != 0 && owner_of(w) == this) {
    // We write-locked this orec for a colliding address; memory is frozen.
    return raw_load(addr);
  }
  // Lazy read/write detection: a write lock held by another transaction
  // does NOT abort us -- we read the last committed value under the
  // rver seqlock and validate at commit.
  util::Backoff backoff(backend_.cfg_.wait_policy);
  for (;;) {
    const std::uint64_t v1 = o.rver.load(std::memory_order_acquire);
    if ((v1 & 1) != 0) {  // commit write-back in progress; short wait
      check_killed();
      backoff.pause();
      continue;
    }
    const Word val = raw_load(addr);
    const std::uint64_t v2 = o.rver.load(std::memory_order_acquire);
    if (v1 != v2) continue;
    // Enter the read set before extending, so the extension's validate()
    // also re-checks this read against commits that raced the seqlock.
    read_set_.push_back({&o, v1});
    if ((v1 >> 1) > rv_) extend_or_die();
    return val;
  }
}

void SwissTx::resolve_write_conflict(Orec& o, SwissTx* enemy) {
  const int enemy_tid = enemy->tid();
  // Phase 1 (timid): without a greedy ticket, abort self and back off.
  const std::uint64_t my_ticket = ticket_.load(std::memory_order_relaxed);
  if (my_ticket == kNoTicket) die(AbortReason::kWriteConflict, enemy_tid);
  const std::uint64_t enemy_ticket = enemy->greedy_ticket();
  if (enemy_ticket != kNoTicket && enemy_ticket < my_ticket) {
    // Enemy is older: greedy says it wins.
    die(AbortReason::kWriteConflict, enemy_tid);
  }
  // We win: kill the enemy and wait (bounded) for it to release the lock.
  enemy->request_kill(tid_);
  ++stats_.kills_issued;
  util::Backoff backoff(backend_.cfg_.wait_policy);
  const std::uint64_t enemy_word = o.wlock.load(std::memory_order_acquire);
  for (unsigned i = 0; i < backend_.cfg_.kill_wait_pauses; ++i) {
    if (o.wlock.load(std::memory_order_acquire) != enemy_word) return;
    check_killed();
    backoff.pause();
  }
  // The enemy never noticed (e.g. descheduled); give up rather than spin
  // forever holding our own locks.
  die(AbortReason::kWriteConflict, enemy_tid);
}

void SwissTx::store(Word* addr, Word value) {
  ++stats_.writes;
  check_killed();
  if (write_hook_) sched_->on_write(tid_, addr);

  // One index probe serves both the write-after-write hit and, via the slot
  // hint, the subsequent append on a miss.
  const auto hit = wlog_.find_or_slot(addr);
  if (hit.entry != nullptr) {
    hit.entry->value = value;
    return;
  }
  Orec& o = backend_.orec_of(addr);
  for (;;) {
    std::uint64_t w = o.wlock.load(std::memory_order_acquire);
    if (w != 0) {
      if (owner_of(w) == this) break;
      resolve_write_conflict(o, owner_of(w));  // throws or waits
      continue;
    }
    if (o.wlock.compare_exchange_weak(w, my_lock_word(), std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      // rver is frozen from now until our commit: only the wlock owner may
      // change it.
      locked_orecs_.push_back({&o, o.rver.load(std::memory_order_acquire)});
      break;
    }
  }
  wlog_.append_at(hit.slot, addr, value, &o, 0);
  // Phase 2 of the CM: past the write threshold, acquire a greedy ticket
  // (kept across retries, so starved transactions age and eventually win).
  if (ticket_.load(std::memory_order_relaxed) == kNoTicket &&
      wlog_.size() >= backend_.cfg_.greedy_write_threshold) {
    ticket_.store(backend_.greedy_counter_.fetch_add(1, std::memory_order_acq_rel),
                  std::memory_order_release);
  }
}

void SwissTx::commit() {
  check_killed();
  if (wlog_.empty()) {
    finish(true);
    return;
  }
  // Commit-lock written orecs (rver marker) so readers see a consistent
  // pre/post boundary, then validate reads, write back, publish versions.
  commit_locking_ = true;
  for (const auto& lo : locked_orecs_) {
    lo.orec->rver.store(SwissBackend::kCommitMarker, std::memory_order_release);
  }
  const std::uint64_t wv = backend_.clock().tick();
  if (wv != rv_ + 1 && !validate(/*during_commit=*/true)) {
    for (const auto& lo : locked_orecs_) {
      lo.orec->rver.store(lo.prelock_rver, std::memory_order_release);
    }
    commit_locking_ = false;
    die(AbortReason::kValidation, -1);
  }
  for (const auto& e : wlog_.entries()) raw_store(e.addr, e.value);
  const std::uint64_t new_rver = wv << 1;
  for (const auto& lo : locked_orecs_) {
    lo.orec->rver.store(new_rver, std::memory_order_release);
  }
  release_write_locks();
  commit_locking_ = false;
  ticket_.store(kNoTicket, std::memory_order_release);  // greedy: tx finished
  // Composable blocking: versions are published and locks dropped, so a
  // woken tx.retry() sleeper re-reads committed data.  armed() carries the
  // lost-wakeup fence; with no waiters this is fence + load.
  if (backend_.wait_table_.armed()) {
    for (const auto& lo : locked_orecs_) backend_.wait_table_.mark(lo.orec);
    backend_.wait_table_.publish();
  }
  finish(true);
}

void* SwissTx::tx_alloc(std::size_t bytes) {
  void* p = ::operator new(bytes);
  allocs_.push_back(p);
  return p;
}

void SwissTx::tx_free(void* p) { frees_.push_back(p); }

void SwissTx::restart() { die(AbortReason::kExplicit, -1); }

void SwissTx::cancel() {
  ++stats_.cancels;
  finish(false);
}

void SwissTx::retry_wait(std::int64_t timeout_ns) {
  assert(active_ && "retry_wait outside a transaction");
  WaitTable& wt = backend_.wait_table_;
  ++stats_.retry_waits;
  // Register before capture/validate -- the lost-wakeup protocol of
  // stm/wakeup.hpp (mirrors TinyTx::retry_wait).
  wt.register_waiter();
  wait_set_.clear();
  for (const auto& e : read_set_) wait_set_.push_back(wt.capture(e.orec));
  finish(false);
  if (wait_set_.empty()) {
    wt.unregister_waiter();
    throw std::logic_error(
        "tx.retry(): the attempt read nothing, so no commit could ever wake "
        "it -- read the condition variables before retrying");
  }
  if (validate(/*during_commit=*/false)) {
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

void SwissTx::request_kill(int killer_tid) {
  killer_tid_.store(killer_tid, std::memory_order_relaxed);
  std::uint32_t expected = kRunning;
  status_.compare_exchange_strong(expected, kKilled, std::memory_order_acq_rel);
}

void SwissTx::release_write_locks() {
  for (const auto& lo : locked_orecs_) {
    lo.orec->wlock.store(0, std::memory_order_release);
  }
}

void SwissTx::finish(bool committed) {
  if (committed) {
    ++stats_.commits;
    for (void* p : frees_) backend_.reclaimer().retire_delete(epoch_slot_, p);
  } else {
    if (commit_locking_) {
      for (const auto& lo : locked_orecs_) {
        lo.orec->rver.store(lo.prelock_rver, std::memory_order_release);
      }
      commit_locking_ = false;
    }
    release_write_locks();
    wlog_.collect_addrs(last_write_addrs_);
    for (void* p : allocs_) ::operator delete(p);
  }
  allocs_.clear();
  frees_.clear();
  backend_.reclaimer().unpin(epoch_slot_);
  status_.store(kIdle, std::memory_order_release);
  active_ = false;
}

void SwissTx::die(AbortReason reason, int enemy_tid) {
  stats_.record_abort(reason);
  finish(false);
  throw TxConflict(reason, enemy_tid);
}

}  // namespace shrinktm::stm
