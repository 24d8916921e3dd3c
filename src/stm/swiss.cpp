#include "stm/swiss.hpp"

namespace shrinktm::stm {

SwissBackend::SwissBackend(StmConfig cfg) : BackendCore(cfg) {}

SwissBackend::~SwissBackend() = default;

bool SwissBackend::is_write_locked_by_other(const void* addr, int self_tid) const {
  auto& o = const_cast<SwissBackend*>(this)->orec_of(addr);
  const std::uint64_t w = o.wlock.load(std::memory_order_acquire);
  if (w == 0) return false;
  return SwissTx::owner_of(w)->tid() != self_tid;
}

bool SwissTx::validate(bool during_commit) {
  for (const auto& e : read_set_) {
    util::Backoff backoff(backend_.config().wait_policy);
    for (;;) {
      const std::uint64_t v = e.orec->rver.load(std::memory_order_acquire);
      if (v == e.version) break;
      if ((v & 1) != 0) {
        // A committer is writing back.  If it is us (commit-time marker on
        // an orec we both read and wrote), compare against the frozen
        // pre-lock version.
        const std::uint64_t w = e.orec->wlock.load(std::memory_order_acquire);
        if (w != 0 && owner_of(w) == this) {
          if (prior_of(e.orec) == e.version) break;
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
  util::Backoff backoff(backend_.config().wait_policy);
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
  util::Backoff backoff(backend_.config().wait_policy);
  const std::uint64_t enemy_word = o.wlock.load(std::memory_order_acquire);
  for (unsigned i = 0; i < backend_.config().kill_wait_pauses; ++i) {
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
      wlog_.size() >= backend_.config().greedy_write_threshold) {
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
  // A failed validation dies through roll_back_locks(), which restores
  // the pre-lock versions the markers replaced.
  if (wv != rv_ + 1 && !validate(/*during_commit=*/true))
    die(AbortReason::kValidation, -1);
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
  if (backend_.wait_table().armed()) {
    for (const auto& lo : locked_orecs_) backend_.wait_table().mark(lo.orec);
    backend_.wait_table().publish();
  }
  finish(true);
}

void SwissTx::release_write_locks() {
  for (const auto& lo : locked_orecs_) {
    lo.orec->wlock.store(0, std::memory_order_release);
  }
}

void SwissTx::roll_back_locks() {
  if (commit_locking_) {
    for (const auto& lo : locked_orecs_) {
      lo.orec->rver.store(lo.prior, std::memory_order_release);
    }
    commit_locking_ = false;
  }
  release_write_locks();
}

}  // namespace shrinktm::stm
