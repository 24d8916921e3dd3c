#include "stm/tiny.hpp"

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

TinyBackend::TinyBackend(StmConfig cfg) : BackendCore(cfg) {}

TinyBackend::~TinyBackend() = default;

bool TinyBackend::is_write_locked_by_other(const void* addr, int self_tid) const {
  auto& self = const_cast<TinyBackend*>(this)->orec_of(addr);
  const std::uint64_t w = self.word.load(std::memory_order_acquire);
  if ((w & 1) == 0) return false;
  const TinyTx* owner = TinyTx::owner_of(w);
  return owner->tid() != self_tid;
}

bool TinyTx::validate() const {
  for (const auto& e : read_set_) {
    const std::uint64_t w = e.orec->word.load(std::memory_order_acquire);
    if (w == e.version) continue;
    if ((w & 1) != 0 && owner_of(w) == this && prior_of(e.orec) == e.version)
      continue;
    return false;
  }
  return true;
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
  // The durable tail, if any: the shared snapshot gate spans tick,
  // validate, write-back, append and release.  A validation abort unwinds
  // through `gate`, so the die path releases it too.
  CommitLog* const log = backend_.commit_log_;
  std::shared_lock<std::shared_mutex> gate;
  if (log != nullptr) gate = log->enter(tid_);
  const std::uint64_t wv = backend_.clock().tick();
  // If no other writer committed since our snapshot, validation is vacuous.
  if (wv != rv_ + 1 && !validate()) die(AbortReason::kValidation, -1);
  for (const auto& e : wlog_.entries()) raw_store(e.addr, e.value);
  // Append while still holding the write locks: transactions that touch a
  // common word land in the log in commit order.
  const std::uint64_t seq = log != nullptr ? log->append(tid_, wlog_.entries(), wv) : 0;
  const std::uint64_t new_word = wv << 1;
  for (const auto& lo : locked_orecs_) {
    lo.orec->word.store(new_word, std::memory_order_release);
  }
  // Composable blocking: after the versions are published (so a woken
  // sleeper re-reads committed data), wake tx.retry() waiters whose read
  // set overlaps this write set.  armed() carries the fence of the
  // lost-wakeup protocol; with no waiters the whole block is fence + load.
  WaitTable& wt = backend_.wait_table();
  if (wt.armed()) {
    for (const auto& lo : locked_orecs_) wt.mark(lo.orec);
    wt.publish();
  }
  if (gate.owns_lock()) gate.unlock();
  finish(true);
  if (seq != 0) log->wait_durable(tid_, seq);
}

void TinyTx::roll_back_locks() {
  for (const auto& lo : locked_orecs_) {
    lo.orec->word.store(lo.prior, std::memory_order_release);
  }
}

}  // namespace shrinktm::stm
