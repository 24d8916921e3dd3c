#include "durable/backend.hpp"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <stdexcept>

#include "durable/snapshot.hpp"

namespace shrinktm::durable {

namespace {
// Shared with recovery and the replica tailer (durable/log_format.hpp).
constexpr const char* kLogFile = kLogFileName;
constexpr const char* kSnapFile = kSnapFileName;
}  // namespace

DurableBackend::DurableBackend(DurableOptions opts, stm::StmConfig cfg)
    : cfg_(cfg),
      opts_(std::move(opts)),
      log2_orecs_(cfg.log2_orecs),
      orec_mask_((std::uint64_t{1} << cfg.log2_orecs) - 1),
      orecs_(std::size_t{1} << cfg.log2_orecs),
      wait_table_(stm::WaitTableConfig{cfg.log2_wait_buckets,
                                       cfg.retry_spin_pauses,
                                       cfg.retry_force_condvar}),
      region_(opts_.region_words),
      descs_(cfg.max_threads) {
  fault_ = opts_.fault ? opts_.fault : FaultPlan::from_env();
  if (opts_.dir.empty()) {
    // Ephemeral mode: real durability machinery, Runtime-lifetime data.
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "shrinktm-durable-XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("durable backend: mkdtemp failed for " + tmpl);
    dir_ = tmpl;
    ephemeral_ = true;
  } else {
    dir_ = opts_.dir;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      throw std::runtime_error("durable backend: cannot create dir " + dir_ +
                               ": " + ec.message());
    }
  }
  // Claim the directory's next fencing epoch before any durable write: this
  // generation of the leader owns a strictly larger token than every
  // predecessor, and every batch re-checks it (durable/epoch_fence.hpp).
  fence_ = std::make_unique<EpochFence>(dir_);
  fence_->claim();
  recover();
  Changelog::Config lcfg;
  lcfg.path = dir_ + "/" + kLogFile;
  lcfg.group_commit_interval_us = opts_.group_commit_interval_us;
  lcfg.max_batch_records = opts_.max_batch_records;
  lcfg.fsync = opts_.sync != SyncMode::kNone;
  lcfg.fence = fence_.get();
  changelog_ = std::make_unique<Changelog>(std::move(lcfg), fault_);
  if (opts_.snapshot_every_bytes > 0)
    auto_snap_thread_ = std::thread([this] { auto_snapshot_loop(); });
}

DurableBackend::~DurableBackend() {
  if (auto_snap_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> g(auto_snap_mu_);
      auto_snap_stop_ = true;
    }
    auto_snap_cv_.notify_all();
    auto_snap_thread_.join();
  }
  changelog_.reset();  // join the writer thread before anything else dies
  if (ephemeral_) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

void DurableBackend::recover() {
  const std::string snap_path = dir_ + "/" + kSnapFile;
  const std::string log_path = dir_ + "/" + kLogFile;

  const SnapshotLoad snap = load_snapshot(snap_path, region_);
  recovery_.snapshot_loaded = snap.loaded;
  recovery_.snapshot_corrupt = snap.corrupt;
  recovery_.snapshot_ts = snap.last_ts;
  snapshot_ts_ = snap.last_ts;

  // Replay only past the image: records with ts <= snapshot_ts are already
  // reflected in it (the snapshot gate guarantees no commit straddles).
  const Changelog::ScanResult scan = Changelog::replay(
      log_path, snap.last_ts,
      [this](std::uint64_t, const RedoWord* words, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          if (words[i].offset < region_.size())
            *region_.word(words[i].offset) =
                static_cast<stm::Word>(words[i].value);
        }
      });
  recovery_.log_records = scan.records;
  recovery_.replayed_records = scan.replayed;
  recovery_.torn_tail = scan.torn;
  if (scan.torn) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(log_path, ec);
    if (!ec && size > scan.valid_bytes)
      recovery_.torn_bytes_dropped = size - scan.valid_bytes;
    Changelog::truncate_to(log_path, scan.valid_bytes);
  }
  recovery_.last_ts = std::max(snap.last_ts, scan.last_ts);
  // New commits must stamp records past everything already on disk.
  clock_.advance_to(recovery_.last_ts);
}

DurableTx& DurableBackend::tx(int tid) {
  assert(tid >= 0 && static_cast<std::size_t>(tid) < cfg_.max_threads);
  if (descs_[tid]) return *descs_[tid];
  std::lock_guard<std::mutex> g(reg_mutex_);
  if (!descs_[tid]) descs_[tid] = std::make_unique<DurableTx>(*this, tid);
  return *descs_[tid];
}

bool DurableBackend::is_write_locked_by_other(const void* addr,
                                              int self_tid) const {
  auto& self = const_cast<DurableBackend*>(this)->orec_of(addr);
  const std::uint64_t w = self.word.load(std::memory_order_acquire);
  if ((w & 1) == 0) return false;
  return DurableTx::owner_of(w)->tid() != self_tid;
}

stm::ThreadStats DurableBackend::aggregate_stats() const {
  std::lock_guard<std::mutex> g(reg_mutex_);
  stm::ThreadStats total;
  for (const auto& d : descs_)
    if (d) total += d->stats();
  return total;
}

std::vector<std::pair<int, stm::ThreadStats>> DurableBackend::per_thread_stats()
    const {
  std::lock_guard<std::mutex> g(reg_mutex_);
  std::vector<std::pair<int, stm::ThreadStats>> out;
  for (std::size_t t = 0; t < descs_.size(); ++t)
    if (descs_[t]) out.emplace_back(static_cast<int>(t), descs_[t]->stats());
  return out;
}

void DurableBackend::reset_stats() {
  std::lock_guard<std::mutex> g(reg_mutex_);
  for (auto& d : descs_) {
    if (!d) continue;
    d->stats() = stm::ThreadStats{};
    d->ack_hist_ = util::HdrHistogram{};
    d->acks_ = 0;
  }
  wait_table_.reset_counters();
}

std::uint64_t DurableBackend::snapshot() {
  std::unique_lock<std::shared_mutex> gate(commit_gate_);
  // Everything committed so far must be on disk before we can declare the
  // image a superset of the log's prefix and truncate it.  Flush BEFORE
  // taking the fencing lock: the writer thread takes that lock per batch,
  // so the reverse order would deadlock.
  changelog_->flush(-1);
  // Hold the fence across {check, image write, truncate}: without it a
  // promotion landing mid-snapshot would let a deposed leader's truncate
  // wipe records the NEW leader just appended.
  const EpochFence::Hold fence_hold = fence_->hold();
  if (!fence_->still_current_locked()) {
    throw stm::TxDurabilityError(
        -1, "fenced: epoch " + std::to_string(fence_->epoch()) +
                " was superseded; refusing to snapshot a directory this "
                "leader no longer owns");
  }
  const std::uint64_t ts = clock_.now();
  const std::string err =
      write_snapshot(dir_ + "/" + kSnapFile, region_, ts, *fault_);
  if (!err.empty()) throw stm::TxDurabilityError(-1, err);
  if (!changelog_->truncate_all())
    throw stm::TxDurabilityError(-1, changelog_->failure_reason());
  snapshot_ts_ = ts;
  return ts;
}

void DurableBackend::auto_snapshot_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(auto_snap_mu_);
      auto_snap_cv_.wait_for(lk, std::chrono::milliseconds(10),
                             [&] { return auto_snap_stop_; });
      if (auto_snap_stop_) return;
    }
    std::error_code ec;
    const auto size = std::filesystem::file_size(dir_ + "/" + kLogFile, ec);
    if (ec || size < opts_.snapshot_every_bytes) continue;
    try {
      snapshot();
      auto_snapshots_.fetch_add(1, std::memory_order_relaxed);
    } catch (const stm::TxDurabilityError&) {
      // Fail-stop: the log is poisoned (commits are already failing loudly)
      // or the image write failed with the log intact.  Either way, stop
      // the cadence; the last durable snapshot stays valid.
      return;
    }
  }
}

std::pair<util::HdrHistogram, std::uint64_t> DurableBackend::ack_histogram()
    const {
  std::lock_guard<std::mutex> g(reg_mutex_);
  util::HdrHistogram hist;
  std::uint64_t acks = 0;
  for (const auto& d : descs_) {
    if (!d) continue;
    hist.merge(d->ack_hist());
    acks += d->acks();
  }
  return {hist, acks};
}

DurableTx::DurableTx(DurableBackend& backend, int tid)
    : backend_(backend),
      tid_(tid),
      epoch_slot_(backend.reclaimer().register_thread()) {
  read_set_.reserve(1024);
  locked_orecs_.reserve(256);
  last_write_addrs_.reserve(256);
  wait_set_.reserve(1024);
  redo_.reserve(256);
  allocs_.reserve(16);
  frees_.reserve(16);
}

DurableTx::~DurableTx() {
  backend_.reclaimer().unregister_thread(epoch_slot_);
}

void DurableTx::set_scheduler(stm::SchedulerHooks* hooks) {
  sched_ = hooks;
  read_hook_ = hooks != nullptr && hooks->wants_read_hook();
  write_hook_ = hooks != nullptr && hooks->wants_write_hook();
}

void DurableTx::start() {
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

void DurableTx::check_killed() {
  if (status_.load(std::memory_order_acquire) == kKilled)
    die(stm::AbortReason::kKilled, killer_tid_.load(std::memory_order_relaxed));
}

std::uint64_t DurableTx::self_locked_version(const Orec* o) const {
  for (const auto& lo : locked_orecs_)
    if (lo.orec == o) return lo.old_word;
  return ~std::uint64_t{0};
}

bool DurableTx::validate() const {
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

void DurableTx::extend_or_die() {
  const std::uint64_t now = backend_.clock().now();
  if (!validate()) die(stm::AbortReason::kValidation, -1);
  rv_ = now;
  ++stats_.extensions;
}

stm::Word DurableTx::load(const stm::Word* addr) {
  ++stats_.reads;
  check_killed();
  if (read_hook_) sched_->on_read(tid_, addr, util::hash_ptr(addr));

  Orec& o = backend_.orec_of(addr);
  std::uint64_t v = o.word.load(std::memory_order_acquire);
  for (;;) {
    if ((v & 1) != 0) {
      if (owner_of(v) == this) {
        if (const auto* e = wlog_.find(addr)) return e->value;
        return stm::raw_load(addr);
      }
      die(stm::AbortReason::kReadConflict, owner_of(v)->tid());
    }
    const stm::Word val = stm::raw_load(addr);
    const std::uint64_t v2 = o.word.load(std::memory_order_acquire);
    if (v2 == v) {
      // Enter the read set before extending, so the extension's validate()
      // also re-checks this read against commits that raced the seqlock.
      read_set_.push_back({&o, v});
      if ((v >> 1) > rv_) extend_or_die();
      return val;
    }
    v = v2;
  }
}

void DurableTx::store(stm::Word* addr, stm::Word value) {
  ++stats_.writes;
  check_killed();
  if (write_hook_) sched_->on_write(tid_, addr);

  const auto hit = wlog_.find_or_slot(addr);
  if (hit.entry != nullptr) {
    hit.entry->value = value;
    return;
  }
  Orec& o = backend_.orec_of(addr);
  std::uint64_t v = o.word.load(std::memory_order_acquire);
  for (;;) {
    if ((v & 1) != 0) {
      if (owner_of(v) == this) break;
      die(stm::AbortReason::kWriteConflict, owner_of(v)->tid());
    }
    if ((v >> 1) > rv_) extend_or_die();
    if (o.word.compare_exchange_weak(v, my_lock_word(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      locked_orecs_.push_back({&o, v});
      break;
    }
  }
  wlog_.append_at(hit.slot, addr, value, &o, 0);
}

void DurableTx::commit() {
  check_killed();
  if (wlog_.empty()) {  // read-only: nothing to persist, ack is vacuous
    finish(true);
    return;
  }
  Changelog& log = backend_.changelog();
  if (log.failed()) {
    // Fail BEFORE any memory effect: the log is poisoned, this write can
    // never become durable.  The descriptor is still active; TxRunner's
    // durability catch rolls the attempt back (a cancel) and fires on_abort.
    throw stm::TxDurabilityError(tid_, log.failure_reason());
  }
  std::uint64_t seq = 0;
  {
    // Shared snapshot gate around {tick, validate, write-back, enqueue}:
    // snapshot() excluding this section is what makes "every commit with
    // ts <= image ts is fully in the image" true.
    std::shared_lock<std::shared_mutex> gate(backend_.commit_gate_);
    const std::uint64_t wv = backend_.clock().tick();
    if (wv != rv_ + 1 && !validate())
      die(stm::AbortReason::kValidation, -1);
    redo_.clear();
    for (const auto& e : wlog_.entries()) {
      stm::raw_store(e.addr, e.value);
      if (backend_.region_.contains(e.addr)) {
        redo_.push_back(
            {static_cast<std::uint64_t>(backend_.region_.offset_of(e.addr)),
             static_cast<std::uint64_t>(e.value)});
      }
    }
    // Enqueue while still holding the write locks: transactions that touch
    // a common word land in the changelog in commit order (crash-point
    // append.* fires here -- crash actions only).
    if (!redo_.empty()) {
      backend_.fault_->check(FaultPoint::kAppendBefore);
      seq = log.append(redo_, wv);
      backend_.fault_->check(FaultPoint::kAppendAfter);
    }
    const std::uint64_t new_word = wv << 1;
    for (const auto& lo : locked_orecs_)
      lo.orec->word.store(new_word, std::memory_order_release);
    if (backend_.wait_table_.armed()) {
      for (const auto& lo : locked_orecs_) backend_.wait_table_.mark(lo.orec);
      backend_.wait_table_.publish();
    }
  }
  finish(true);
  // The durability acknowledgment: block until the fsync covering our
  // record completes.  TxRunner fires on_commit only after commit()
  // returns, so on_commit IS the post-fsync ack.  Throws
  // TxDurabilityError if the log fails first (fail-stop: the memory commit
  // above stands, but it was never acknowledged).
  if (seq != 0 && backend_.opts_.sync == SyncMode::kGroupCommit) {
    const auto t0 = std::chrono::steady_clock::now();
    log.wait_durable(seq, tid_);
    ack_hist_.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    ++acks_;
  }
}

void* DurableTx::tx_alloc(std::size_t bytes) {
  void* p = ::operator new(bytes);
  allocs_.push_back(p);
  return p;
}

void DurableTx::tx_free(void* p) { frees_.push_back(p); }

void DurableTx::restart() { die(stm::AbortReason::kExplicit, -1); }

void DurableTx::cancel() {
  ++stats_.cancels;
  finish(false);
}

void DurableTx::retry_wait(std::int64_t timeout_ns) {
  assert(active_ && "retry_wait outside a transaction");
  stm::WaitTable& wt = backend_.wait_table_;
  ++stats_.retry_waits;
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
  if (validate()) {
    const auto t0 = std::chrono::steady_clock::now();
    const stm::WaitTable::WaitResult wr = wt.wait_for(wait_set_, timeout_ns);
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

void DurableTx::request_kill(int killer_tid) {
  killer_tid_.store(killer_tid, std::memory_order_relaxed);
  std::uint32_t expected = kRunning;
  status_.compare_exchange_strong(expected, kKilled,
                                  std::memory_order_acq_rel);
}

void DurableTx::release_locks_to_old() {
  for (const auto& lo : locked_orecs_)
    lo.orec->word.store(lo.old_word, std::memory_order_release);
}

void DurableTx::finish(bool committed) {
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

void DurableTx::die(stm::AbortReason reason, int enemy_tid) {
  stats_.record_abort(reason);
  finish(false);
  throw stm::TxConflict(reason, enemy_tid);
}

}  // namespace shrinktm::durable
