#include "durable/backend.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "durable/snapshot.hpp"

namespace shrinktm::durable {

namespace {
// Shared with recovery and the replica tailer (durable/log_format.hpp).
constexpr const char* kLogFile = kLogFileName;
constexpr const char* kSnapFile = kSnapFileName;
}  // namespace

DurableBackend::DurableBackend(DurableOptions opts, stm::StmConfig cfg)
    : TinyBackend(cfg),
      opts_(std::move(opts)),
      region_(opts_.region_words),
      thread_logs_(cfg.max_threads) {
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
  commit_log_ = this;  // from here on, every writing commit takes the tail
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
  clock().advance_to(recovery_.last_ts);
}

void DurableBackend::reset_counters() {
  {
    std::lock_guard<std::mutex> g(logs_mutex_);
    for (auto& l : thread_logs_) {
      if (!l) continue;
      l->ack = util::HdrHistogram{};
      l->acks = 0;
    }
  }
  auto_snapshots_.store(0, std::memory_order_relaxed);
  changelog_->reset_counters();
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
  const std::uint64_t ts = clock().now();
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
  std::lock_guard<std::mutex> g(logs_mutex_);
  util::HdrHistogram hist;
  std::uint64_t acks = 0;
  for (const auto& l : thread_logs_) {
    if (!l) continue;
    hist.merge(l->ack);
    acks += l->acks;
  }
  return {hist, acks};
}

DurableBackend::ThreadLog& DurableBackend::thread_log(int tid) {
  // Only `tid`'s thread (one at a time, as for its descriptor) creates or
  // uses its slot, so the unlocked read sees either null or that thread's
  // own write; the lock orders the creation against ack_histogram() and
  // reset_counters().
  auto& slot = thread_logs_[static_cast<std::size_t>(tid)];
  if (!slot) {
    std::lock_guard<std::mutex> g(logs_mutex_);
    slot = std::make_unique<ThreadLog>();
    slot->redo.reserve(256);
  }
  return *slot;
}

std::shared_lock<std::shared_mutex> DurableBackend::enter(int tid) {
  // Fail BEFORE any memory effect: the log is poisoned, this write can
  // never become durable.  The descriptor is still active; TxRunner's
  // durability catch rolls the attempt back (a cancel) and fires on_abort.
  if (changelog_->failed())
    throw stm::TxDurabilityError(tid, changelog_->failure_reason());
  // Shared snapshot gate: snapshot() excluding this section is what makes
  // "every commit with ts <= image ts is fully in the image" true.
  return std::shared_lock<std::shared_mutex>(commit_gate_);
}

std::uint64_t DurableBackend::append(
    int tid, std::span<const stm::WriteLog<stm::TinyOrec>::Entry> writes,
    std::uint64_t wv) {
  std::vector<RedoWord>& redo = thread_log(tid).redo;
  redo.clear();
  for (const auto& e : writes) {
    if (region_.contains(e.addr)) {
      redo.push_back({static_cast<std::uint64_t>(region_.offset_of(e.addr)),
                      static_cast<std::uint64_t>(e.value)});
    }
  }
  if (redo.empty()) return 0;
  // Crash-point append.* fires here (crash actions only: the committer
  // still holds its write locks, where unwinding would be unsafe).
  fault_->check(FaultPoint::kAppendBefore);
  const std::uint64_t seq = changelog_->append(redo, wv);
  fault_->check(FaultPoint::kAppendAfter);
  // Only group commit makes the committer wait for its fsync.
  return opts_.sync == SyncMode::kGroupCommit ? seq : 0;
}

void DurableBackend::wait_durable(int tid, std::uint64_t seq) {
  // The durability acknowledgment: block until the fsync covering the
  // record completes.  TxRunner fires on_commit only after commit()
  // returns, so on_commit IS the post-fsync ack.  Throws
  // TxDurabilityError if the log fails first (fail-stop: the memory commit
  // stands, but it was never acknowledged).
  ThreadLog& l = thread_log(tid);
  const auto t0 = std::chrono::steady_clock::now();
  changelog_->wait_durable(seq, tid);
  l.ack.add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  ++l.acks;
}

}  // namespace shrinktm::durable
