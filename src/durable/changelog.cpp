#include "durable/changelog.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "durable/log_reader.hpp"
#include "stm/word.hpp"

namespace shrinktm::durable {

namespace {

std::string errno_string(const char* op) {
  return std::string(op) + " failed: " + std::strerror(errno);
}

/// write(2) until done; partial writes and EINTR are retried.
bool write_fully(int fd, const unsigned char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Changelog::Changelog(Config cfg, std::shared_ptr<FaultPlan> fault)
    : cfg_(std::move(cfg)), fault_(std::move(fault)) {
  if (!fault_) fault_ = std::make_shared<FaultPlan>();
  fd_ = ::open(cfg_.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    failed_ = true;
    fail_reason_ = errno_string("open(changelog)");
    return;
  }
  dir_fd_ = ::open(dirname_of(cfg_.path).c_str(),
                   O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size == 0) {
    // Fresh log: persist the header and the directory entry before any
    // record, so a crash right after creation recovers as "empty log", not
    // "no log with a dangling snapshot reference".
    const LogFileHeader hdr;
    if (!write_fully(fd_, reinterpret_cast<const unsigned char*>(&hdr),
                     sizeof(hdr)) ||
        (cfg_.fsync && ::fsync(fd_) != 0)) {
      failed_ = true;
      fail_reason_ = errno_string("write(changelog header)");
      return;
    }
    if (cfg_.fsync && dir_fd_ >= 0) ::fsync(dir_fd_);
  }
  writer_ = std::thread([this] { writer_loop(); });
}

Changelog::~Changelog() {
  if (writer_.joinable()) {
    {
      std::lock_guard<std::mutex> g(mu_);
      stop_ = true;
    }
    writer_cv_.notify_all();
    writer_.join();
  }
  if (fd_ >= 0) ::close(fd_);
  if (dir_fd_ >= 0) ::close(dir_fd_);
}

std::uint64_t Changelog::append(std::span<const RedoWord> words,
                                std::uint64_t commit_ts) {
  // Serialise outside the lock: header + payload, CRC over both.
  RecordHeader hdr;
  hdr.count = static_cast<std::uint32_t>(words.size());
  hdr.commit_ts = commit_ts;
  hdr.crc = record_crc(hdr.count, hdr.commit_ts, words.data());

  std::lock_guard<std::mutex> g(mu_);
  const std::uint64_t seq = ++appended_seq_;
  if (commit_ts > max_appended_ts_) max_appended_ts_ = commit_ts;
  if (failed_) return seq;  // dropped; wait_durable(seq) will throw
  const auto* h = reinterpret_cast<const unsigned char*>(&hdr);
  pending_.insert(pending_.end(), h, h + sizeof(hdr));
  const auto* p = reinterpret_cast<const unsigned char*>(words.data());
  pending_.insert(pending_.end(), p, p + words.size_bytes());
  ++pending_records_;
  ++counters_.records;
  counters_.payload_words += words.size();
  // Wake the writer only when it has something new to do: the first record
  // of a batch ends its idle wait, a full batch ends its linger.  A notify
  // per record would wake a lingering writer once per append for nothing.
  if (pending_records_ == 1 || pending_records_ == cfg_.max_batch_records)
    writer_cv_.notify_one();
  return seq;
}

void Changelog::wait_durable(std::uint64_t seq, int tid) {
  std::unique_lock<std::mutex> lk(mu_);
  ack_cv_.wait(lk, [&] { return failed_ || durable_seq_ >= seq; });
  if (durable_seq_ < seq) throw stm::TxDurabilityError(tid, fail_reason_);
}

void Changelog::flush(int tid) {
  std::uint64_t target;
  {
    std::lock_guard<std::mutex> g(mu_);
    target = appended_seq_;
    // Cut the pending batch's linger short; the writer clears the flag
    // when it takes the batch that covers `target`.
    if (pending_records_ > 0) {
      flush_requested_ = true;
      writer_cv_.notify_one();
    }
  }
  wait_durable(target, tid);
}

bool Changelog::truncate_all() {
  std::lock_guard<std::mutex> g(mu_);
  if (failed_) return false;
  fault_->check(FaultPoint::kTruncateBefore);
  if (::ftruncate(fd_, static_cast<off_t>(sizeof(LogFileHeader))) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0 || (cfg_.fsync && ::fsync(fd_) != 0)) {
    failed_ = true;
    fail_reason_ = errno_string("ftruncate(changelog)");
    ack_cv_.notify_all();
    return false;
  }
  fault_->check(FaultPoint::kTruncateAfter);
  return true;
}

bool Changelog::failed() const {
  std::lock_guard<std::mutex> g(mu_);
  return failed_;
}

std::string Changelog::failure_reason() const {
  std::lock_guard<std::mutex> g(mu_);
  return fail_reason_;
}

ChangelogCounters Changelog::counters() const {
  std::lock_guard<std::mutex> g(mu_);
  return counters_;
}

void Changelog::reset_counters() {
  std::lock_guard<std::mutex> g(mu_);
  counters_ = ChangelogCounters{};
}

std::uint64_t Changelog::max_appended_ts() const {
  std::lock_guard<std::mutex> g(mu_);
  return max_appended_ts_;
}

void Changelog::writer_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    writer_cv_.wait(lk, [&] { return stop_ || pending_records_ > 0; });
    if (pending_records_ == 0) {
      if (stop_) return;
      continue;
    }
    // Bounded linger: let a batch form so one fsync covers many commits.
    if (!stop_ && cfg_.group_commit_interval_us > 0 &&
        pending_records_ < cfg_.max_batch_records) {
      writer_cv_.wait_for(
          lk, std::chrono::microseconds(cfg_.group_commit_interval_us),
          [&] {
            return stop_ || flush_requested_ ||
                   pending_records_ >= cfg_.max_batch_records;
          });
    }
    flush_requested_ = false;
    std::vector<unsigned char> batch;
    batch.swap(pending_);
    const std::uint64_t batch_records = pending_records_;
    pending_records_ = 0;
    const std::uint64_t batch_seq = appended_seq_;
    if (failed_) continue;  // poisoned while we slept: drop

    lk.unlock();
    const std::string err = write_batch(batch);
    lk.lock();

    if (err.empty()) {
      durable_seq_ = batch_seq;
      ++counters_.batches;
      if (cfg_.fsync) ++counters_.fsyncs;
      counters_.bytes += batch.size();
      counters_.max_batch_records =
          std::max(counters_.max_batch_records, batch_records);
    } else if (!failed_) {
      failed_ = true;
      fail_reason_ = err;
    }
    ack_cv_.notify_all();
  }
}

std::string Changelog::write_batch(const std::vector<unsigned char>& batch) {
  // The fencing window spans the whole {epoch check, write, fsync} triple:
  // a promoter's epoch bump waits for this batch, and once the bump lands
  // no later batch can pass the check -- the deposed leader fail-stops.
  std::optional<EpochFence::Hold> fence_hold;
  if (cfg_.fence != nullptr) {
    fence_hold.emplace(cfg_.fence->hold());
    if (!cfg_.fence->still_current_locked()) {
      return "fenced: epoch " + std::to_string(cfg_.fence->epoch()) +
             " was superseded (follower promoted?); this leader must not "
             "append";
    }
  }
  switch (fault_->check(FaultPoint::kWriteBefore)) {
    case FaultAction::kEIO:
      return "injected EIO on changelog write";
    case FaultAction::kShortWrite: {
      // Persist a prefix that tears the final record (drop its tail 8
      // bytes), then die like a crash: recovery must find and truncate a
      // real torn tail, never replay it.
      const std::size_t cut = batch.size() > 8 ? batch.size() - 8 : 0;
      write_fully(fd_, batch.data(), cut);
      ::fsync(fd_);
      std::_Exit(FaultPlan::kCrashExitCode);
    }
    default:
      break;
  }
  if (!write_fully(fd_, batch.data(), batch.size()))
    return errno_string("write(changelog)");
  if (fault_->check(FaultPoint::kWriteAfter) == FaultAction::kEIO)
    return "injected EIO on changelog write";
  if (cfg_.fsync) {
    if (fault_->check(FaultPoint::kFsyncBefore) == FaultAction::kEIO)
      return "injected EIO on changelog fsync";
    if (::fsync(fd_) != 0) return errno_string("fsync(changelog)");
    if (fault_->check(FaultPoint::kFsyncAfter) == FaultAction::kEIO)
      return "injected EIO on changelog fsync";
  }
  return {};
}

Changelog::ScanResult Changelog::replay(
    const std::string& path, std::uint64_t min_ts_exclusive,
    const std::function<void(std::uint64_t, const RedoWord*, std::size_t)>&
        apply) {
  // One iterator serves recovery, the replica tailer and the format tests;
  // this wrapper maps its statuses onto the recovery vocabulary: a missing,
  // empty or cleanly-ended file is not torn, anything else trailing is.
  ScanResult r;
  LogReader reader(LogReader::Config{path, /*buffer_bytes=*/std::size_t{64} *
                                               1024});
  for (;;) {
    LogReader::Record rec;
    const LogReader::Status st = reader.next(rec);
    if (st == LogReader::Status::kRecord) {
      ++r.records;
      r.last_ts = std::max(r.last_ts, rec.commit_ts);
      if (rec.commit_ts > min_ts_exclusive) {
        ++r.replayed;
        apply(rec.commit_ts, rec.words, rec.count);
      }
      continue;
    }
    r.torn = st == LogReader::Status::kPartial ||
             st == LogReader::Status::kBadHeader;
    r.valid_bytes = reader.offset();
    return r;
  }
}

bool Changelog::truncate_to(const std::string& path,
                            std::uint64_t valid_bytes) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::ftruncate(fd, static_cast<off_t>(valid_bytes)) == 0 &&
                  ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace shrinktm::durable
