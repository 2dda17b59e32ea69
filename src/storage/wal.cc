#include "dbwipes/storage/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/telemetry.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/storage/durable_io.h"

namespace dbwipes {

namespace {

// '2': frames carry a u64 request id after the LSN (PR 9); a v1 log
// would checksum-fail against this layout, so the magic refuses it
// outright instead of misreading it as a torn tail.
constexpr char kSegmentMagic[8] = {'D', 'B', 'W', 'W', 'A', 'L', '2', '\0'};
constexpr size_t kSegmentHeaderSize = 16;  // magic + u64 base_lsn
// [u32 body_len][u64 checksum][u64 lsn][u64 rid][u8 type]
constexpr size_t kRecordHeaderSize = 4 + 8 + 8 + 8 + 1;
constexpr size_t kMaxRecordBody = 64u << 20;  // sanity cap against garbage lens

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}
uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

/// The wal-*.log segments in `dir` as (seq, path), ordered by sequence
/// number.
Status ListSegments(const std::string& dir,
                    std::vector<std::pair<uint64_t, std::string>>* found) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return ErrnoError("opendir", dir);
  while (struct dirent* e = ::readdir(d)) {
    unsigned long long seq = 0;
    char tail = 0;
    if (std::sscanf(e->d_name, "wal-%8llu.lo%c", &seq, &tail) == 2 &&
        tail == 'g') {
      found->emplace_back(seq, SegmentPath(dir, seq));
    }
  }
  ::closedir(d);
  std::sort(found->begin(), found->end());
  return Status::OK();
}

/// One validated record from a segment scan.
struct ScanState {
  uint64_t max_lsn = 0;       // last valid record (0: none)
  size_t valid_bytes = 0;     // prefix covered by valid records
  size_t record_bytes = 0;    // same minus the segment header
  bool torn = false;          // trailing bytes past valid_bytes are damaged
};

/// Walks `data` (a full segment image) validating frames. Stops at the
/// first torn/invalid frame; `expected_lsn` enforces contiguity, which
/// is corruption (not tearing) when violated mid-file.
Status ScanSegment(const std::string& path, const std::string& data,
                   uint64_t base_lsn, uint64_t expected_lsn, ScanState* out,
                   const std::function<Status(uint64_t, uint64_t, uint8_t,
                                              const std::string&)>* fn) {
  size_t off = kSegmentHeaderSize;
  out->valid_bytes = off;
  uint64_t next = expected_lsn;
  while (off < data.size()) {
    if (data.size() - off < kRecordHeaderSize) {
      out->torn = true;
      break;
    }
    const uint32_t body_len = GetU32(data.data() + off);
    if (body_len > kMaxRecordBody ||
        data.size() - off - kRecordHeaderSize < body_len) {
      out->torn = true;
      break;
    }
    const uint64_t checksum = GetU64(data.data() + off + 4);
    const uint64_t lsn = GetU64(data.data() + off + 12);
    const uint64_t rid = GetU64(data.data() + off + 20);
    const uint8_t type = static_cast<uint8_t>(data[off + 28]);
    std::string body(data, off + kRecordHeaderSize, body_len);
    if (FrameChecksum(lsn, rid, type, body) != checksum) {
      out->torn = true;
      break;
    }
    // A checksum-valid record with the wrong LSN is not a torn write —
    // torn writes damage bytes, they don't forge frames.
    if (lsn != next) {
      return Status::IoError("wal corrupt: " + path + " holds lsn " +
                             std::to_string(lsn) + " where " +
                             std::to_string(next) + " was expected");
    }
    if (out->max_lsn == 0 && lsn != base_lsn) {
      return Status::IoError("wal corrupt: " + path + " base lsn " +
                             std::to_string(base_lsn) +
                             " disagrees with first record lsn " +
                             std::to_string(lsn));
    }
    if (fn != nullptr) {
      Status st = (*fn)(lsn, rid, type, body);
      if (!st.ok()) return st;
    }
    out->max_lsn = lsn;
    off += kRecordHeaderSize + body_len;
    out->valid_bytes = off;
    ++next;
  }
  out->record_bytes = out->valid_bytes - kSegmentHeaderSize;
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(WalOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("wal dir must not be empty");
  }
  if (options.faults != nullptr) {
    DBW_RETURN_NOT_OK(options.faults->Hit("wal/open"));
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoError("mkdir", options.dir);
  }

  std::vector<std::pair<uint64_t, std::string>> found;
  DBW_RETURN_NOT_OK(ListSegments(options.dir, &found));

  auto wal = std::unique_ptr<WriteAheadLog>(new WriteAheadLog());
  wal->options_ = std::move(options);

  uint64_t expected_lsn = 1;
  for (size_t i = 0; i < found.size(); ++i) {
    const bool last = (i + 1 == found.size());
    const std::string& path = found[i].second;
    std::string data;
    DBW_RETURN_NOT_OK(ReadWholeFile(path, &data));
    if (data.size() < kSegmentHeaderSize ||
        std::memcmp(data.data(), kSegmentMagic, 8) != 0) {
      // A segment written by another wal format version has a complete,
      // well-formed "DBWWAL<v>" magic. Its records are durable commits
      // this reader cannot parse — refuse to open rather than mistaking
      // it for creation debris and deleting it.
      if (data.size() >= 8 && std::memcmp(data.data(), "DBWWAL", 6) == 0) {
        return Status::IoError(
            "wal unsupported version: " + path + " has magic " +
            std::string(data.data(), 7) + ", this build reads " +
            std::string(kSegmentMagic, 7) +
            "; migrate or remove the old log explicitly");
      }
      if (last) {
        // A crash during segment creation can leave a short/blank file;
        // drop it and let the active segment be recreated below.
        if (::unlink(path.c_str()) != 0) return ErrnoError("unlink", path);
        DBW_RETURN_NOT_OK(FsyncDir(wal->options_.dir));
        break;
      }
      return Status::IoError("wal corrupt: bad segment header in " + path);
    }
    const uint64_t base_lsn = GetU64(data.data() + 8);
    if (i == 0) {
      // Checkpoints truncate the log's prefix, so the oldest surviving
      // segment may start anywhere; contiguity is only required from
      // here on.
      expected_lsn = base_lsn;
    }
    if (base_lsn != expected_lsn) {
      return Status::IoError("wal corrupt: " + path + " starts at lsn " +
                             std::to_string(base_lsn) + ", expected " +
                             std::to_string(expected_lsn));
    }
    ScanState scan;
    DBW_RETURN_NOT_OK(
        ScanSegment(path, data, base_lsn, expected_lsn, &scan, nullptr));
    if (scan.torn) {
      if (!last) {
        // Crashes only ever tear the segment being written; damage in a
        // sealed segment is real corruption.
        return Status::IoError("wal corrupt: torn record mid-log in " + path);
      }
      int fd = ::open(path.c_str(), O_WRONLY);
      if (fd < 0) return ErrnoError("open", path);
      if (::ftruncate(fd, static_cast<off_t>(scan.valid_bytes)) != 0) {
        ::close(fd);
        return ErrnoError("ftruncate", path);
      }
      Status st = FsyncFd(fd, path);
      ::close(fd);
      DBW_RETURN_NOT_OK(st);
    }
    Segment seg;
    seg.path = path;
    seg.seq = found[i].first;
    seg.base_lsn = base_lsn;
    seg.max_lsn = scan.max_lsn;
    seg.record_bytes = scan.record_bytes;
    wal->segments_.push_back(std::move(seg));
    if (scan.max_lsn != 0) expected_lsn = scan.max_lsn + 1;
  }

  if (wal->segments_.empty() && wal->options_.start_lsn > 1) {
    // Replication bootstrap: a follower's fresh log continues the
    // primary's numbering from the installed snapshot.
    expected_lsn = wal->options_.start_lsn;
  }
  wal->next_lsn_ = expected_lsn;
  wal->durable_lsn_ = expected_lsn - 1;

  if (wal->segments_.empty()) {
    DBW_RETURN_NOT_OK(wal->CreateSegment(1, wal->next_lsn_));
  } else {
    Segment& active = wal->segments_.back();
    wal->active_fd_ = ::open(active.path.c_str(), O_WRONLY | O_APPEND);
    if (wal->active_fd_ < 0) return ErrnoError("open", active.path);
    wal->active_synced_bytes_ = kSegmentHeaderSize + active.record_bytes;
  }
  return wal;
}

Status WriteAheadLog::RemoveSegments(const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> found;
  DBW_RETURN_NOT_OK(ListSegments(dir, &found));
  for (const auto& segment : found) {
    if (::unlink(segment.second.c_str()) != 0) {
      return ErrnoError("unlink", segment.second);
    }
  }
  return Status::OK();
}

WriteAheadLog::~WriteAheadLog() {
  if (active_fd_ >= 0) ::close(active_fd_);
}

Status WriteAheadLog::CreateSegment(uint64_t seq, uint64_t base_lsn) {
  const std::string path = SegmentPath(options_.dir, seq);
  int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) return ErrnoError("open", path);
  std::string header(kSegmentMagic, 8);
  PutU64(&header, base_lsn);
  Status st = WriteAll(fd, header, path);
  if (st.ok()) st = FsyncFd(fd, path);
  if (st.ok()) st = FsyncDir(options_.dir);
  if (!st.ok()) {
    ::close(fd);
    ::unlink(path.c_str());
    return st;
  }
  if (active_fd_ >= 0) ::close(active_fd_);
  active_fd_ = fd;
  active_synced_bytes_ = kSegmentHeaderSize;
  Segment seg;
  seg.path = path;
  seg.seq = seq;
  seg.base_lsn = base_lsn;
  segments_.push_back(std::move(seg));
  return Status::OK();
}

Status WriteAheadLog::RotateLocked(uint64_t base_lsn) {
  Segment& active = segments_.back();
  if (active.record_bytes == 0) return Status::OK();  // already fresh
  if (options_.faults != nullptr) {
    DBW_RETURN_NOT_OK(options_.faults->Hit("wal/rotate"));
  }
  // The old segment was fsynced by every commit that touched it; sealing
  // is just switching fds (CreateSegment closes the old one).
  return CreateSegment(active.seq + 1, base_lsn);
}

Status WriteAheadLog::WriteAndSync(int fd, const std::string& path,
                                   const std::string& batch) {
  FaultInjector::Fault fault;
  const bool fired = options_.faults != nullptr &&
                     options_.faults->HitIo("wal/write", &fault);
  DBW_RETURN_NOT_OK(WriteAll(fd, batch, path, fired ? &fault : nullptr));
  if (options_.sync) {
    if (options_.faults != nullptr) {
      DBW_RETURN_NOT_OK(options_.faults->Hit("wal/fsync"));
    }
    static MetricHistogram* const fsync_ms =
        MetricsRegistry::Global().GetHistogram("wal.fsync_ms");
    // Publish the entry timestamp so the watchdog can flag an fsync
    // that never comes back (dead disk) — a latency histogram alone
    // only reports fsyncs that finished.
    const double start_ms = MonotonicMillis();
    SetFsyncInFlight(start_ms);
    Status st = FsyncFd(fd, path);
    ClearFsyncInFlight();
    fsync_ms->Observe(MonotonicMillis() - start_ms);
    DBW_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::Append(uint8_t type, const std::string& body,
                                       uint64_t rid) {
  DBW_ASSIGN_OR_RETURN(Ticket ticket, Stage(type, body, rid));
  DBW_RETURN_NOT_OK(WaitDurable(ticket));
  return ticket.lsn;
}

Result<WriteAheadLog::Ticket> WriteAheadLog::Stage(uint8_t type,
                                                   const std::string& body,
                                                   uint64_t rid) {
  if (options_.faults != nullptr) {
    DBW_RETURN_NOT_OK(options_.faults->Hit("wal/record"));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_) {
    return Status::IoError("wal poisoned by unrecoverable commit failure (" +
                           last_error_.ToString() + "); reopen required");
  }
  Ticket ticket;
  ticket.lsn = next_lsn_++;
  ticket.epoch = commit_epoch_;
  ticket.bytes = kRecordHeaderSize + body.size();
  if (pending_records_ == 0) pending_first_lsn_ = ticket.lsn;
  PutU32(&pending_, static_cast<uint32_t>(body.size()));
  PutU64(&pending_, FrameChecksum(ticket.lsn, rid, type, body));
  PutU64(&pending_, ticket.lsn);
  PutU64(&pending_, rid);
  pending_.push_back(static_cast<char>(type));
  pending_.append(body);
  ++pending_records_;
  return ticket;
}

Status WriteAheadLog::WaitDurable(const Ticket& ticket) {
  const uint64_t lsn = ticket.lsn;
  const uint64_t epoch = ticket.epoch;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (commit_epoch_ != epoch) {
      // A commit failed after we staged. The bump that ended our epoch
      // recorded how far the log was durable at that instant: at or
      // past our LSN means our record committed before the failure;
      // short of it means ours was dropped — and a durable_lsn_ >= lsn
      // NOW would only mean the LSN was reused by a later record.
      Status dropped = Status::IoError("wal commit aborted");
      bool committed = false;
      for (const DropEvent& drop : drops_) {
        if (drop.epoch != epoch) continue;
        committed = lsn <= drop.durable_lsn;
        if (!drop.status.ok()) dropped = drop.status;
        break;
      }
      if (committed) break;
      return dropped;
    }
    if (durable_lsn_ >= lsn) break;
    if (!sync_in_flight_) {
      // Become the leader: commit everything pending in one write+fsync.
      // Rotation (rare) stays under the lock so segments_ is only ever
      // mutated with mu_ held; only the write+fsync runs unlocked.
      Status st;
      if (kSegmentHeaderSize + segments_.back().record_bytes >=
          options_.segment_bytes) {
        st = RotateLocked(pending_first_lsn_);
      }
      std::string batch;
      size_t batch_records = 0;
      uint64_t first_lsn = 0;
      int fd = -1;
      std::string path;
      if (st.ok()) {
        batch.swap(pending_);
        batch_records = pending_records_;
        first_lsn = pending_first_lsn_;
        pending_records_ = 0;
        if (segments_.back().max_lsn == 0) {
          segments_.back().base_lsn = first_lsn;
        }
        fd = active_fd_;
        path = segments_.back().path;
        sync_in_flight_ = true;
        lock.unlock();
        st = WriteAndSync(fd, path, batch);
        lock.lock();
        sync_in_flight_ = false;
      }
      if (st.ok()) {
        Segment& seg = segments_.back();
        seg.record_bytes += batch.size();
        seg.max_lsn = first_lsn + batch_records - 1;
        active_synced_bytes_ += batch.size();
        durable_lsn_ = seg.max_lsn;
        ++fsyncs_;
        MetricsRegistry::Global().GetCounter("wal.fsyncs")->Increment();
        MetricsRegistry::Global()
            .GetHistogram("wal.group_batch")
            ->Observe(static_cast<double>(batch_records));
      } else {
        // Drop the failed batch AND anything queued behind it (its LSNs
        // would leave a gap), restore the file to the durable prefix,
        // and rewind the counter so the log stays contiguous.
        last_error_ = st;
        drops_.push_back(DropEvent{commit_epoch_, durable_lsn_, st});
        ++commit_epoch_;
        pending_.clear();
        pending_records_ = 0;
        next_lsn_ = durable_lsn_ + 1;
        int rc;
        do {
          rc = ::ftruncate(active_fd_,
                           static_cast<off_t>(active_synced_bytes_));
        } while (rc != 0 && errno == EINTR);
        if (rc != 0) {
          // Can't prove what's on disk anymore; refuse further appends.
          poisoned_ = true;
        } else {
          segments_.back().record_bytes =
              active_synced_bytes_ - kSegmentHeaderSize;
        }
        cv_.notify_all();
        return st;
      }
      cv_.notify_all();
    } else {
      cv_.wait(lock);
    }
  }
  ++appends_;
  MetricsRegistry::Global().GetCounter("wal.appends")->Increment();
  MetricsRegistry::Global()
      .GetCounter("wal.bytes")
      ->Increment(ticket.bytes);
  if (options_.faults != nullptr) {
    // The record IS durable; a crash here loses only the ack.
    DBW_RETURN_NOT_OK(options_.faults->Hit("wal/ack"));
  }
  return Status::OK();
}

Status WriteAheadLog::ReplayDurable(
    uint64_t after_lsn,
    const std::function<Status(uint64_t, uint64_t, uint8_t,
                               const std::string&)>& fn,
    uint64_t* delivered_through) const {
  std::vector<Segment> segments;
  uint64_t cap = 0;
  {
    // Segment metadata (including per-segment max_lsn) is only advanced
    // under mu_ *after* a successful fsync, so this copy and `cap`
    // describe exactly the on-disk durable prefix at this instant.
    std::lock_guard<std::mutex> lock(mu_);
    segments = segments_;
    cap = durable_lsn_;
  }
  if (delivered_through != nullptr) *delivered_through = cap;
  if (cap <= after_lsn) {
    if (delivered_through != nullptr) *delivered_through = after_lsn;
    return Status::OK();
  }
  auto deliver = [&](uint64_t lsn, uint64_t rid, uint8_t type,
                     const std::string& body) -> Status {
    if (lsn <= after_lsn || lsn > cap) return Status::OK();
    return fn(lsn, rid, type, body);
  };
  const std::function<Status(uint64_t, uint64_t, uint8_t, const std::string&)>
      deliver_fn = deliver;
  for (const Segment& seg : segments) {
    if (seg.max_lsn != 0 && seg.max_lsn <= after_lsn) continue;
    if (seg.base_lsn > cap) break;
    // The durable records this segment must still hold. max_lsn came
    // from the same locked copy as `cap`, so anything beyond it in the
    // file is a concurrent commit in flight — possibly torn, never owed.
    const uint64_t want = std::min(cap, seg.max_lsn);
    if (want < seg.base_lsn) continue;  // sealed-empty segment
    std::string data;
    DBW_RETURN_NOT_OK(ReadWholeFile(seg.path, &data));
    ScanState scan;
    DBW_RETURN_NOT_OK(ScanSegment(seg.path, data, seg.base_lsn, seg.base_lsn,
                                  &scan, &deliver_fn));
    if (scan.max_lsn < want) {
      return Status::IoError("wal tail read: " + seg.path +
                             " lost durable records (have through lsn " +
                             std::to_string(scan.max_lsn) + ", expected " +
                             std::to_string(want) + ")");
    }
  }
  return Status::OK();
}

uint64_t WriteAheadLog::first_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.empty() ? next_lsn_ : segments_.front().base_lsn;
}

bool WriteAheadLog::CanReplayAfter(uint64_t lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t first =
      segments_.empty() ? next_lsn_ : segments_.front().base_lsn;
  // Everything in (lsn, durable] must still be on disk: the log's
  // retained range starts at `first`, so lsn + 1 >= first suffices.
  return lsn + 1 >= first && lsn <= durable_lsn_;
}

Status WriteAheadLog::Rotate() {
  std::unique_lock<std::mutex> lock(mu_);
  // A group-commit leader writes to the active fd with mu_ RELEASED;
  // sealing the segment under it (CreateSegment closes that fd, and
  // the leader republishes into segments_.back()) would land its batch
  // in the wrong file. Wait for the leader to finish and republish.
  while (sync_in_flight_) cv_.wait(lock);
  return RotateLocked(next_lsn_);
}

Status WriteAheadLog::TruncateThrough(uint64_t lsn) {
  if (options_.faults != nullptr) {
    DBW_RETURN_NOT_OK(options_.faults->Hit("wal/truncate"));
  }
  std::lock_guard<std::mutex> lock(mu_);
  bool removed = false;
  while (segments_.size() > 1) {
    const Segment& seg = segments_.front();
    if (seg.max_lsn == 0 || seg.max_lsn > lsn) break;
    if (::unlink(seg.path.c_str()) != 0) return ErrnoError("unlink", seg.path);
    segments_.erase(segments_.begin());
    removed = true;
  }
  if (removed) DBW_RETURN_NOT_OK(FsyncDir(options_.dir));
  return Status::OK();
}

uint64_t WriteAheadLog::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

uint64_t WriteAheadLog::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

size_t WriteAheadLog::num_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

size_t WriteAheadLog::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Segment& seg : segments_) n += seg.record_bytes;
  return n;
}

WalStats WriteAheadLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WalStats s;
  s.next_lsn = next_lsn_;
  s.durable_lsn = durable_lsn_;
  s.segments = segments_.size();
  for (const Segment& seg : segments_) s.total_bytes += seg.record_bytes;
  s.appends = appends_;
  s.fsyncs = fsyncs_;
  s.poisoned = poisoned_;
  return s;
}

}  // namespace dbwipes
