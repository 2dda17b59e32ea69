#ifndef DBWIPES_STORAGE_WAL_H_
#define DBWIPES_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/common/result.h"

namespace dbwipes {

/// \brief Knobs for a WriteAheadLog.
struct WalOptions {
  /// Directory holding the segments (and, at the service layer, the
  /// checkpoint snapshot). Created if absent.
  std::string dir;
  /// Roll the active segment once it exceeds this many bytes. Small
  /// values are useful in tests to force multi-segment logs.
  size_t segment_bytes = 4u << 20;
  /// fsync each commit batch before acknowledging. Turning this off
  /// trades power-loss durability for speed (process-crash durability
  /// remains: the page cache survives _exit/SIGKILL).
  bool sync = true;
  /// Service-level policy: auto-checkpoint (snapshot + segment
  /// truncation) once the log exceeds this many bytes. The WAL itself
  /// does not act on it.
  size_t checkpoint_bytes = 8u << 20;
  /// I/O fault sites ("wal/*") hit through this when non-null. Not
  /// owned; null in production.
  FaultInjector* faults = nullptr;
  /// First LSN a brand-new (empty-directory) log assigns. Replication
  /// bootstrap sets this to snapshot_lsn + 1 so a follower's local log
  /// carries the primary's LSNs verbatim. Ignored when the directory
  /// already holds segments — an existing log dictates its own LSNs.
  uint64_t start_lsn = 1;
};

/// \brief Point-in-time counters for `wal status` and tests.
struct WalStats {
  uint64_t next_lsn = 1;
  uint64_t durable_lsn = 0;
  size_t segments = 0;
  size_t total_bytes = 0;    // record bytes across live segments
  size_t appends = 0;        // records acknowledged since Open
  size_t fsyncs = 0;         // commit fsyncs since Open
  bool poisoned = false;
};

/// \brief Segmented, length-prefixed, FNV-1a-checksummed write-ahead
/// log with group-commit fsync.
///
/// Records are opaque (type byte + body — the service logs command
/// lines) and are assigned contiguous LSNs starting at 1. Append() is
/// durable when it returns: the caller's record has been written and
/// (when `sync`) fsynced. Concurrent appenders group-commit — the
/// first waiter becomes the leader, writes every pending record in one
/// write+fsync, and wakes the rest — so N concurrent acknowledgements
/// cost ~1 fsync, not N.
///
/// On-disk layout: `wal-<seq>.log` files, each starting with an
/// 16-byte header (magic + base LSN), then records framed as
/// [u32 body_len][u64 fnv1a(lsn,rid,type,body)][u64 lsn][u64 rid]
/// [u8 type][body]. The rid is the request id that produced the
/// record (0 when unknown) — checksummed frame metadata, so a
/// recovered log still tells which request wrote what, and replay can
/// re-bind each command to its original id.
/// Open() validates every record: a torn tail (short frame or bad
/// checksum) in the LAST segment is truncated away — exactly what a
/// crash mid-write leaves — while the same damage in an earlier
/// segment, or an LSN discontinuity anywhere, is real corruption and
/// refuses to open.
///
/// Failure handling: if a commit batch's write or fsync fails, the
/// file is truncated back to the last durable size, the batch's
/// records are dropped (their Append() calls all fail), and the LSN
/// counter rewinds so the log never contains a gap. Only if that
/// restore itself fails does the log poison (every later Append fails
/// until reopen).
///
/// Thread safety: Append/stats are fully thread-safe, and
/// ReplayDurable may race both (it delivers only the immutable durable
/// prefix). Rotate/TruncateThrough must not race Append (the service
/// calls them while holding its checkpoint gate exclusively).
class WriteAheadLog {
 public:
  static constexpr uint8_t kRecordCommand = 1;

  /// Scans `options.dir` (creating it if needed), validates existing
  /// segments, truncates a torn tail, and opens the log for appending.
  static Result<std::unique_ptr<WriteAheadLog>> Open(WalOptions options);

  /// Unlinks every segment file in `dir`, found the way Open finds
  /// them (a follower replaces its log with a shipped snapshot's
  /// history). No log may be open on `dir`.
  static Status RemoveSegments(const std::string& dir);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Durably appends one record; returns its LSN once every byte up to
  /// and including it is committed (group-commit fsync). `rid` is the
  /// originating request id stamped into the frame (0 = none).
  Result<uint64_t> Append(uint8_t type, const std::string& body,
                          uint64_t rid = 0);
  Result<uint64_t> AppendCommand(const std::string& line, uint64_t rid = 0) {
    return Append(kRecordCommand, line, rid);
  }

  /// A staged-but-not-yet-durable record. The epoch pins the commit
  /// generation at staging time so WaitDurable can tell "my record
  /// committed" from "my record was dropped by a failed batch and its
  /// LSN was reused".
  struct Ticket {
    uint64_t lsn = 0;
    uint64_t epoch = 0;
    size_t bytes = 0;  // frame size, for the byte counters
  };

  /// First half of Append(): assigns the LSN and buffers the encoded
  /// frame, returning immediately. A caller that must keep log order
  /// equal to apply order can stage under its own serializing lock and
  /// release that lock before WaitDurable — concurrent clients then
  /// share one group-commit fsync instead of serializing on it.
  Result<Ticket> Stage(uint8_t type, const std::string& body,
                       uint64_t rid = 0);
  Result<Ticket> StageCommand(const std::string& line, uint64_t rid = 0) {
    return Stage(kRecordCommand, line, rid);
  }

  /// Second half of Append(): blocks until the staged record is
  /// durable (possibly becoming the commit leader), or returns the
  /// failure that dropped its batch.
  Status WaitDurable(const Ticket& ticket);

  /// The one log reader, for recovery and the replication sender
  /// alike: invokes `fn` for every record with after_lsn < lsn <= D, in
  /// LSN order, with the request id recovered from the frame, where D
  /// is the durable LSN captured atomically with the segment list at
  /// entry. It reads from disk, so it sees exactly what a recovery
  /// would; with no appender running D is the last record. It may race
  /// Append/Rotate: capping at D is what makes that safe — a failed
  /// commit only ever drops and reuses LSNs *above* the durable mark,
  /// so everything delivered here is acknowledged history that can
  /// never be rewritten. Torn or extra
  /// frames past D (a concurrent group commit mid-write) are expected
  /// and ignored; durable records missing below D are corruption.
  /// Segments wholly <= after_lsn are skipped without touching disk, so
  /// a replication sender polling the tail re-reads only the active
  /// segment. Racing TruncateThrough can unlink a segment mid-read —
  /// that surfaces as an IoError and the caller should restart from a
  /// checkpoint. `delivered_through` (optional) reports D.
  Status ReplayDurable(
      uint64_t after_lsn,
      const std::function<Status(uint64_t lsn, uint64_t rid, uint8_t type,
                                 const std::string& body)>& fn,
      uint64_t* delivered_through = nullptr) const;

  /// The base LSN of the oldest retained segment — the smallest LSN
  /// ReplayDurable can still deliver. Replication uses CanReplayAfter to
  /// decide between tailing the log and shipping a snapshot.
  uint64_t first_lsn() const;
  bool CanReplayAfter(uint64_t lsn) const;

  /// Closes the active segment (if it holds records) and starts a
  /// fresh one, so TruncateThrough can retire it.
  Status Rotate();

  /// Unlinks every closed segment whose records are all <= lsn (the
  /// checkpoint made them redundant). Never touches the active
  /// segment.
  Status TruncateThrough(uint64_t lsn);

  const std::string& dir() const { return options_.dir; }
  uint64_t next_lsn() const;
  uint64_t durable_lsn() const;
  size_t num_segments() const;
  /// Record bytes across live segments (headers excluded) — the
  /// service's auto-checkpoint trigger.
  size_t total_bytes() const;
  WalStats stats() const;

 private:
  struct Segment {
    std::string path;
    uint64_t seq = 0;
    uint64_t base_lsn = 0;  // LSN of the segment's first record
    uint64_t max_lsn = 0;   // 0 while empty
    size_t record_bytes = 0;
  };

  WriteAheadLog() = default;

  /// Pure-I/O half of the group commit: write `batch` to `fd`, fsync.
  /// Runs with mu_ released (the sync_in_flight_ flag serializes
  /// leaders); every member mutation happens back under the lock.
  Status WriteAndSync(int fd, const std::string& path,
                      const std::string& batch);
  /// Seals the active segment and opens the next with `base_lsn` as its
  /// first record's LSN. Requires mu_.
  Status RotateLocked(uint64_t base_lsn);
  Status CreateSegment(uint64_t seq, uint64_t base_lsn);

  WalOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Segment> segments_;  // last entry is the active segment
  int active_fd_ = -1;
  size_t active_synced_bytes_ = 0;  // file size covered by the last fsync

  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  std::string pending_;       // encoded records awaiting the next commit
  size_t pending_records_ = 0;
  uint64_t pending_first_lsn_ = 0;
  bool sync_in_flight_ = false;
  /// Bumped when a failed commit drops pending records; waiters whose
  /// epoch changed know their record was discarded.
  uint64_t commit_epoch_ = 0;
  /// One entry per epoch bump: the epoch it ended and how far the log
  /// was durable at that instant. A ticket from epoch E with
  /// lsn <= drops_[E].durable_lsn committed before the failure; any
  /// later lsn was dropped (and possibly reused). Grows only on commit
  /// failures, resets on Open.
  struct DropEvent {
    uint64_t epoch = 0;
    uint64_t durable_lsn = 0;
    Status status;
  };
  std::vector<DropEvent> drops_;
  Status last_error_ = Status::OK();
  bool poisoned_ = false;

  size_t appends_ = 0;
  size_t fsyncs_ = 0;
};

}  // namespace dbwipes

#endif  // DBWIPES_STORAGE_WAL_H_
