#ifndef DBWIPES_CORE_SNAPSHOT_H_
#define DBWIPES_CORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/core/session_manager.h"
#include "dbwipes/storage/table.h"

namespace dbwipes {

/// \brief Everything needed to rebuild a service after a crash: the
/// loaded tables (by registration name) and, per session, the client
/// settings plus the replayable interaction record.
///
/// Explanations are deliberately not persisted — they are recomputable
/// (and the restore oracle is exactly that: re-running `debug` on a
/// restored session reproduces the pre-crash ranking byte for byte).
struct ServiceSnapshot {
  struct SessionState {
    std::string name;
    SessionSettings settings;
    SessionReplay replay;
  };

  /// A sharded table's partition boundaries. Only the per-shard row
  /// counts are persisted — shard contents, dictionaries, and codes
  /// are all reproducible from the fused table plus the boundaries
  /// (codes are first-appearance within each shard), so a restore
  /// rebuilds every shard byte for byte via ShardSet::CreateWithRows.
  struct ShardLayout {
    std::string table;  // registration name in `tables`
    std::vector<uint64_t> shard_rows;
  };

  /// registration name -> table (a sharded table's fused view).
  std::vector<std::pair<std::string, TablePtr>> tables;
  std::vector<SessionState> sessions;
  std::vector<ShardLayout> shard_layouts;  // format v2+; empty in v1
  /// The WAL LSN this snapshot is consistent through: recovery replays
  /// only records with lsn > wal_lsn. 0 in v1/v2 files and in snapshots
  /// saved with the WAL off (replay everything / nothing to replay).
  uint64_t wal_lsn = 0;  // format v3+
  /// Process-level runtime settings (v3+): the `retry` command's knobs.
  /// Logged `retry` records older than the checkpoint are truncated
  /// away, so the checkpoint itself must carry the current values.
  /// max_attempts 0 = not recorded (v1/v2 files); restore keeps the
  /// configured default.
  uint32_t retry_max_attempts = 0;
  double retry_backoff_ms = 0.0;
};

/// On-disk format version this build writes. Version history:
///   1 — tables + sessions (PR 5).
///   2 — adds shard layouts after the session section.
///   3 — adds the WAL checkpoint LSN after the shard layouts.
/// This build reads versions 1..3 (older files simply lack the later
/// sections) and refuses anything newer with a precise error.
constexpr uint32_t kSnapshotFormatVersion = 3;

/// Writes `snapshot` to `path` crash-consistently AND durably through
/// ReplaceFileDurably (storage/durable_io.h): a temporary sibling file
/// is fsynced, atomically renamed over `path`, and sealed with an
/// fsync of the parent directory — so a crash (or power cut) mid-save
/// leaves either the old snapshot or the new one, never a torn mix, and
/// a completed save actually survives the cut. The payload is
/// FNV-1a-64 checksummed and carries a magic + format version header.
/// `faults` (test-only) hits the "snapshot/*" I/O sites.
Status WriteSnapshot(const std::string& path, const ServiceSnapshot& snapshot,
                     FaultInjector* faults = nullptr);

/// Reads and fully validates a snapshot: magic, format version,
/// declared payload length, checksum, and every field bound are
/// checked before anything is returned, so a truncated, bit-flipped,
/// or foreign-version file fails with a precise error and can never be
/// partially applied.
Result<ServiceSnapshot> ReadSnapshot(const std::string& path);

/// Same validation as ReadSnapshot, but over an in-memory file image.
/// Replication uses this to read the checkpoint file once and parse
/// the very bytes it ships, so the snapshot a follower installs and
/// the LSN it tails from can never disagree. `origin` labels errors.
Result<ServiceSnapshot> ReadSnapshotFromBytes(const std::string& file,
                                              const std::string& origin);

/// Serializes/parses the snapshot payload without the file envelope
/// (exposed for tests; Write/ReadSnapshot add the header + checksum).
/// `version` selects the section set to expect — pass the envelope's
/// version when parsing an older file.
std::string SerializeSnapshotPayload(const ServiceSnapshot& snapshot);
Result<ServiceSnapshot> ParseSnapshotPayload(
    std::string_view payload, uint32_t version = kSnapshotFormatVersion);

}  // namespace dbwipes

#endif  // DBWIPES_CORE_SNAPSHOT_H_
