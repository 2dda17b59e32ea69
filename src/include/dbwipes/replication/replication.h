#ifndef DBWIPES_REPLICATION_REPLICATION_H_
#define DBWIPES_REPLICATION_REPLICATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/common/result.h"
#include "dbwipes/common/retry.h"
#include "dbwipes/storage/wal.h"

namespace dbwipes {

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------
//
// Length-prefixed little-endian messages over a plain TCP socket:
// [u32 payload_len][u8 type][u64 a][u64 b][u64 c][payload bytes]. The
// three u64 slots carry per-type metadata (documented per type below);
// `payload` carries frame bodies, snapshot chunks, or refusal text.
//
// Session shape: the follower dials and sends HELLO(epoch,
// last_applied_lsn). The primary fences (REFUSE) or answers
// WELCOME(epoch, start_lsn, needs_snapshot). When the log no longer
// reaches start_lsn the WELCOME is followed by SNAPSHOT_META /
// SNAPSHOT_CHUNK* / SNAPSHOT_DONE before any FRAME. From then on the
// primary streams FRAME messages as records become durable,
// interleaved with HEARTBEATs; the follower answers with ACK
// (applied_lsn) which drives the primary's lag gauge.

enum class ReplMsgType : uint8_t {
  kHello = 1,         // a=proto version, b=epoch, c=last applied lsn
  kWelcome = 2,       // a=epoch, b=start lsn (stream begins after it),
                      // c=1 when a snapshot transfer follows
  kSnapshotMeta = 3,  // a=snapshot lsn, b=total bytes
  kSnapshotChunk = 4, // payload=raw snapshot file bytes (<=64 KiB)
  kSnapshotDone = 5,  // a=Fnv1a64 of the whole snapshot file
  kFrame = 6,         // a=lsn, b=rid, c=FrameChecksum (the WAL's own),
                      // payload=command body
  kHeartbeat = 7,     // a=epoch, b=primary durable lsn
  kAck = 8,           // a=follower applied lsn
  kRefuse = 9,        // a=speaker's epoch, payload=reason text
};

constexpr uint64_t kReplProtocolVersion = 1;

struct ReplMessage {
  ReplMsgType type = ReplMsgType::kHello;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  std::string payload;
};

std::string EncodeReplMessage(const ReplMessage& m);

/// Blocking send/recv of one message on `fd`. Both honor the socket's
/// SO_SNDTIMEO/SO_RCVTIMEO; a timeout surfaces as an IoError mentioning
/// "timed out". `max_payload` guards against garbage lengths.
Status WriteReplMessage(int fd, const ReplMessage& m);
Status ReadReplMessage(int fd, ReplMessage* out,
                       size_t max_payload = 256u << 20);

// ---------------------------------------------------------------------------
// Epoch persistence
// ---------------------------------------------------------------------------

/// Reads `dir`/repl-epoch. Absent file = epoch 1 (every node starts in
/// the first epoch); a malformed file is an error, not a silent reset —
/// inventing a low epoch could un-fence a stale primary.
Result<uint64_t> LoadReplicationEpoch(const std::string& dir);

/// Durably records `epoch` in `dir` through ReplaceFileDurably (write,
/// fsync, rename, directory fsync; any failure is returned). Called
/// before a promotion takes effect, so a crashed-and-restarted new
/// primary can never come back believing an older epoch.
Status StoreReplicationEpoch(const std::string& dir, uint64_t epoch);

// ---------------------------------------------------------------------------
// ReplicationServer (primary side)
// ---------------------------------------------------------------------------

struct ReplicationServerOptions {
  /// Port to listen on (loopback); 0 picks an ephemeral port.
  uint16_t port = 0;
  /// Per-read bound while handshaking / reading ACKs.
  double recv_timeout_ms = 5000.0;
  /// "repl/*" fault sites fire through this when non-null (tests).
  FaultInjector* faults = nullptr;
};

/// \brief Streams durable WAL frames to followers.
///
/// One accept thread plus one thread per connected follower. Each
/// follower thread loops: poll for ACKs, ship every newly durable
/// record via WriteAheadLog::ReplayDurable (race-safe tailing read),
/// heartbeat on the interval. All state the server needs from its host
/// comes through `Source` callbacks so the library never depends on
/// the service layer.
class ReplicationServer {
 public:
  struct Source {
    /// Must outlive the server; Stop() before closing the log.
    WriteAheadLog* wal = nullptr;
    std::function<uint64_t()> epoch;
    /// A higher epoch was seen on the wire (stale-primary fencing).
    std::function<void(uint64_t)> observe_epoch;
    /// The checkpoint file image + the LSN it is consistent through,
    /// read atomically (same bytes, same lsn). Used for bootstrap.
    std::function<Result<std::pair<std::string, uint64_t>>()> snapshot;
  };

  struct Stats {
    bool running = false;
    uint16_t port = 0;
    size_t followers = 0;       // currently connected
    uint64_t min_acked_lsn = 0; // lowest ACK across connections (0: none)
    uint64_t frames_sent = 0;
    uint64_t snapshots_sent = 0;
    uint64_t epoch_refusals = 0;
  };

  ReplicationServer() = default;
  ~ReplicationServer();
  ReplicationServer(const ReplicationServer&) = delete;
  ReplicationServer& operator=(const ReplicationServer&) = delete;

  Status Start(ReplicationServerOptions options, Source source);
  void Stop();
  uint16_t port() const { return port_; }
  Stats stats() const;

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<uint64_t> acked_lsn{0};
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeFollower(Conn* conn);
  /// One streaming round: ship frames in (last_sent, durable]; returns
  /// the new last_sent or an error when the connection should drop.
  Result<uint64_t> ShipFrames(int fd, uint64_t last_sent);

  ReplicationServerOptions options_;
  Source source_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  mutable std::mutex mu_;  // conns_ + counters
  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t frames_sent_ = 0;
  uint64_t snapshots_sent_ = 0;
  uint64_t epoch_refusals_ = 0;
};

// ---------------------------------------------------------------------------
// ReplicationClient (follower side)
// ---------------------------------------------------------------------------

struct ReplicationClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// No heartbeat or frame for this long = dead primary: reconnect.
  double heartbeat_timeout_ms = 2000.0;
  /// Backoff between reconnect attempts (decorrelated jitter
  /// recommended — a herd of followers should not redial in lockstep).
  RetryPolicy reconnect;
  FaultInjector* faults = nullptr;
};

/// \brief Tails a primary, applying frames through host callbacks.
///
/// One thread: connect, HELLO, then apply whatever the primary sends
/// (snapshot bootstrap and/or frames). Any error — timeout, refused
/// connect, corrupt frame — tears the connection down and redials
/// after a backoff, resuming from last_applied(). The loop only stops
/// for Stop() or a fencing verdict (the primary's epoch is stale, or
/// it refused ours): retrying a fenced pairing cannot succeed.
class ReplicationClient {
 public:
  struct Callbacks {
    std::function<uint64_t()> last_applied;
    std::function<uint64_t()> epoch;
    /// The primary's (higher or equal) epoch, to adopt + persist.
    std::function<void(uint64_t)> observe_epoch;
    /// Apply one replicated command. An error here forces a snapshot
    /// resync (the local log diverged or refused the frame's LSN).
    std::function<Status(uint64_t lsn, uint64_t rid,
                         const std::string& body)> apply;
    /// Install a checkpoint image consistent through snapshot_lsn,
    /// replacing all local state and the local log.
    std::function<Status(const std::string& bytes, uint64_t snapshot_lsn)>
        install_snapshot;
  };

  struct Stats {
    bool running = false;
    bool connected = false;
    /// The pairing is dead by epoch: either side refused the other.
    bool fenced = false;
    uint64_t source_epoch = 0;
    uint64_t source_durable_lsn = 0;  // from the last heartbeat
    uint64_t reconnects = 0;
    uint64_t frames_applied = 0;
    uint64_t snapshot_installs = 0;
    uint64_t corrupt_frames = 0;
    std::string last_error;
  };

  ReplicationClient() = default;
  ~ReplicationClient();
  ReplicationClient(const ReplicationClient&) = delete;
  ReplicationClient& operator=(const ReplicationClient&) = delete;

  Status Start(ReplicationClientOptions options, Callbacks callbacks);
  /// Joins the tail thread; safe to call twice. After Stop no callback
  /// is in flight.
  void Stop();
  Stats stats() const;

 private:
  void Run();
  /// One connection lifetime; returns false when the loop should stop
  /// for good (Stop() or fenced).
  bool RunOnce();
  void SetError(const std::string& what);

  ReplicationClientOptions options_;
  Callbacks callbacks_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> fenced_{false};
  std::atomic<int> fd_{-1};
  std::thread thread_;
  /// Next HELLO advertises lsn 0 to force a snapshot bootstrap (set
  /// after divergence: an apply failure or an LSN gap in the stream).
  std::atomic<bool> force_resync_{false};

  mutable std::mutex mu_;  // stats strings/counters
  Stats stats_;
};

}  // namespace dbwipes

#endif  // DBWIPES_REPLICATION_REPLICATION_H_
