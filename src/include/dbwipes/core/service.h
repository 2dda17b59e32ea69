#ifndef DBWIPES_CORE_SERVICE_H_
#define DBWIPES_CORE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dbwipes/common/retry.h"
#include "dbwipes/common/telemetry.h"
#include "dbwipes/core/session_manager.h"
#include "dbwipes/storage/wal.h"

namespace dbwipes {

struct ServiceSnapshot;  // core/snapshot.h
class ReplicationServer;  // replication/replication.h
class ReplicationClient;
class ShardSet;  // storage/shard.h
// The command table's types, defined in service.cc (DESIGN.md §5g).
struct ServiceCommand;
class ServiceCall;
struct ServiceReply;

/// \brief Configuration for the resilient service layer.
struct ServiceOptions {
  ExplainOptions explain;
  SessionManager::Options sessions;

  /// Durability. When `wal.dir` is non-empty the constructor enables
  /// the write-ahead log there — recovering any existing snapshot +
  /// log first — exactly as `wal on <dir>` would. `wal.checkpoint_bytes`
  /// sets the auto-checkpoint threshold.
  WalOptions wal;

  /// Worker threads draining the admission queue. 0 keeps the service
  /// purely synchronous: Execute() works, Submit() fails cleanly.
  size_t num_workers = 0;
  /// Bounded request queue: Submit() beyond this sheds immediately.
  size_t queue_capacity = 64;
  /// Shed when the bytes of queued request lines would exceed this
  /// watermark (guards against a few giant requests exhausting memory
  /// long before the queue is full by count).
  size_t queue_memory_watermark_bytes = 64u << 20;
  /// retry_after_ms hint attached to shed responses.
  double shed_retry_after_ms = 25.0;

  /// Applied to transient `debug` failures; the attempt count lands in
  /// the Explain profile. max_attempts = 1 disables retries. The
  /// policy's sleep_fn seam is honored (tests capture backoffs).
  RetryPolicy retry;

  /// Request-telemetry knobs (DESIGN.md §5k). The background threads
  /// (sampler + watchdog) default OFF so embedded/test services stay
  /// single-threaded and fork-safe; dbwipes_server turns them on.
  /// Request-id stamping and the slow-request log are always-on
  /// per-request features, not threads.
  struct TelemetryOptions {
    /// Sample MetricsRegistry into the TelemetryHistory ring at
    /// `sample_interval_ms` cadence (the `history` command's source).
    bool history_enabled = false;
    double sample_interval_ms = 100.0;

    /// Watchdog thread: flags requests in flight longer than
    /// `stall_threshold_ms`, deadline overruns and stuck WAL fsyncs
    /// (DESIGN.md §5k), via `watchdog.*` alert counters and instant
    /// trace events.
    bool watchdog_enabled = false;
    double watchdog_interval_ms = 100.0;
    double stall_threshold_ms = 5000.0;

    /// Slow-request log threshold: requests at or above this emit one
    /// structured JSON line (stderr, "SLOWREQ " prefix) and land in
    /// the `slowlog` ring. >= 0 takes effect directly; < 0 defers to
    /// the DBWIPES_SLOW_MS environment variable; with neither set the
    /// log is off.
    double slow_ms = -1.0;
    size_t slow_log_entries = 64;
  };
  TelemetryOptions telemetry;

  /// Primary/follower replication knobs (DESIGN.md §5l). Both roles
  /// can also be entered at runtime via the `replicate` command; these
  /// options just wire them up at construction.
  struct ReplicationOptions {
    /// >= 0 starts a replication listener on that port (0 picks an
    /// ephemeral port, readable from `replication status`). Requires
    /// the WAL to be enabled via `wal.dir`.
    int listen_port = -1;
    /// Non-empty ("host:port") starts this node as a read-only
    /// follower of that primary.
    std::string follow;
    /// Follower: socket recv/send timeout; a primary silent for this
    /// long triggers a reconnect (with backoff).
    double heartbeat_timeout_ms = 1000.0;
    /// Follower reconnect backoff ladder.
    RetryPolicy reconnect;
    /// Fault injector for the replication sites (repl/*); falls back
    /// to the service-wide injector when null.
    FaultInjector* faults = nullptr;
  };
  ReplicationOptions replication;
};

/// \brief Machine-facing façade over named sessions: a line-oriented
/// command protocol with JSON responses, admission control, and
/// crash-consistent snapshots.
///
/// This is the seam where the paper's web frontend attaches — every
/// dashboard gesture maps to one command, and every response is a JSON
/// document the visualization can render. The REPL example is the
/// human sibling of this interface.
///
/// Commands (one per line; single-quoted SQL-style strings). Any
/// command may be prefixed with `@<session>` to route it to a named
/// session (created on first use); without the prefix it runs on the
/// implicit session "main":
///   sql <query>                  run an aggregate query
///   result                       current result rows
///   select_range <agg> <lo> <hi> brush result groups by value range
///   select_groups <i> <j> ...    brush result groups by index
///   inputs_where <filter>        select D' among the zoomed tuples
///   metrics [agg_index]          list suggested error metrics
///   metric <kind> <expected> [agg_index]
///                                set the metric; kind in {too_high,
///                                too_low, not_equal, total_above,
///                                total_below}
///   debug                        run the backend, return ranked
///                                predicates (JSON); transient
///                                failures are retried per the retry
///                                policy (attempts recorded in the
///                                profile)
///   set_deadline <ms>            cap each debug run's wall clock;
///                                0 or negative clears the deadline
///   cancel                       cancel the in-flight debug (from
///                                another thread), or arm a pending
///                                cancel for the next one
///   clean <i>                    apply ranked predicate i
///   clean_where <predicate>      apply an explicit predicate
///   undo                         remove the last cleaning predicate
///   reset                        drop all cleaning predicates
///   state                        session status summary
///   session list                 live sessions with idle times
///   session drop <name>          remove a session
///   session evict [idle_ms]      evict sessions idle > idle_ms
///   snapshot save <path>         checksummed crash-consistent dump of
///                                all sessions + loaded tables + shard
///                                layouts
///   snapshot load <path>         validate and restore a snapshot
///                                (all-or-nothing)
///   retry <max_attempts> [initial_backoff_ms] | retry off
///                                configure the transient-retry policy
///   ping [ms]                    liveness probe (optionally sleeps)
///   shards <table> <count>       partition a loaded table into
///                                <count> contiguous range shards
///                                (count in [1, 256]); later appends
///                                route to the tail shard and explains
///                                run shard-parallel
///   append <table> <v1> ...      append one row to a sharded table's
///                                tail shard (one value per schema
///                                column; `null` for NULL)
///   stats                        process-wide metrics snapshot (JSON)
///                                plus per-table shard layout: shard
///                                count, per-shard row counts, cached
///                                clause bitmaps per shard
///   history [metric] [window_ms] sampled time series: no args lists
///                                the series; with a metric returns its
///                                [t_ms, value] points (optionally only
///                                the last window_ms)
///   slowlog                      recent slow-request log entries
///                                (structured JSON, newest last)
///   wal on <dir>                 enable the write-ahead log in <dir>,
///                                first recovering any snapshot + log
///                                already there (latest valid snapshot
///                                + replay of newer records)
///   wal off                      checkpoint, then disable the log
///   wal checkpoint               snapshot the world + truncate the
///                                log's retired segments
///   wal status                   durability status JSON: lsns,
///                                segments, bytes, replay/recovery
///                                stats, last checkpoint error
///   profile on|off               attach the per-Explain profile to
///                                debug responses (per session)
///   trace on|off                 enable/disable the pipeline tracer
///   trace <path>                 write recorded spans to <path> as
///                                Chrome trace_event JSON
///
/// Every response is a JSON object: {"ok": true, ...} on success or
/// {"ok": false, "error": "..."} on failure — errors never throw.
/// Every response additionally carries "rid": N, the request's
/// process-unique id, which the same request stamps into its trace
/// spans, log lines, ExplainProfile, and WAL frames (end-to-end
/// correlation; DESIGN.md §5k). An unknown subcommand of a multi-word
/// command (e.g. `profile bogus`) fails with the offending token in
/// the error; a missing or malformed argument (e.g. `retry 3 abc`)
/// fails with the command's usage text. Failures that may
/// clear on their own (overload, session-limit, I/O) additionally
/// carry "retryable": true. A debug run wound down early by a
/// deadline or cancel responds {"ok": true, "partial": true,
/// "reason": "...", ...}.
///
/// Durability: with the WAL on, every acknowledged state-mutating
/// command (sql, select_range, select_groups, inputs_where, metric,
/// clean — logged as the clean_where it resolved to — clean_where,
/// undo, reset, set_deadline, profile, retry, session drop, shards,
/// append) is logged — and group-commit fsynced —
/// BEFORE its ok response returns, so a crash after the ack never
/// loses it: recovery = latest valid snapshot + replay of newer log
/// records. Should the log append itself fail after the in-memory
/// apply, the response reports {"ok": false, "durability": "lost",
/// "applied": true} — the operation took effect but is not crash-safe
/// (deliberately NOT marked retryable: re-running it would double-
/// apply). Reads (debug/result/state/stats) and `cancel` are never
/// logged and never wait on the checkpoint gate. A follower refuses
/// the logged commands plus `snapshot load` and `wal on|off`.
///
/// Threading: Execute() is fully thread-safe — commands on the same
/// session serialize on that session's mutex while commands on
/// different sessions run concurrently; `cancel` reaches an in-flight
/// `debug` without blocking behind it. Start() spins up the worker
/// pool behind Submit(), the queued entry point with admission
/// control: when the queue is full (or the memory watermark is
/// crossed) requests are rejected immediately with
/// {"ok": false, "retryable": true, "reason": "overloaded",
///  "retry_after_ms": ...} instead of queueing unboundedly. Stop()
/// drains the queue — accepted requests are never silently dropped.
class Service {
 public:
  explicit Service(std::shared_ptr<Database> db, ExplainOptions options = {});
  Service(std::shared_ptr<Database> db, ServiceOptions options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Executes one command line synchronously, returning the JSON
  /// response. Thread-safe (see class comment).
  std::string Execute(const std::string& line);

  /// Starts the worker pool (requires options.num_workers > 0).
  Status Start();
  /// Drains the queue and joins the workers. Idempotent.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Queued entry point with admission control. The future always
  /// resolves: with the command's response, or immediately with an
  /// overloaded/not-running rejection.
  std::future<std::string> Submit(std::string line);

  /// The implicit "main" session (for tests and embedding). A query or
  /// metric set directly on it bypasses the session's origin, which
  /// snapshots record them from.
  Session& session();
  SessionManager& sessions() { return *manager_; }

  /// Debug runs hit this (not owned; may be null). Test seam for the
  /// fault matrix.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Sampled metric time series behind the `history` command (always
  /// allocated; only populated while telemetry.history_enabled).
  TelemetryHistory& history() { return history_; }

 private:
  struct QueuedRequest {
    std::string line;
    uint64_t rid = 0;  // assigned at admission so sheds are correlated
    std::promise<std::string> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One live request, tracked for the watchdog: begin/end bracket
  /// Execute, RunDebug upgrades the entry with the session deadline.
  struct InflightRequest {
    std::string cmd;  // first token (plus session route) of the line
    double start_ms = 0.0;
    double deadline_ms = 0.0;  // 0 = none
    bool stall_alerted = false;
    bool deadline_alerted = false;
  };

  /// Execute body with an externally-assigned request id (Submit
  /// assigns at admission; Execute assigns fresh): dispatches the line,
  /// counts an error, writes the slow log, and renders the reply.
  std::string ExecuteWithRid(const std::string& line, uint64_t rid);
  /// Looks the command up in the table and runs it with what its row
  /// implies: role rejection, session resolution, the gate, the
  /// ordering lock and WAL logging.
  ServiceReply ExecuteCommand(const std::string& line);
  /// The command table's row for `name`; null when there is none.
  static const ServiceCommand* FindCommand(const std::string& name);
  ServiceReply RunDebug(ManagedSession& ms);
  ServiceReply HandleSession(ServiceCall& call);
  ServiceReply HandleSnapshot(ServiceCall& call);
  ServiceReply HandleRetry(ServiceCall& call);
  ServiceReply HandleStats(ServiceCall& call);
  ServiceReply HandleShards(ServiceCall& call);
  ServiceReply HandleAppend(ServiceCall& call);
  ServiceReply HandleWal(ServiceCall& call);
  ServiceReply HandleHistory(ServiceCall& call);
  RetryPolicy CurrentRetryPolicy() const;
  /// The live database (snapshot load may swap it at any time).
  std::shared_ptr<Database> CurrentDatabase();
  void WorkerLoop();

  // --- Request telemetry (DESIGN.md §5k) ---

  void TrackInflightBegin(uint64_t rid, const std::string& line,
                          double start_ms);
  void TrackInflightEnd(uint64_t rid);
  /// RunDebug publishes the session deadline so the watchdog can tell
  /// "slow" from "past its promised deadline".
  void SetInflightDeadline(uint64_t rid, double deadline_ms);
  /// Appends a slow-request entry (and mirrors it to stderr) when the
  /// request's wall time crosses the threshold.
  void MaybeSlowLog(uint64_t rid, const std::string& line, double elapsed_ms,
                    const ServiceReply& reply);
  void StartTelemetryThreads();
  void StopTelemetryThreads();
  void SamplerLoop();
  void WatchdogLoop();
  void SampleOnce();
  void WatchdogScan();

  // --- Durability (see the class comment) ---

  /// Read leases on every sharded table, with the sets they lock.
  struct ShardLeases {
    std::vector<std::shared_ptr<ShardSet>> sets;
    std::vector<std::shared_lock<std::shared_mutex>> leases;
  };
  /// Serializes the whole live world — every session (under its mutex)
  /// then every shard layout (under its read lease) then the tables —
  /// into `snapshot`, prefix-consistent against concurrent appends.
  /// Returns the leases: a gate-free `snapshot save` holds them until
  /// the file is written, so no append can tear a table mid-save.
  ShardLeases CollectSnapshot(ServiceSnapshot* snapshot);
  /// Validates and rebuilds a world from `snapshot` off to the side,
  /// then swaps it in under a brief exclusive state_mu_ hold (the
  /// `snapshot load` body). Any failure leaves the live state intact.
  Status LoadWorld(const ServiceSnapshot& snapshot);
  /// Opens/recovers the WAL in `dir`: loads `dir`/snapshot.dbw when
  /// present, replays newer records by re-executing their command
  /// lines, then checkpoints. Caller holds wal_gate_ exclusively with
  /// gate_owner_ set (replayed commands re-enter ExecuteCommand).
  Status EnableWalLocked(const std::string& dir);
  /// snapshot + rotate + truncate. Caller holds wal_gate_ exclusively.
  Status CheckpointLocked();
  /// Auto-checkpoint probe run after every command (outside all locks).
  void MaybeAutoCheckpoint();
  /// Stages `logged_line` into the WAL (no-op when off), releases
  /// `order` (when given), then blocks for durability — staging under
  /// the caller's ordering lock keeps log order == apply order, while
  /// waiting outside it lets concurrent clients share one group-commit
  /// fsync. Caller holds the gate shared. On failure rewrites `*reply`
  /// to the durability-lost form.
  void ApplyWalLog(const std::string& logged_line, ServiceReply* reply,
                   std::unique_lock<std::mutex>* order);
  bool ReplayingOnThisThread() const {
    return gate_owner_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  // --- Replication (DESIGN.md §5l) ---

  ServiceReply HandleReplicate(ServiceCall& call);
  ServiceReply HandleReplicationStatus();
  ServiceReply HandlePromote(ServiceCall& call);
  /// Caller holds repl_mu_. Lock order: repl_mu_, then wal_gate_.
  Status StartReplicationListenLocked(int port);
  Status StartReplicationFollowLocked(const std::string& target);
  /// Follower apply path: re-executes `body` under the exclusive gate
  /// in replay mode (original rid preserved, no internal logging),
  /// then stages the same line into the local WAL asserting it lands
  /// on exactly `lsn`, and waits for durability before acking.
  Status ApplyReplicatedFrame(uint64_t lsn, uint64_t rid,
                              const std::string& body);
  /// Follower bootstrap: validates the shipped checkpoint bytes, wipes
  /// the local log, reopens it starting at snapshot_lsn + 1, persists
  /// the snapshot locally, and swaps the world in.
  Status InstallReplicaSnapshot(const std::string& bytes,
                                uint64_t snapshot_lsn);
  /// Primary side of snapshot catch-up: returns the checkpoint file's
  /// bytes plus its wal_lsn, checkpointing first when the existing
  /// file is missing, invalid, or no longer tailable.
  Result<std::pair<std::string, uint64_t>> ReplicationSnapshotImage();
  /// Records a peer-observed epoch: maxes repl_seen_epoch_, adopts a
  /// newer epoch when following, fences this node when primary.
  void ObserveReplicationEpoch(uint64_t epoch);
  /// Stops client then server (outside repl_mu_ — their threads call
  /// back into the service). Used by `replicate stop` and teardown.
  void StopReplication();

  /// Replication lifecycle lock (server/client start/stop, promote).
  /// Lock order: repl_mu_ before wal_gate_; never taken from the
  /// replication threads themselves.
  std::mutex repl_mu_;
  std::unique_ptr<ReplicationServer> repl_server_;
  std::unique_ptr<ReplicationClient> repl_client_;
  size_t repl_promotions_ = 0;    // under repl_mu_
  std::string repl_last_error_;   // under repl_mu_
  /// Serializes repl-epoch file writes (leaf lock — safe from the
  /// replication threads).
  std::mutex epoch_file_mu_;
  std::atomic<bool> follower_{false};
  std::atomic<bool> repl_fenced_{false};
  /// This node's replication epoch (persisted in <wal dir>/repl-epoch).
  std::atomic<uint64_t> repl_epoch_{1};
  /// Highest epoch ever observed from any peer (>= repl_epoch_).
  std::atomic<uint64_t> repl_seen_epoch_{1};
  /// Highest lsn locally applied+durable from the replication stream.
  std::atomic<uint64_t> repl_last_applied_{0};
  /// Remembers the WAL directory across InstallReplicaSnapshot's
  /// close/wipe/reopen cycle (and failed reopens).
  std::string wal_dir_hint_;

  ServiceOptions options_;

  /// Guards the db_/manager_/default_session_ trio as a unit. Commands
  /// hold it shared just long enough to resolve their session; snapshot
  /// load builds the restored world off to the side and swaps the trio
  /// under a brief exclusive hold, so new commands atomically see the
  /// new world while in-flight ones finish against the old (kept alive
  /// by shared_ptr). No path ever blocks on this lock while holding a
  /// session mutex, so `cancel` always gets through.
  std::shared_mutex state_mu_;
  std::shared_ptr<Database> db_;
  std::unique_ptr<SessionManager> manager_;
  std::shared_ptr<ManagedSession> default_session_;

  FaultInjector* faults_ = nullptr;

  /// The checkpoint gate. State-mutating commands hold it SHARED for
  /// the duration of apply+log; checkpoint, `wal on|off`, and
  /// `snapshot load` hold it EXCLUSIVE, so a checkpoint observes a
  /// world where every logged command is either fully applied+logged
  /// or not started — the invariant that makes snapshot.wal_lsn exact.
  /// Reads and `cancel` never touch it. Lock order: gate, then the
  /// session mutex / append_wal_mu_, then shard leases / the WAL's
  /// internal mutex.
  std::shared_mutex wal_gate_;
  /// Thread currently holding the gate exclusively for recovery; its
  /// re-entrant ExecuteCommand calls (replay) skip gate acquisition
  /// and logging.
  std::atomic<std::thread::id> gate_owner_{};
  /// Serializes apply+log for process-wide mutations (append/shards/
  /// retry/session drop) so WAL order matches apply order; per-session
  /// commands get the same guarantee from the session mutex.
  std::mutex append_wal_mu_;
  /// Non-null while the WAL is on. Written under the exclusive gate,
  /// read under the shared gate (or by the gate owner).
  std::unique_ptr<WriteAheadLog> wal_;
  FaultInjector* wal_faults_ = nullptr;  // resolved at enable time
  // Recovery/checkpoint bookkeeping, guarded by wal_gate_.
  uint64_t wal_snapshot_lsn_ = 0;   // lsn the last checkpoint covered
  size_t wal_replayed_ = 0;         // records replayed at last enable
  size_t wal_replay_errors_ = 0;    // replayed commands answering not-ok
  double wal_recovery_ms_ = 0.0;
  size_t wal_checkpoints_ = 0;
  std::string wal_last_error_;      // last async checkpoint failure
  std::atomic<bool> wal_enabled_{false};  // cheap probe for the hot path

  /// Retry knobs adjustable at runtime via the `retry` command.
  std::atomic<size_t> retry_max_attempts_;
  std::atomic<double> retry_backoff_ms_;

  // --- Request telemetry ---
  TelemetryHistory history_;
  /// Resolved slow-log threshold: options.telemetry.slow_ms, else
  /// DBWIPES_SLOW_MS, else -1 (disabled).
  double slow_threshold_ms_ = -1.0;
  std::mutex slowlog_mu_;
  std::deque<std::string> slowlog_;  // newest at the back
  std::mutex inflight_mu_;
  std::unordered_map<uint64_t, InflightRequest> inflight_;
  std::mutex telemetry_mu_;  // pairs with telemetry_cv_ for shutdown
  std::condition_variable telemetry_cv_;
  bool telemetry_stop_ = false;
  std::thread sampler_;
  std::thread watchdog_;
  /// Alerted fsync episode (its start timestamp); suppresses repeat
  /// alerts for the same stuck fsync.
  double fsync_alerted_since_ = 0.0;

  // --- Admission queue ---
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<QueuedRequest> queue_;
  size_t queued_bytes_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
};

}  // namespace dbwipes

#endif  // DBWIPES_CORE_SERVICE_H_
