#ifndef DBWIPES_CORE_SESSION_MANAGER_H_
#define DBWIPES_CORE_SESSION_MANAGER_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbwipes/core/session.h"

namespace dbwipes {

/// \brief Per-session client settings (the Service's knobs that apply
/// to one session rather than the process).
struct SessionSettings {
  /// Per-debug wall-clock cap in ms; <= 0 means none.
  double deadline_ms = 0.0;
  /// Attach the Explain profile to debug responses.
  bool profile_enabled = false;
};

/// \brief The part of a session's history that its Session cannot
/// give back: the SQL text and the metric as the client sent them.
struct SessionOrigin {
  /// The original SQL text; "" = no query executed yet.
  std::string original_sql;
  bool has_metric = false;
  /// Wire name of the metric ("too_high", ...) plus its parameters.
  std::string metric_kind;
  double metric_expected = 0.0;
  size_t agg_index = 0;
};

/// \brief Replayable record of how a session reached its current
/// state — exactly what a crash-consistent snapshot persists. The
/// Service builds it when it takes a snapshot, from the session's
/// origin and the Session's own selections and cleaning predicates;
/// restore replays it against a fresh Session (query, then cleaning
/// predicates, then selections, then the metric).
struct SessionReplay : SessionOrigin {
  std::vector<Predicate> applied_predicates;
  std::vector<size_t> selected_groups;
  std::vector<RowId> selected_inputs;
};

/// \brief One named session plus everything the concurrent service
/// needs around it: the serialization mutex, client settings, the
/// session's origin for snapshots, and the cancellation seam.
///
/// Locking: `mu` serializes command execution on the session (hold it
/// for the whole command). `cancel_mu` guards only the cancellation
/// fields and must be acquirable while `mu` is held by a debug in
/// flight — that is the one cross-thread interaction; never take `mu`
/// while holding `cancel_mu`.
struct ManagedSession {
  ManagedSession(std::shared_ptr<Database> db, ExplainOptions options)
      : session(std::move(db), std::move(options)) {}

  /// Serializes commands on this session.
  std::mutex mu;
  Session session;
  SessionSettings settings;
  SessionOrigin origin;

  /// Cross-thread cancellation seam (see class comment).
  std::mutex cancel_mu;
  std::shared_ptr<CancellationSource> active_cancel;
  bool pending_cancel = false;
};

/// \brief Owns many named sessions: per-session serialization (each
/// entry carries its own mutex), concurrent cross-session execution
/// (the manager's map lock is held only for lookup, never during
/// command execution), and idle-session eviction.
///
/// Entries are handed out as shared_ptr, so Drop()/EvictIdle() while a
/// command is in flight is safe: the map entry disappears but the
/// in-flight holder keeps the session alive until it finishes.
class SessionManager {
 public:
  struct Options {
    /// Hard cap on live sessions; GetOrCreate past the cap tries to
    /// evict an idle session first and otherwise fails with
    /// kResourceExhausted (a transient error — clients may retry).
    size_t max_sessions = 64;
    /// Sessions idle longer than this are evictable; <= 0 means only
    /// explicit eviction/drop removes sessions.
    double idle_timeout_ms = 0.0;
  };

  SessionManager(std::shared_ptr<Database> db, ExplainOptions explain_options);
  SessionManager(std::shared_ptr<Database> db, ExplainOptions explain_options,
                 Options options);

  /// Looks up `name`, creating the session on first use. Updates the
  /// entry's last-used time.
  Result<std::shared_ptr<ManagedSession>> GetOrCreate(const std::string& name);

  /// Looks up `name` without creating; null when absent.
  std::shared_ptr<ManagedSession> Find(const std::string& name);

  /// Removes `name` from the map (in-flight holders keep it alive).
  Status Drop(const std::string& name);

  /// Session names, sorted (with per-entry idle ms).
  std::vector<std::string> Names() const;
  /// Milliseconds since the session was last acquired; negative when
  /// the session does not exist.
  double IdleMs(const std::string& name) const;

  size_t size() const;

  /// Evicts every session idle longer than `idle_ms` (skipping any
  /// whose mutex is currently held). Returns the number evicted.
  size_t EvictIdleOlderThan(double idle_ms);
  /// EvictIdleOlderThan(options.idle_timeout_ms); no-op when the
  /// timeout is unset.
  size_t EvictIdle();

  const std::shared_ptr<Database>& database() const { return db_; }
  const ExplainOptions& explain_options() const { return explain_options_; }
  const Options& options() const { return options_; }

  /// Session names are `[A-Za-z0-9_.-]{1,64}` so the `@name` command
  /// routing prefix stays unambiguous.
  static Status ValidateName(const std::string& name);

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    std::shared_ptr<ManagedSession> session;
    Clock::time_point last_used;
  };

  std::shared_ptr<Database> db_;
  ExplainOptions explain_options_;
  Options options_;

  mutable std::mutex mu_;  // guards entries_ only
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace dbwipes

#endif  // DBWIPES_CORE_SESSION_MANAGER_H_
