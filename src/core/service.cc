#include "dbwipes/core/service.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/string_util.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/core/export.h"
#include "dbwipes/core/snapshot.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/expr/shard_cache.h"
#include "dbwipes/replication/replication.h"
#include "dbwipes/storage/durable_io.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {

/// One command's answer before it is rendered, once, as
/// `{"ok": <ok>, "rid": N<fields>}`.
struct ServiceReply {
  ServiceReply() = default;
  /// Implicit, so handlers can DBW_RETURN_NOT_OK: a failed status is an
  /// error reply, retryable when the failure may clear on its own.
  ServiceReply(const Status& status) : ok(status.ok()) {  // NOLINT
    if (ok) return;
    AddString("error", status.ToString());
    if (IsTransient(status)) Add("retryable", "true");
  }

  ServiceReply& Add(const std::string& key, const std::string& json) {
    fields.append(", \"").append(key).append("\": ").append(json);
    return *this;
  }
  template <std::unsigned_integral N>
    requires(!std::same_as<N, bool>)  // a flag is "true"/"false", not 1/0
  ServiceReply& Add(const std::string& key, N count) {
    return Add(key, std::to_string(count));
  }
  ServiceReply& AddString(const std::string& key, const std::string& text) {
    return Add(key, "\"" + JsonEscape(text) + "\"");
  }
  ServiceReply& Reason(const std::string& why) {
    reason = why;
    return AddString("reason", why);
  }
  std::string Render(uint64_t rid) const {
    std::string out = ok ? "{\"ok\": true" : "{\"ok\": false";
    if (rid != 0) out.append(", \"rid\": ").append(std::to_string(rid));
    out.append(fields).append("}");
    return out;
  }

  bool ok = true;
  std::string fields;    // `, "key": value` pairs, already JSON
  std::string reason;    // also among `fields`; the slow log repeats it
  std::string wal_line;  // logged instead of the request line, if set
  std::string stages;    // a debug's stage timings, for the slow log
};

namespace {

using Reply = ServiceReply;

/// Parses a whole token as a finite decimal number.
template <typename T>
bool ParseNumber(std::string_view token, T* out) {
  // from_chars takes no leading '+'; a command line may carry one.
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') {
    token.remove_prefix(1);
  }
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

}  // namespace

/// One command line being executed: its tokens, read left to right,
/// and the session it is routed to. Numbers parse strictly, so a
/// malformed one is a usage error rather than a silent default.
class ServiceCall {
 public:
  explicit ServiceCall(std::string_view line) : rest_(line) {}

  /// The next token without consuming it; "" at the end of the line.
  std::string_view Peek() {
    rest_ = Trim(rest_);
    return rest_.substr(0, rest_.find_first_of(" \t\n\v\f\r"));
  }
  /// Required values, in order: false when one is missing or malformed.
  template <typename... T>
  bool Read(T*... out) {
    return (ReadOne(out) && ...);
  }
  /// An optional value: false only when it is present but malformed.
  template <typename T>
  bool Maybe(T* out) {
    return Peek().empty() || ReadOne(out);
  }
  /// The rest of the line, trimmed.
  std::string Rest() { return std::string(Trim(std::exchange(rest_, {}))); }

  std::string route = "main";         // the `@name` route
  ManagedSession* ms = nullptr;       // null for process commands

 private:
  bool ReadOne(std::string* out) {
    *out = Peek();
    rest_.remove_prefix(out->size());
    return !out->empty();
  }
  template <typename T>
  bool ReadOne(T* out) {
    const std::string_view token = Peek();
    if (!ParseNumber(token, out)) return false;
    rest_.remove_prefix(token.size());
    return true;
  }

  std::string_view rest_;
};

/// One row of the command table: what the dispatcher must know about a
/// command before its handler runs (DESIGN.md §5g).
struct ServiceCommand {
  enum Scope {
    kProcess,
    kSession,          // under the session's mutex
    kSessionUnlocked,  // `cancel`, which must reach a debug holding it
  };
  enum Effect {
    kRead,
    kLogged,    // applied under the shared gate, then written to the WAL
    kUnlogged,  // refused on a follower, takes the exclusive gate itself
  };

  const char* name;
  Scope scope;
  Effect effect;
  /// The subcommands `effect` is limited to (others are reads); none
  /// listed means the whole command.
  const char* effect_subcommands[2];
  ServiceReply (*handler)(Service&, ServiceCall&);

  Effect EffectOf(std::string_view subcommand) const {
    if (effect_subcommands[0] == nullptr) return effect;
    for (const char* sub : effect_subcommands) {
      if (sub != nullptr && subcommand == sub) return effect;
    }
    return kRead;
  }
};

namespace {

using Call = ServiceCall;

/// TelemetryHistory ring capacity per series — bounds memory at
/// series * points * 16 bytes regardless of uptime.
constexpr size_t kHistoryPoints = 600;
/// The watchdog flags a request still running this long past its
/// deadline, and a WAL fsync in flight this long.
constexpr double kDeadlineGraceMs = 500.0;
constexpr double kFsyncStallMs = 500.0;
/// retry_after_ms hint attached to not_primary rejections.
constexpr double kNotPrimaryRetryAfterMs = 50.0;

Reply Error(const std::string& message) {
  Reply reply;
  reply.ok = false;
  reply.AddString("error", message);
  return reply;
}

/// A refusal the client should retry after `retry_after_ms`.
Reply RetryLater(const std::string& message, const std::string& reason,
                 double retry_after_ms) {
  Reply reply = Error(message);
  reply.Add("retryable", "true").Reason(reason);
  reply.Add("retry_after_ms", FormatDouble(retry_after_ms));
  return reply;
}

/// `[fn(item), ...]`
template <typename Range, typename Fn>
std::string JsonList(const Range& items, Fn fn) {
  std::string out = "[";
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += ", ";
    first = false;
    out += fn(item);
  }
  return out + "]";
}

std::string JsonCounts(const std::vector<size_t>& counts) {
  return JsonList(counts, [](size_t n) { return std::to_string(n); });
}

/// A member handler as a command-table entry.
template <ServiceReply (Service::*handler)(ServiceCall&)>
ServiceReply Member(Service& service, ServiceCall& call) {
  return (service.*handler)(call);
}

/// The command name a human would grep for: the first token, plus the
/// routed command when the first token is an `@session` route.
std::string CommandLabel(const std::string& line) {
  Call call(line);
  std::string label, routed;
  call.Read(&label);
  if (label.starts_with('@') && call.Read(&routed)) label += " " + routed;
  return label;
}

Reply CleanedSql(const ManagedSession& ms) {
  return Reply().AddString("sql", ms.session.CurrentSql());
}

ServiceOptions WithExplain(ExplainOptions explain) {
  ServiceOptions options;
  options.explain = std::move(explain);
  return options;
}

/// Rebuilds a fresh session's state from its replay record. Anything
/// that no longer applies cleanly (e.g. a metric whose agg_index fell
/// out of range) is skipped rather than failing the whole restore;
/// structural failures (missing table, bad predicate) abort.
Status ReplaySessionState(ManagedSession& ms, const SessionReplay& replay) {
  ms.origin = replay;
  if (replay.original_sql.empty()) return Status::OK();

  Session& s = ms.session;
  DBW_RETURN_NOT_OK(s.ExecuteSql(replay.original_sql));
  for (const Predicate& pred : replay.applied_predicates) {
    DBW_RETURN_NOT_OK(s.ApplyPredicateDirect(pred));
  }
  if (!replay.selected_groups.empty()) {
    DBW_RETURN_NOT_OK(s.SelectResults(replay.selected_groups));
    if (!replay.selected_inputs.empty()) {
      DBW_RETURN_NOT_OK(s.SelectInputs(replay.selected_inputs));
    }
  }
  if (replay.has_metric) {
    auto metric = MetricFromKind(replay.metric_kind, replay.metric_expected);
    if (!metric.ok()) return metric.status();
    Status st = s.SetMetric(*metric, replay.agg_index);
    // A stale agg_index (the snapshot outlived a query change) makes
    // the metric meaningless but the session itself is fine — restore
    // it metric-less instead of refusing the whole snapshot.
    if (!st.ok()) ms.origin.has_metric = false;
  }
  return Status::OK();
}

}  // namespace

Service::Service(std::shared_ptr<Database> db, ExplainOptions options)
    : Service(std::move(db), WithExplain(std::move(options))) {}

Service::Service(std::shared_ptr<Database> db, ServiceOptions options)
    : options_(std::move(options)),
      db_(std::move(db)),
      retry_max_attempts_(options_.retry.max_attempts),
      retry_backoff_ms_(options_.retry.initial_backoff_ms),
      history_(kHistoryPoints) {
  if (options_.sessions.max_sessions == 0) options_.sessions.max_sessions = 1;
  manager_ =
      std::make_unique<SessionManager>(db_, options_.explain, options_.sessions);
  // Cannot fail: the manager is empty and max_sessions >= 1.
  default_session_ = *manager_->GetOrCreate("main");

  // Slow-log threshold: an explicit option wins; otherwise the
  // DBWIPES_SLOW_MS environment variable; otherwise disabled.
  slow_threshold_ms_ = options_.telemetry.slow_ms;
  if (slow_threshold_ms_ < 0.0) {
    if (const char* env = std::getenv("DBWIPES_SLOW_MS")) {
      char* end = nullptr;
      const double parsed = std::strtod(env, &end);
      if (end != env && parsed >= 0.0) slow_threshold_ms_ = parsed;
    }
  }

  if (!options_.wal.dir.empty()) {
    // Recovery happens here, before the first command can arrive:
    // latest valid snapshot (if any) + WAL replay. The constructor
    // cannot fail, so an unrecoverable log surfaces through
    // `wal status` (last_error) with the WAL left off.
    std::unique_lock<std::shared_mutex> gate(wal_gate_);
    gate_owner_.store(std::this_thread::get_id(), std::memory_order_release);
    Status st = EnableWalLocked(options_.wal.dir);
    gate_owner_.store(std::thread::id(), std::memory_order_release);
    if (!st.ok()) wal_last_error_ = "wal enable failed: " + st.ToString();
  }

  // Replication endpoints configured at construction. Failures are
  // non-fatal (constructor cannot fail) and surface in
  // `replication status` as last_error.
  if (options_.replication.listen_port >= 0) {
    std::lock_guard<std::mutex> repl(repl_mu_);
    Status st = StartReplicationListenLocked(options_.replication.listen_port);
    if (!st.ok()) repl_last_error_ = "replicate listen: " + st.ToString();
  }
  if (!options_.replication.follow.empty()) {
    std::lock_guard<std::mutex> repl(repl_mu_);
    Status st = StartReplicationFollowLocked(options_.replication.follow);
    if (!st.ok()) repl_last_error_ = "replicate from: " + st.ToString();
  }

  StartTelemetryThreads();
}

Service::~Service() {
  // Replication first: its threads call back into Execute/checkpoint
  // machinery, so they must be gone before anything else winds down.
  StopReplication();
  StopTelemetryThreads();
  Stop();
}

Session& Service::session() {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return default_session_->session;
}

std::shared_ptr<Database> Service::CurrentDatabase() {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return db_;
}

std::string Service::Execute(const std::string& line) {
  return ExecuteWithRid(line, NextRequestId());
}

std::string Service::ExecuteWithRid(const std::string& line, uint64_t rid) {
  static MetricCounter* const commands =
      MetricsRegistry::Global().GetCounter("service.commands");
  static MetricCounter* const errors =
      MetricsRegistry::Global().GetCounter("service.errors");
  commands->Increment();
  // Bind the id to this thread for the command's whole run: the tracer,
  // logger, profile, and WAL all read it from here.
  RequestScope scope(rid);
  const double start_ms = MonotonicMillis();
  TrackInflightBegin(rid, line, start_ms);
  const ServiceReply reply = ExecuteCommand(line);
  TrackInflightEnd(rid);
  if (!reply.ok) errors->Increment();
  MaybeSlowLog(rid, line, MonotonicMillis() - start_ms, reply);
  MaybeAutoCheckpoint();
  return reply.Render(rid);
}

ServiceReply Service::ExecuteCommand(const std::string& line) {
  using Command = ServiceCommand;
  Call call(line);
  std::string name;
  if (!call.Read(&name)) return Error("empty command");
  // `@name` routes the command to a named session; bare commands run
  // on the implicit session "main".
  if (name[0] == '@') {
    call.route = name.substr(1);
    DBW_RETURN_NOT_OK(SessionManager::ValidateName(call.route));
    if (!call.Read(&name)) return Error("usage: @<session> <command ...>");
  }
  // Looked up before the session is resolved, so a typo creates none.
  const Command* command = FindCommand(name);
  if (command == nullptr) return Error("unknown command '" + name + "'");
  const Command::Effect effect = command->EffectOf(call.Peek());

  // A follower (or a fenced stale primary) refuses mutations before
  // they can touch any state. Replay bypasses: replicated frames and
  // recovery records ARE the follower's mutations.
  const bool replaying = ReplayingOnThisThread();
  if (effect != Command::kRead && !replaying) {
    if (follower_.load(std::memory_order_acquire)) {
      return RetryLater(
          "not primary: this node is a read-only replica; retry against "
          "the primary",
          "not_primary", kNotPrimaryRetryAfterMs);
    }
    if (repl_fenced_.load(std::memory_order_acquire)) {
      Reply reply = Error(
          "epoch fenced: this primary (epoch " +
          std::to_string(repl_epoch_.load(std::memory_order_acquire)) +
          ") observed epoch " +
          std::to_string(repl_seen_epoch_.load(std::memory_order_acquire)) +
          " from a newer primary and can no longer accept writes");
      return reply.Reason("fenced");
    }
  }

  std::shared_ptr<ManagedSession> ms;
  if (command->scope != Command::kProcess) {
    // Hold the state lock only long enough to resolve the session:
    // command execution must not block a snapshot load's world swap
    // (in-flight commands finish against the old world, which the
    // shared_ptr keeps alive).
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    DBW_ASSIGN_OR_RETURN(ms, manager_->GetOrCreate(call.route));
    call.ms = ms.get();
  }

  // A logged mutation holds the gate shared, so a checkpoint never sees
  // it half-applied, then its ordering lock, so WAL order == apply
  // order: the session mutex, or append_wal_mu_ for the process.
  const bool logged = effect == Command::kLogged && !replaying;
  std::shared_lock<std::shared_mutex> gate;
  if (logged) gate = std::shared_lock<std::shared_mutex>(wal_gate_);
  std::unique_lock<std::mutex> order;
  if (command->scope == Command::kSession) {
    order = std::unique_lock<std::mutex>(ms->mu);
  } else if (effect == Command::kLogged) {
    order = std::unique_lock<std::mutex>(append_wal_mu_);
  }
  ServiceReply reply = command->handler(*this, call);
  if (logged && reply.ok) {
    // append_wal_mu_ is released once the record is staged, so process
    // mutations share group-commit fsyncs; a session mutex is held until
    // the record is durable, so the session's next command never sees
    // unacknowledged state.
    ApplyWalLog(reply.wal_line.empty() ? line : reply.wal_line, &reply,
                command->scope == Command::kProcess ? &order : nullptr);
  }
  return reply;
}

const ServiceCommand* Service::FindCommand(const std::string& name) {
  using enum ServiceCommand::Scope;
  using enum ServiceCommand::Effect;
  static const ServiceCommand kCommands[] = {
      {"sql", kSession, kLogged, {}, [](Service&, Call& c) -> Reply {
         const std::string sql = c.Rest();
         if (sql.empty()) return Error("usage: sql <query>");
         DBW_RETURN_NOT_OK(c.ms->session.ExecuteSql(sql));
         c.ms->origin.original_sql = sql;
         return Reply().Add("num_groups", c.ms->session.result().num_groups());
       }},
      {"result", kSession, kRead, {}, [](Service&, Call& c) {
         if (!c.ms->session.has_result()) return Error("no query executed");
         return Reply().Add("result", QueryResultToJson(c.ms->session.result(),
                                                        /*pretty=*/false));
       }},
      {"select_range", kSession, kLogged, {}, [](Service&, Call& c) -> Reply {
         std::string agg;
         double lo = 0.0, hi = 0.0;
         if (!c.Read(&agg, &lo, &hi)) {
           return Error("usage: select_range <agg> <lo> <hi>");
         }
         DBW_RETURN_NOT_OK(c.ms->session.SelectResultsInRange(agg, lo, hi));
         return Reply().Add("num_selected",
                            c.ms->session.selected_groups().size());
       }},
      {"select_groups", kSession, kLogged, {}, [](Service&, Call& c) -> Reply {
         std::vector<size_t> groups;
         size_t group = 0;
         while (c.Read(&group)) groups.push_back(group);
         if (groups.empty() || !c.Peek().empty()) {
           return Error("usage: select_groups <i> [j ...]");
         }
         DBW_RETURN_NOT_OK(c.ms->session.SelectResults(groups));
         return Reply().Add("num_selected",
                            c.ms->session.selected_groups().size());
       }},
      {"inputs_where", kSession, kLogged, {}, [](Service&, Call& c) -> Reply {
         const std::string filter = c.Rest();
         if (filter.empty()) return Error("usage: inputs_where <filter>");
         DBW_RETURN_NOT_OK(c.ms->session.SelectInputsWhere(filter));
         return Reply().Add("num_inputs",
                            c.ms->session.selected_inputs().size());
       }},
      {"metrics", kSession, kRead, {}, [](Service&, Call& c) -> Reply {
         size_t agg_index = 0;
         if (!c.Maybe(&agg_index)) return Error("usage: metrics [agg_index]");
         DBW_ASSIGN_OR_RETURN(auto suggestions,
                              c.ms->session.SuggestErrorMetrics(agg_index));
         return Reply().Add("metrics", JsonList(suggestions, [](const auto& m) {
           return "{\"label\": \"" + JsonEscape(m.label) +
                  "\", \"default_expected\": " +
                  FormatDouble(m.default_expected, 17) + "}";
         }));
       }},
      {"metric", kSession, kLogged, {}, [](Service&, Call& c) -> Reply {
         std::string kind;
         double expected = 0.0;
         size_t agg_index = 0;
         if (!c.Read(&kind, &expected) || !c.Maybe(&agg_index)) {
           return Error("usage: metric <kind> <expected> [agg_index]");
         }
         DBW_ASSIGN_OR_RETURN(auto metric, MetricFromKind(kind, expected));
         DBW_RETURN_NOT_OK(c.ms->session.SetMetric(metric, agg_index));
         c.ms->origin.has_metric = true;
         c.ms->origin.metric_kind = kind;
         c.ms->origin.metric_expected = expected;
         c.ms->origin.agg_index = agg_index;
         return Reply();
       }},
      {"debug", kSession, kRead, {},
       [](Service& s, Call& c) { return s.RunDebug(*c.ms); }},
      {"set_deadline", kSession, kLogged, {}, [](Service&, Call& c) {
         double deadline_ms = 0.0;
         if (!c.Read(&deadline_ms)) return Error("usage: set_deadline <ms>");
         c.ms->settings.deadline_ms = deadline_ms;
         const bool none = deadline_ms <= 0.0;
         return Reply().Add("deadline_ms",
                            none ? "null" : FormatDouble(deadline_ms, 17));
       }},
      {"profile", kSession, kLogged, {}, [](Service&, Call& c) {
         std::string sub;
         if (!c.Read(&sub)) return Error("usage: profile on|off");
         if (sub != "on" && sub != "off") {
           return Error("unknown profile subcommand '" + sub + "'");
         }
         c.ms->settings.profile_enabled = sub == "on";
         return Reply().Add("profile", sub == "on" ? "true" : "false");
       }},
      {"clean", kSession, kLogged, {}, [](Service&, Call& c) -> Reply {
         size_t index = 0;
         if (!c.Read(&index)) return Error("usage: clean <i>");
         DBW_RETURN_NOT_OK(c.ms->session.ApplyPredicate(index));
         // `clean <i>` names a rank in the last debug's explanation,
         // which recovery does not replay — log the RESOLVED predicate
         // instead so the record applies without re-explaining.
         Reply reply = CleanedSql(*c.ms);
         reply.wal_line =
             "@" + c.route + " clean_where " +
             c.ms->session.applied_predicates().back().ToString();
         return reply;
       }},
      {"clean_where", kSession, kLogged, {}, [](Service&, Call& c) -> Reply {
         const std::string text = c.Rest();
         if (text.empty()) return Error("usage: clean_where <predicate>");
         DBW_ASSIGN_OR_RETURN(auto pred, ParsePredicate(text));
         DBW_RETURN_NOT_OK(c.ms->session.ApplyPredicateDirect(pred));
         return CleanedSql(*c.ms);
       }},
      {"undo", kSession, kLogged, {}, [](Service&, Call& c) -> Reply {
         DBW_RETURN_NOT_OK(c.ms->session.UndoLastPredicate());
         return CleanedSql(*c.ms);
       }},
      {"reset", kSession, kLogged, {}, [](Service&, Call& c) -> Reply {
         DBW_RETURN_NOT_OK(c.ms->session.ResetCleaning());
         return Reply();
       }},
      {"state", kSession, kRead, {}, [](Service&, Call& c) {
         const Session& session = c.ms->session;
         Reply reply;
         reply.Add("has_result", session.has_result() ? "true" : "false");
         if (session.has_result()) {
           reply.AddString("sql", session.CurrentSql());
           reply.Add("num_groups", session.result().num_groups());
         }
         reply.Add("num_selected_groups", session.selected_groups().size());
         reply.Add("num_selected_inputs", session.selected_inputs().size());
         reply.Add("num_applied_predicates",
                   session.applied_predicates().size());
         reply.Add("has_explanation",
                   session.has_explanation() ? "true" : "false");
         return reply;
       }},
      {"cancel", kSessionUnlocked, kRead, {}, [](Service&, Call& c) {
         std::lock_guard<std::mutex> lock(c.ms->cancel_mu);
         if (c.ms->active_cancel != nullptr) {
           c.ms->active_cancel->Cancel("cancelled by client");
           return Reply().AddString("cancelled", "in-flight");
         }
         c.ms->pending_cancel = true;
         return Reply().AddString("cancelled", "pending");
       }},

      {"ping", kProcess, kRead, {}, [](Service&, Call& c) {
         double ms = 0.0;
         if (!c.Maybe(&ms)) return Error("usage: ping [ms]");
         if (ms > 0.0) {
           std::this_thread::sleep_for(
               std::chrono::duration<double, std::milli>(ms));
         }
         return Reply().Add("pong", "true");
       }},
      {"stats", kProcess, kRead, {}, Member<&Service::HandleStats>},
      {"history", kProcess, kRead, {}, Member<&Service::HandleHistory>},
      {"slowlog", kProcess, kRead, {}, [](Service& s, Call&) {
         Reply reply;
         reply.Add("threshold_ms", FormatDouble(s.slow_threshold_ms_));
         std::lock_guard<std::mutex> lock(s.slowlog_mu_);
         reply.Add("entries", JsonList(s.slowlog_, [](const auto& entry) {
           return entry;  // already a JSON object
         }));
         return reply;
       }},
      {"trace", kProcess, kRead, {}, [](Service&, Call& c) -> Reply {
         std::string sub;
         if (!c.Read(&sub)) return Error("usage: trace on|off|<path>");
         if (sub == "on" || sub == "off") {
           Tracer::Global().SetEnabled(sub == "on");
           return Reply().Add("trace", sub == "on" ? "true" : "false");
         }
         // Anything else is a dump path.
         DBW_RETURN_NOT_OK(Tracer::Global().WriteJson(sub));
         return Reply().Add("trace_events", Tracer::Global().num_events());
       }},
      {"retry", kProcess, kLogged, {}, Member<&Service::HandleRetry>},
      {"session", kProcess, kLogged, {"drop"}, Member<&Service::HandleSession>},
      {"shards", kProcess, kLogged, {}, Member<&Service::HandleShards>},
      {"append", kProcess, kLogged, {}, Member<&Service::HandleAppend>},
      {"snapshot", kProcess, kUnlogged, {"load"},
       Member<&Service::HandleSnapshot>},
      {"wal", kProcess, kUnlogged, {"on", "off"}, Member<&Service::HandleWal>},
      {"replicate", kProcess, kRead, {}, Member<&Service::HandleReplicate>},
      {"replication", kProcess, kRead, {}, [](Service& s, Call& c) {
         std::string sub;
         if (c.Read(&sub) && sub == "status") {
           return s.HandleReplicationStatus();
         }
         return Error("usage: replication status");
       }},
      {"promote", kProcess, kRead, {}, Member<&Service::HandlePromote>},
  };
  for (const ServiceCommand& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

RetryPolicy Service::CurrentRetryPolicy() const {
  RetryPolicy policy = options_.retry;
  policy.max_attempts = retry_max_attempts_.load(std::memory_order_relaxed);
  policy.initial_backoff_ms =
      retry_backoff_ms_.load(std::memory_order_relaxed);
  return policy;
}

ServiceReply Service::HandleRetry(ServiceCall& call) {
  const std::string usage =
      "usage: retry <max_attempts> [initial_backoff_ms] | retry off";
  std::string first;
  if (!call.Read(&first)) return Error(usage);
  if (first == "off") {
    retry_max_attempts_.store(1, std::memory_order_relaxed);
    return Reply().Add("retry", "{\"max_attempts\": 1}");
  }
  size_t max_attempts = 0;
  if (!ParseNumber(first, &max_attempts) || max_attempts < 1) {
    return Error("retry: max_attempts must be a positive integer, got '" +
                 first + "'");
  }
  double backoff_ms = retry_backoff_ms_.load(std::memory_order_relaxed);
  if (!call.Maybe(&backoff_ms)) return Error(usage);
  if (backoff_ms < 0.0) return Error("retry: initial_backoff_ms must be >= 0");
  retry_max_attempts_.store(max_attempts, std::memory_order_relaxed);
  retry_backoff_ms_.store(backoff_ms, std::memory_order_relaxed);
  return Reply().Add("retry", "{\"max_attempts\": " +
                                  std::to_string(max_attempts) +
                                  ", \"initial_backoff_ms\": " +
                                  FormatDouble(backoff_ms) + "}");
}

ServiceReply Service::HandleSession(ServiceCall& call) {
  std::string sub;
  if (!call.Read(&sub)) return Error("usage: session list|drop|evict");

  std::shared_lock<std::shared_mutex> lock(state_mu_);

  if (sub == "list") {
    return Reply().Add("sessions", JsonList(manager_->Names(), [&](auto& n) {
      return "{\"name\": \"" + JsonEscape(n) + "\", \"idle_ms\": " +
             FormatDouble(manager_->IdleMs(n)) + "}";
    }));
  }

  if (sub == "drop") {
    std::string name;
    if (!call.Read(&name)) return Error("usage: session drop <name>");
    if (name == "main") return Error("cannot drop the default session 'main'");
    DBW_RETURN_NOT_OK(manager_->Drop(name));
    return Reply().AddString("dropped", name);
  }

  if (sub == "evict") {
    double idle_ms = manager_->options().idle_timeout_ms;
    if (!call.Maybe(&idle_ms)) return Error("usage: session evict [idle_ms]");
    if (idle_ms <= 0.0) {
      return Error("session evict: idle_ms must be > 0 (or configure "
                   "an idle timeout)");
    }
    // Holding main's mutex marks it busy, so eviction skips it and the
    // default session handle can never dangle.
    std::lock_guard<std::mutex> keep_main(default_session_->mu);
    const size_t evicted = manager_->EvictIdleOlderThan(idle_ms);
    return Reply().Add("evicted", evicted);
  }

  return Error("unknown session subcommand '" + sub + "'");
}

ServiceReply Service::HandleStats(ServiceCall&) {
  const std::shared_ptr<Database> db = CurrentDatabase();
  // Per-table shard telemetry rides along with the metrics snapshot so
  // a dashboard sees layout, occupancy, and cache warmth in one call.
  std::string shards = "{";
  for (const std::string& name : db->ShardedNames()) {
    auto set = db->GetShardSet(name);
    if (set == nullptr) continue;
    auto lease = set->ReadLease();
    const auto cache = ShardEngineCache::For(*set);
    if (shards.size() > 1) shards += ", ";
    shards += "\"" + JsonEscape(name) +
              "\": {\"count\": " + std::to_string(set->num_shards()) +
              ", \"rows\": " + JsonCounts(set->ShardRowCounts()) +
              ", \"cached_clauses\": " +
              JsonCounts(cache->CachedClausesPerShard()) +
              ", \"appends\": " + std::to_string(set->appends()) + "}";
  }
  shards += "}";
  Reply reply;
  reply.Add("stats", MetricsRegistry::Global().SnapshotJson(/*pretty=*/false));
  reply.Add("shards", shards);
  return reply;
}

ServiceReply Service::HandleShards(ServiceCall& call) {
  static MetricCounter* const reshards =
      MetricsRegistry::Global().GetCounter("service.reshards");

  std::string table_name;
  std::string count_text;
  if (!call.Read(&table_name, &count_text)) {
    return Error("usage: shards <table> <count>");
  }
  size_t count = 0;
  if (!ParseNumber(count_text, &count) || count < 1 ||
      count > ShardSet::kMaxShards) {
    return Error("shards: count must be an integer in [1, " +
                 std::to_string(ShardSet::kMaxShards) + "], got '" +
                 count_text + "'");
  }

  const std::shared_ptr<Database> db = CurrentDatabase();
  DBW_ASSIGN_OR_RETURN(auto table, db->GetTable(table_name));
  DBW_ASSIGN_OR_RETURN(auto set, ShardSet::Create(*table, count));
  db->RegisterShardSet(table_name, set);
  reshards->Increment();
  Reply reply;
  reply.AddString("table", table_name).Add("shards", count);
  reply.Add("rows", JsonCounts(set->ShardRowCounts()));
  return reply;
}

ServiceReply Service::HandleAppend(ServiceCall& call) {
  std::string table_name;
  if (!call.Read(&table_name)) {
    return Error("usage: append <table> <v1> [v2 ...] (`null` for NULL)");
  }
  const std::shared_ptr<Database> db = CurrentDatabase();
  auto set = db->GetShardSet(table_name);
  if (set == nullptr) {
    // Plain tables are immutable by design; only a ShardSet has a tail
    // shard to route the row to.
    DBW_RETURN_NOT_OK(db->GetTable(table_name).status());
    return Error("append: table '" + table_name +
                 "' is not sharded; run `shards " + table_name +
                 " <count>` first");
  }

  const Schema& schema = set->schema();
  std::vector<Value> values;
  values.reserve(schema.num_fields());
  for (const Field& field : schema.fields()) {
    std::string token;
    if (!call.Read(&token)) {
      return Error("append: expected " + std::to_string(schema.num_fields()) +
                   " values (" + schema.ToString() + "), got " +
                   std::to_string(values.size()));
    }
    if (token == "null") {
      values.emplace_back();
      continue;
    }
    if (field.type == DataType::kString) {
      values.emplace_back(std::move(token));
      continue;
    }
    const bool is_int = field.type == DataType::kInt64;
    int64_t i = 0;
    double d = 0.0;
    if (is_int ? !ParseNumber(token, &i) : !ParseNumber(token, &d)) {
      return Error("append: column '" + field.name + "' expects " +
                   (is_int ? "int64" : "double") + ", got '" + token + "'");
    }
    values.emplace_back(is_int ? Value(i) : Value(d));
  }
  if (!call.Peek().empty()) {
    return Error("append: too many values (schema is " + schema.ToString() +
                 ")");
  }

  DBW_RETURN_NOT_OK(set->Append(values));
  auto lease = set->ReadLease();  // concurrent appenders may still be running
  Reply reply;
  reply.Add("rows", set->num_rows());
  reply.Add("shard", set->num_shards() - 1);
  return reply;
}

ServiceReply Service::HandleSnapshot(ServiceCall& call) {
  static MetricCounter* const saves =
      MetricsRegistry::Global().GetCounter("service.snapshot_saves");
  static MetricCounter* const loads =
      MetricsRegistry::Global().GetCounter("service.snapshot_loads");

  std::string sub;
  std::string path;
  if (!call.Read(&sub, &path)) return Error("usage: snapshot save|load <path>");

  ServiceSnapshot snapshot;
  Reply reply;
  if (sub == "save") {
    // Gate-free: CollectSnapshot's per-session locks and shard leases
    // already give a prefix-consistent capture, and serializing behind
    // the gate would stall live traffic. The leases stay held through
    // the write, so an append cannot tear a fused table mid-save.
    const ShardLeases leases = CollectSnapshot(&snapshot);
    DBW_RETURN_NOT_OK(WriteSnapshot(path, snapshot));
    saves->Increment();
    reply.AddString("path", path);
  } else if (sub == "load") {
    // The world swap must not interleave with logged mutations or a
    // checkpoint: exclusive gate. With the WAL on, the load is followed
    // by a checkpoint so the log base matches the new world.
    std::unique_lock<std::shared_mutex> gate(wal_gate_, std::defer_lock);
    if (!ReplayingOnThisThread()) gate.lock();
    DBW_ASSIGN_OR_RETURN(snapshot, ReadSnapshot(path));
    DBW_RETURN_NOT_OK(LoadWorld(snapshot));
    loads->Increment();
    if (gate.owns_lock() && wal_ != nullptr) {
      Status st = CheckpointLocked();
      if (!st.ok()) wal_last_error_ = st.ToString();
    }
  } else {
    return Error("unknown snapshot subcommand '" + sub + "'");
  }
  reply.Add("tables", snapshot.tables.size());
  reply.Add("sharded", snapshot.shard_layouts.size());
  reply.Add("sessions", snapshot.sessions.size());
  return reply;
}

Status Service::LoadWorld(const ServiceSnapshot& snapshot) {
  // Validate and rebuild the whole world off to the side; the live
  // service is untouched until the final swap, so any failure —
  // corrupt file, missing table, unreplayable state — leaves the
  // prior state exactly as it was.
  auto db = std::make_shared<Database>();
  for (const auto& [name, table] : snapshot.tables) {
    db->RegisterTable(name, table);
  }
  // Re-shard after ALL tables are registered (RegisterTable clears
  // any shard layout for its name). CreateWithRows re-derives every
  // shard — contents, dictionaries, codes — from the fused rows, so
  // the restored clause bitmaps match the pre-crash ones bit for bit.
  for (const ServiceSnapshot::ShardLayout& layout : snapshot.shard_layouts) {
    auto table = db->GetTable(layout.table);
    if (!table.ok()) {
      return Status::InvalidArgument(
          "snapshot load: shard layout references unknown table '" +
          layout.table + "'");
    }
    std::vector<size_t> shard_rows(layout.shard_rows.begin(),
                                   layout.shard_rows.end());
    auto set = ShardSet::CreateWithRows(**table, shard_rows);
    if (!set.ok()) {
      return Status::InvalidArgument(
          "snapshot load: cannot rebuild shards for table '" + layout.table +
          "': " + set.status().ToString());
    }
    db->RegisterShardSet(layout.table, *set);
  }
  auto manager = std::make_unique<SessionManager>(db, options_.explain,
                                                  options_.sessions);
  for (const auto& state : snapshot.sessions) {
    auto ms = manager->GetOrCreate(state.name);
    if (!ms.ok()) {
      return Status::InvalidArgument("snapshot load: cannot recreate session '" +
                                     state.name +
                                     "': " + ms.status().ToString());
    }
    (*ms)->settings = state.settings;
    Status st = ReplaySessionState(**ms, state.replay);
    if (!st.ok()) {
      return Status::InvalidArgument("snapshot load: replay failed for session '" +
                                     state.name + "': " + st.ToString());
    }
  }
  auto main = manager->GetOrCreate("main");
  if (!main.ok()) return main.status();

  if (snapshot.retry_max_attempts > 0) {
    retry_max_attempts_.store(snapshot.retry_max_attempts,
                              std::memory_order_relaxed);
    retry_backoff_ms_.store(snapshot.retry_backoff_ms,
                            std::memory_order_relaxed);
  }
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    db_ = std::move(db);
    manager_ = std::move(manager);
    default_session_ = std::move(*main);
  }
  return Status::OK();
}

Service::ShardLeases Service::CollectSnapshot(ServiceSnapshot* snapshot) {
  std::shared_ptr<Database> db;
  std::vector<std::pair<std::string, std::shared_ptr<ManagedSession>>> live;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    db = db_;
    for (const std::string& name : manager_->Names()) {
      auto ms = manager_->Find(name);
      if (ms != nullptr) live.emplace_back(name, std::move(ms));
    }
  }
  for (auto& [name, ms] : live) {
    // Per-session lock: each session is serialized mid-command-free
    // into the snapshot (sessions are independent, so cross-session
    // interleaving cannot produce a torn state). Sessions come BEFORE
    // the shard leases below: a session command holds its mutex while
    // taking a shard read lease, so acquiring in the opposite order here
    // would be a lock-order inversion.
    std::lock_guard<std::mutex> lock(ms->mu);
    const Session& s = ms->session;
    snapshot->sessions.push_back(
        {name, ms->settings,
         {ms->origin, s.applied_predicates(), s.selected_groups(),
          s.selected_inputs()}});
  }
  // Only the boundaries are persisted — the restore rebuilds shard
  // contents (and dictionaries) from the fused rows.
  ShardLeases leases;
  for (const std::string& name : db->ShardedNames()) {
    auto set = db->GetShardSet(name);
    if (set == nullptr) continue;
    leases.leases.push_back(set->ReadLease());
    ServiceSnapshot::ShardLayout layout;
    layout.table = name;
    for (size_t rows : set->ShardRowCounts()) {
      layout.shard_rows.push_back(rows);
    }
    snapshot->shard_layouts.push_back(std::move(layout));
    leases.sets.push_back(std::move(set));
  }
  for (const std::string& name : db->TableNames()) {
    auto table = db->GetTable(name);
    if (table.ok()) snapshot->tables.emplace_back(name, *table);
  }
  snapshot->retry_max_attempts = static_cast<uint32_t>(
      retry_max_attempts_.load(std::memory_order_relaxed));
  snapshot->retry_backoff_ms =
      retry_backoff_ms_.load(std::memory_order_relaxed);
  return leases;
}

Status Service::CheckpointLocked() {
  if (wal_ == nullptr) return Status::InvalidArgument("wal is off");
  if (wal_faults_ != nullptr) {
    DBW_RETURN_NOT_OK(wal_faults_->Hit("checkpoint/begin"));
  }
  ServiceSnapshot snapshot;
  // The exclusive gate already keeps appends off the shard sets, so the
  // leases need not outlive the collection.
  CollectSnapshot(&snapshot);
  snapshot.wal_lsn = wal_->durable_lsn();
  // The write is tmp + fsync + atomic rename + dir fsync, so a crash
  // anywhere in here leaves the PREVIOUS snapshot intact and the log
  // untruncated — recovery just replays more.
  DBW_RETURN_NOT_OK(
      WriteSnapshot(wal_->dir() + "/snapshot.dbw", snapshot, wal_faults_));
  wal_snapshot_lsn_ = snapshot.wal_lsn;
  // Truncation only ever drops CLOSED segments, so rotate first: after
  // a quiet period the whole backlog is in the (now closed) last
  // segment and would otherwise never be reclaimed.
  DBW_RETURN_NOT_OK(wal_->Rotate());
  if (wal_faults_ != nullptr) {
    DBW_RETURN_NOT_OK(wal_faults_->Hit("checkpoint/truncate"));
  }
  DBW_RETURN_NOT_OK(wal_->TruncateThrough(snapshot.wal_lsn));
  ++wal_checkpoints_;
  MetricsRegistry::Global().GetCounter("wal.checkpoints")->Increment();
  wal_last_error_.clear();
  return Status::OK();
}

void Service::MaybeAutoCheckpoint() {
  if (!wal_enabled_.load(std::memory_order_acquire)) return;
  if (ReplayingOnThisThread()) return;
  const size_t threshold = options_.wal.checkpoint_bytes;
  if (threshold == 0) return;  // auto-checkpointing disabled
  {
    // Cheap probe under the shared gate; try_to_lock so this never
    // stalls behind a checkpoint already in progress.
    std::shared_lock<std::shared_mutex> gate(wal_gate_, std::try_to_lock);
    if (!gate.owns_lock() || wal_ == nullptr) return;
    if (wal_->total_bytes() < threshold) return;
  }
  std::unique_lock<std::shared_mutex> gate(wal_gate_, std::try_to_lock);
  if (!gate.owns_lock()) return;  // someone else will get there
  // Re-check: another thread may have checkpointed between the probe
  // and the exclusive acquisition.
  if (wal_ == nullptr || wal_->total_bytes() < threshold) return;
  Status st = CheckpointLocked();
  if (!st.ok()) wal_last_error_ = st.ToString();
}

void Service::ApplyWalLog(const std::string& logged_line, ServiceReply* reply,
                          std::unique_lock<std::mutex>* order) {
  WriteAheadLog* wal = wal_.get();  // stable: caller holds the shared gate
  if (wal == nullptr) return;
  // Stage while the ordering lock is still held (so the log's LSN
  // order matches apply order), then drop it for the commit wait: the
  // next client can apply + stage while our fsync is in flight, and
  // the group-commit leader acknowledges both with one fsync.
  auto ticket = wal->StageCommand(logged_line, CurrentRequestId());
  Status st = ticket.ok() ? Status::OK() : ticket.status();
  if (st.ok()) {
    if (order != nullptr && order->owns_lock()) order->unlock();
    st = wal->WaitDurable(*ticket);
  }
  if (!st.ok()) {
    // The gray zone: the command IS applied in memory but is NOT
    // durable — a crash now silently loses it. Deliberately not
    // "retryable": re-running the command would double-apply it.
    *reply = Error("wal append failed: " + st.ToString());
    reply->AddString("durability", "lost").Add("applied", "true");
  }
}

Status Service::EnableWalLocked(const std::string& dir) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument("wal is already on (dir '" + wal_->dir() +
                                   "')");
  }
  const auto start = std::chrono::steady_clock::now();
  WalOptions wal_options = options_.wal;
  wal_options.dir = dir;
  wal_faults_ = wal_options.faults != nullptr ? wal_options.faults : faults_;
  wal_options.faults = wal_faults_;
  DBW_ASSIGN_OR_RETURN(auto wal, WriteAheadLog::Open(std::move(wal_options)));
  wal_dir_hint_ = dir;

  // Replication epoch recovery: a promoted follower must come back at
  // its promoted epoch, or a restarted stale primary could outrank it.
  {
    auto epoch = LoadReplicationEpoch(dir);
    if (!epoch.ok()) return epoch.status();
    if (*epoch > repl_epoch_.load(std::memory_order_acquire)) {
      repl_epoch_.store(*epoch, std::memory_order_release);
    }
    if (*epoch > repl_seen_epoch_.load(std::memory_order_acquire)) {
      repl_seen_epoch_.store(*epoch, std::memory_order_release);
    }
    MetricsRegistry::Global().GetGauge("repl.epoch")->Set(
        static_cast<int64_t>(repl_epoch_.load(std::memory_order_acquire)));
  }

  wal_snapshot_lsn_ = 0;
  wal_replayed_ = 0;
  wal_replay_errors_ = 0;

  // Recovery = latest valid snapshot + replay of every logged command
  // after its LSN. The snapshot read fully validates before anything
  // is applied, so a corrupt snapshot aborts with the live (fresh)
  // world untouched.
  const std::string snapshot_path = dir + "/snapshot.dbw";
  const bool have_snapshot = ::access(snapshot_path.c_str(), F_OK) == 0;
  if (have_snapshot) {
    auto snapshot = ReadSnapshot(snapshot_path);
    if (!snapshot.ok()) return snapshot.status();
    DBW_RETURN_NOT_OK(LoadWorld(*snapshot));
    wal_snapshot_lsn_ = snapshot->wal_lsn;
  }
  size_t replayed = 0;
  size_t errors = 0;
  DBW_RETURN_NOT_OK(wal->ReplayDurable(
      wal_snapshot_lsn_,
      [&](uint64_t /*lsn*/, uint64_t rid, uint8_t type,
          const std::string& body) -> Status {
        if (type != WriteAheadLog::kRecordCommand) {
          return Status::IoError("wal replay: unknown record type " +
                                 std::to_string(type));
        }
        ++replayed;
        // Run the command under its ORIGINAL request id (recovered from
        // the frame), so replay trace spans and log lines correlate
        // with the pre-crash request that wrote the record.
        RequestScope frame_scope(rid);
        // Through the normal dispatch — this thread owns the gate, so
        // gating and re-logging are skipped (wal_ is also still null).
        // Only ok responses were logged, so a failure here means the
        // record no longer applies; count it rather than abort, since
        // later records may be independent of it.
        if (!ExecuteCommand(body).ok) ++errors;
        return Status::OK();
      }));
  wal_replayed_ = replayed;
  wal_replay_errors_ = errors;
  wal_ = std::move(wal);
  wal_enabled_.store(true, std::memory_order_release);

  // Anchor the recovered world: a fresh dir gets its initial snapshot,
  // a replayed one compacts the log so the next recovery is O(new
  // work). Failure is non-fatal — the log still holds everything, the
  // atomic snapshot write left the old file valid.
  if (replayed > 0 || !have_snapshot) {
    Status st = CheckpointLocked();
    if (!st.ok()) wal_last_error_ = st.ToString();
  }
  wal_recovery_ms_ = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  MetricsRegistry::Global().GetCounter("wal.replayed")->Increment(replayed);
  MetricsRegistry::Global()
      .GetHistogram("wal.recovery_ms")
      ->Observe(wal_recovery_ms_);
  return Status::OK();
}

ServiceReply Service::HandleWal(ServiceCall& call) {
  std::string sub;
  if (!call.Read(&sub)) {
    return Error("usage: wal on <dir>|off|status|checkpoint");
  }

  if (sub == "on") {
    std::string dir;
    if (!call.Read(&dir)) return Error("usage: wal on <dir>");
    std::unique_lock<std::shared_mutex> gate(wal_gate_);
    gate_owner_.store(std::this_thread::get_id(), std::memory_order_release);
    Status st = EnableWalLocked(dir);
    gate_owner_.store(std::thread::id(), std::memory_order_release);
    DBW_RETURN_NOT_OK(st);
    Reply reply;
    reply.AddString("wal", "on").AddString("dir", dir);
    reply.Add("replayed", wal_replayed_);
    reply.Add("replay_errors", wal_replay_errors_);
    reply.Add("recovery_ms", FormatDouble(wal_recovery_ms_));
    return reply;
  }

  if (sub == "off") {
    // repl_mu_ before wal_gate_ (the lock order replication start
    // established); held across the whole disable so a `replicate
    // listen` cannot slip in between the check and the reset.
    std::lock_guard<std::mutex> repl(repl_mu_);
    if (repl_server_ != nullptr || repl_client_ != nullptr) {
      return Error(
          "wal off: replication is active; run `replicate stop` first");
    }
    std::unique_lock<std::shared_mutex> gate(wal_gate_);
    if (wal_ == nullptr) return Error("wal is off");
    // Seal the current state into the snapshot before dropping the
    // log; if that fails, stay on — turning off would lose the tail.
    DBW_RETURN_NOT_OK(CheckpointLocked());
    wal_enabled_.store(false, std::memory_order_release);
    wal_.reset();
    return Reply().AddString("wal", "off");
  }

  if (sub == "checkpoint") {
    std::unique_lock<std::shared_mutex> gate(wal_gate_);
    if (wal_ == nullptr) return Error("wal is off");
    DBW_RETURN_NOT_OK(CheckpointLocked());
    Reply reply;
    reply.Add("checkpoint_lsn", wal_snapshot_lsn_);
    reply.Add("segments", wal_->num_segments());
    return reply;
  }

  if (sub == "status") {
    std::shared_lock<std::shared_mutex> gate(wal_gate_);
    Reply reply;
    if (wal_ == nullptr) {
      reply.Add("enabled", "false").AddString("last_error", wal_last_error_);
      return reply;
    }
    const WalStats s = wal_->stats();
    reply.Add("enabled", "true").AddString("dir", wal_->dir());
    reply.Add("next_lsn", s.next_lsn);
    reply.Add("durable_lsn", s.durable_lsn);
    reply.Add("segments", s.segments);
    reply.Add("wal_bytes", s.total_bytes);
    reply.Add("appends", s.appends);
    reply.Add("fsyncs", s.fsyncs);
    reply.Add("poisoned", s.poisoned ? "true" : "false");
    reply.Add("snapshot_lsn", wal_snapshot_lsn_);
    reply.Add("checkpoints", wal_checkpoints_);
    reply.Add("replayed", wal_replayed_);
    reply.Add("replay_errors", wal_replay_errors_);
    reply.Add("recovery_ms", FormatDouble(wal_recovery_ms_));
    reply.AddString("last_error", wal_last_error_);
    return reply;
  }

  return Error("unknown wal subcommand '" + sub + "'");
}

// --- Replication (DESIGN.md §5l) ---

Status Service::StartReplicationListenLocked(int port) {
  if (repl_server_ != nullptr) {
    return Status::InvalidArgument(
        "replication server already listening on port " +
        std::to_string(repl_server_->port()));
  }
  if (follower_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "this node is a follower; promote it before it can serve replicas");
  }
  WriteAheadLog* wal = nullptr;
  {
    std::shared_lock<std::shared_mutex> gate(wal_gate_);
    wal = wal_.get();
  }
  if (wal == nullptr) {
    return Status::InvalidArgument(
        "replicate listen requires the wal (run `wal on <dir>` first)");
  }
  ReplicationServerOptions o;
  o.port = static_cast<uint16_t>(port);
  o.faults = options_.replication.faults != nullptr
                 ? options_.replication.faults
                 : faults_;
  ReplicationServer::Source source;
  source.wal = wal;
  source.epoch = [this] {
    return repl_epoch_.load(std::memory_order_acquire);
  };
  source.observe_epoch = [this](uint64_t e) { ObserveReplicationEpoch(e); };
  source.snapshot = [this] { return ReplicationSnapshotImage(); };
  auto server = std::make_unique<ReplicationServer>();
  DBW_RETURN_NOT_OK(server->Start(o, std::move(source)));
  repl_server_ = std::move(server);
  MetricsRegistry::Global().GetGauge("repl.epoch")->Set(
      static_cast<int64_t>(repl_epoch_.load(std::memory_order_acquire)));
  return Status::OK();
}

Status Service::StartReplicationFollowLocked(const std::string& target) {
  if (repl_client_ != nullptr) {
    return Status::InvalidArgument("already following a primary");
  }
  if (repl_server_ != nullptr) {
    return Status::InvalidArgument(
        "this node serves followers; `replicate stop` first");
  }
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= target.size()) {
    return Status::InvalidArgument("replicate from wants <host>:<port>, got '" +
                                   target + "'");
  }
  const std::string host = target.substr(0, colon);
  char* end = nullptr;
  const long port = std::strtol(target.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad replication port in '" + target + "'");
  }

  // The local durable log is the resume point: everything in it was
  // acked by this follower, so the stream restarts right after it.
  {
    std::shared_lock<std::shared_mutex> gate(wal_gate_);
    repl_last_applied_.store(wal_ != nullptr ? wal_->durable_lsn() : 0,
                             std::memory_order_release);
  }

  ReplicationClientOptions o;
  o.host = host;
  o.port = static_cast<uint16_t>(port);
  o.heartbeat_timeout_ms = options_.replication.heartbeat_timeout_ms;
  o.reconnect = options_.replication.reconnect;
  o.faults = options_.replication.faults != nullptr
                 ? options_.replication.faults
                 : faults_;
  ReplicationClient::Callbacks cb;
  cb.last_applied = [this] {
    return repl_last_applied_.load(std::memory_order_acquire);
  };
  cb.epoch = [this] { return repl_epoch_.load(std::memory_order_acquire); };
  cb.observe_epoch = [this](uint64_t e) { ObserveReplicationEpoch(e); };
  cb.apply = [this](uint64_t lsn, uint64_t rid, const std::string& body) {
    return ApplyReplicatedFrame(lsn, rid, body);
  };
  cb.install_snapshot = [this](const std::string& bytes, uint64_t lsn) {
    return InstallReplicaSnapshot(bytes, lsn);
  };

  // Flag the role BEFORE the client thread exists so no mutation can
  // slip in between "client running" and "mutations rejected".
  follower_.store(true, std::memory_order_release);
  repl_fenced_.store(false, std::memory_order_release);
  auto client = std::make_unique<ReplicationClient>();
  Status st = client->Start(std::move(o), std::move(cb));
  if (!st.ok()) {
    follower_.store(false, std::memory_order_release);
    return st;
  }
  repl_client_ = std::move(client);
  return Status::OK();
}

ServiceReply Service::HandleReplicate(ServiceCall& call) {
  std::string sub;
  if (!call.Read(&sub)) {
    return Error("usage: replicate listen <port>|from <host>:<port>|stop|status");
  }
  if (sub == "status") return HandleReplicationStatus();
  if (sub == "stop") {
    // Joins the endpoint threads (outside repl_mu_ — they call back
    // into the service). The follower ROLE survives a stop: `promote`
    // is the explicit exit from it, so a paused follower still refuses
    // writes it could never have replicated.
    Reply reply;
    {
      std::lock_guard<std::mutex> repl(repl_mu_);
      reply.Add("stopped_listener", repl_server_ != nullptr ? "true" : "false");
      reply.Add("stopped_follower", repl_client_ != nullptr ? "true" : "false");
    }
    StopReplication();
    return reply;
  }

  std::lock_guard<std::mutex> repl(repl_mu_);
  if (sub == "listen") {
    int port = -1;
    if (!call.Read(&port) || port < 0 || port > 65535) {
      return Error("usage: replicate listen <port> (0 picks an ephemeral port)");
    }
    DBW_RETURN_NOT_OK(StartReplicationListenLocked(port));
    Reply reply;
    reply.Add("listening", "true");
    reply.Add("port", repl_server_->port());
    reply.Add("epoch", repl_epoch_.load(std::memory_order_acquire));
    return reply;
  }
  if (sub == "from") {
    std::string target;
    if (!call.Read(&target)) {
      return Error("usage: replicate from <host>:<port>");
    }
    DBW_RETURN_NOT_OK(StartReplicationFollowLocked(target));
    Reply reply;
    reply.AddString("following", target);
    reply.Add("epoch", repl_epoch_.load(std::memory_order_acquire));
    reply.Add("last_applied_lsn",
              repl_last_applied_.load(std::memory_order_acquire));
    return reply;
  }
  return Error("unknown replicate subcommand '" + sub + "'");
}

ServiceReply Service::HandleReplicationStatus() {
  Reply reply;
  reply.AddString("role", follower_.load(std::memory_order_acquire)
                              ? "follower"
                              : "primary");
  reply.Add("epoch", repl_epoch_.load(std::memory_order_acquire));
  reply.Add("seen_epoch", repl_seen_epoch_.load(std::memory_order_acquire));
  reply.Add("fenced",
            repl_fenced_.load(std::memory_order_acquire) ? "true" : "false");
  reply.Add("last_applied_lsn",
            repl_last_applied_.load(std::memory_order_acquire));
  std::lock_guard<std::mutex> repl(repl_mu_);
  reply.Add("promotions", repl_promotions_);
  if (repl_server_ != nullptr) {
    const ReplicationServer::Stats s = repl_server_->stats();
    reply.Add("listening", "true").Add("port", s.port);
    reply.Add("followers", s.followers);
    reply.Add("min_acked_lsn", s.min_acked_lsn);
    reply.Add("frames_sent", s.frames_sent);
    reply.Add("snapshots_sent", s.snapshots_sent);
    reply.Add("epoch_refusals", s.epoch_refusals);
  } else {
    reply.Add("listening", "false");
  }
  if (repl_client_ != nullptr) {
    const ReplicationClient::Stats s = repl_client_->stats();
    reply.Add("following", "true");
    reply.Add("connected", s.connected ? "true" : "false");
    reply.Add("source_epoch", s.source_epoch);
    reply.Add("source_durable_lsn", s.source_durable_lsn);
    reply.Add("reconnects", s.reconnects);
    reply.Add("frames_applied", s.frames_applied);
    reply.Add("snapshot_installs", s.snapshot_installs);
    reply.Add("corrupt_frames", s.corrupt_frames);
    reply.Add("fenced_source", s.fenced ? "true" : "false");
    reply.AddString("stream_error", s.last_error);
  } else {
    reply.Add("following", "false");
  }
  reply.AddString("last_error", repl_last_error_);
  return reply;
}

ServiceReply Service::HandlePromote(ServiceCall&) {
  // A fenced stale primary stays fenced: its acknowledged history may
  // already have diverged from the new primary's, so promotion would
  // institutionalize a split brain. Explicit epoch error per the
  // failover runbook: wipe and re-follow instead.
  if (repl_fenced_.load(std::memory_order_acquire) &&
      !follower_.load(std::memory_order_acquire)) {
    return Error(
        "epoch fenced: this node (epoch " +
        std::to_string(repl_epoch_.load(std::memory_order_acquire)) +
        ") observed epoch " +
        std::to_string(repl_seen_epoch_.load(std::memory_order_acquire)) +
        "; promotion refused — resync this node as a follower instead");
  }
  if (!follower_.load(std::memory_order_acquire)) {
    return Error("promote: this node is already a primary");
  }

  // Disconnect from the old primary first: Stop() joins the client
  // thread, so after this no apply/install is in flight and
  // last_applied is final.
  std::unique_ptr<ReplicationClient> client;
  {
    std::lock_guard<std::mutex> repl(repl_mu_);
    client = std::move(repl_client_);
  }
  if (client != nullptr) client->Stop();
  client.reset();

  const uint64_t new_epoch =
      std::max(repl_epoch_.load(std::memory_order_acquire),
               repl_seen_epoch_.load(std::memory_order_acquire)) +
      1;
  {
    // Persist BEFORE accepting writes: an acknowledged promotion must
    // survive a crash-restart, or this node could come back at its old
    // epoch and lose a fencing duel it already won.
    std::lock_guard<std::mutex> lock(epoch_file_mu_);
    std::string dir;
    {
      std::shared_lock<std::shared_mutex> gate(wal_gate_);
      if (wal_ != nullptr) dir = wal_->dir();
    }
    if (!dir.empty()) {
      Status st = StoreReplicationEpoch(dir, new_epoch);
      if (!st.ok()) {
        return Error("promote: cannot persist epoch " +
                     std::to_string(new_epoch) + ": " + st.ToString());
      }
    }
    repl_epoch_.store(new_epoch, std::memory_order_release);
    uint64_t seen = repl_seen_epoch_.load(std::memory_order_acquire);
    while (new_epoch > seen &&
           !repl_seen_epoch_.compare_exchange_weak(seen, new_epoch)) {
    }
  }
  follower_.store(false, std::memory_order_release);
  repl_fenced_.store(false, std::memory_order_release);
  MetricsRegistry::Global().GetGauge("repl.epoch")->Set(
      static_cast<int64_t>(new_epoch));
  MetricsRegistry::Global().GetCounter("repl.promotions")->Increment();
  {
    std::lock_guard<std::mutex> repl(repl_mu_);
    ++repl_promotions_;
  }
  Reply reply;
  reply.Add("promoted", "true").Add("epoch", new_epoch);
  reply.Add("last_applied_lsn",
            repl_last_applied_.load(std::memory_order_acquire));
  return reply;
}

Status Service::ApplyReplicatedFrame(uint64_t lsn, uint64_t rid,
                                     const std::string& body) {
  // Exclusive gate + gate_owner_ puts the re-entrant ExecuteCommand in
  // replay mode: the frame runs under its ORIGINAL rid, skips gating
  // and internal logging, and cannot interleave with a checkpoint.
  std::unique_lock<std::shared_mutex> gate(wal_gate_);
  gate_owner_.store(std::this_thread::get_id(), std::memory_order_release);
  bool applied = false;
  {
    RequestScope scope(rid);
    applied = ExecuteCommand(body).ok;
  }
  // Mirror the frame into the local log at exactly the primary's LSN,
  // and make it durable before acking — the primary then knows acked
  // frames survive a follower crash (recovery replays them normally).
  Status st = Status::OK();
  if (wal_ != nullptr) {
    auto ticket = wal_->StageCommand(body, rid);
    if (!ticket.ok()) {
      st = ticket.status();
    } else if (ticket->lsn != lsn) {
      st = Status::IoError(
          "replica log diverged: local log assigned lsn " +
          std::to_string(ticket->lsn) + " to stream lsn " +
          std::to_string(lsn) + "; snapshot resync required");
    } else {
      st = wal_->WaitDurable(*ticket);
    }
  }
  gate_owner_.store(std::thread::id(), std::memory_order_release);
  gate.unlock();
  if (!st.ok()) return st;
  repl_last_applied_.store(lsn, std::memory_order_release);
  MetricsRegistry::Global().GetGauge("repl.last_applied_lsn")->Set(
      static_cast<int64_t>(lsn));
  if (!applied) {
    // Only ok responses were logged on the primary, so a not-ok here
    // means the replica drifted semantically; count it loudly but keep
    // the stream alive — the frame is recorded either way.
    MetricsRegistry::Global().GetCounter("repl.apply_errors")->Increment();
  }
  MaybeAutoCheckpoint();
  return Status::OK();
}

Status Service::InstallReplicaSnapshot(const std::string& bytes,
                                       uint64_t snapshot_lsn) {
  DBW_ASSIGN_OR_RETURN(ServiceSnapshot snap,
                       ReadSnapshotFromBytes(bytes, "replication snapshot"));
  if (snap.wal_lsn != snapshot_lsn) {
    return Status::IoError(
        "replication snapshot lsn mismatch: file says " +
        std::to_string(snap.wal_lsn) + ", stream says " +
        std::to_string(snapshot_lsn));
  }

  std::unique_lock<std::shared_mutex> gate(wal_gate_);
  std::string dir = wal_dir_hint_;
  if (wal_ != nullptr) dir = wal_->dir();
  if (!dir.empty()) {
    // Replace the local log wholesale: its history belongs to a
    // different timeline than the snapshot we are installing. Order —
    // close, wipe segments, reopen at snapshot_lsn + 1, persist the
    // snapshot — keeps every intermediate state recoverable (worst
    // case: old snapshot + no log = the state before this install; the
    // stream re-syncs on the next connect).
    wal_enabled_.store(false, std::memory_order_release);
    wal_.reset();
    DBW_RETURN_NOT_OK(WriteAheadLog::RemoveSegments(dir));
    WalOptions wal_options = options_.wal;
    wal_options.dir = dir;
    wal_faults_ = wal_options.faults != nullptr ? wal_options.faults : faults_;
    wal_options.faults = wal_faults_;
    wal_options.start_lsn = snapshot_lsn + 1;
    DBW_ASSIGN_OR_RETURN(auto wal, WriteAheadLog::Open(std::move(wal_options)));
    DBW_RETURN_NOT_OK(WriteSnapshot(dir + "/snapshot.dbw", snap, wal_faults_));
    wal_ = std::move(wal);
    wal_enabled_.store(true, std::memory_order_release);
    wal_snapshot_lsn_ = snapshot_lsn;
  }
  DBW_RETURN_NOT_OK(LoadWorld(snap));
  gate.unlock();
  repl_last_applied_.store(snapshot_lsn, std::memory_order_release);
  MetricsRegistry::Global().GetGauge("repl.last_applied_lsn")->Set(
      static_cast<int64_t>(snapshot_lsn));
  return Status::OK();
}

Result<std::pair<std::string, uint64_t>> Service::ReplicationSnapshotImage() {
  // Exclusive gate: nothing can mutate or checkpoint while the image
  // is captured, so the file read here IS the latest checkpoint and
  // the log above its wal_lsn is guaranteed intact (TruncateThrough
  // only retires records <= that lsn).
  std::unique_lock<std::shared_mutex> gate(wal_gate_);
  if (wal_ == nullptr) {
    return Status::InvalidArgument("replication snapshot: wal is off");
  }
  const std::string path = wal_->dir() + "/snapshot.dbw";
  bool checkpointed = false;
  if (::access(path.c_str(), F_OK) != 0) {
    DBW_RETURN_NOT_OK(CheckpointLocked());
    checkpointed = true;
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string bytes;
    DBW_RETURN_NOT_OK(ReadWholeFile(path, &bytes));
    auto snap = ReadSnapshotFromBytes(bytes, path);
    if (snap.ok() && wal_->CanReplayAfter(snap->wal_lsn)) {
      return std::make_pair(std::move(bytes), snap->wal_lsn);
    }
    if (checkpointed) break;  // a fresh checkpoint should never fail this
    // Stale or damaged file: write a fresh checkpoint and retry once.
    DBW_RETURN_NOT_OK(CheckpointLocked());
    checkpointed = true;
  }
  return Status::IoError(
      "replication snapshot: cannot produce a tailable checkpoint image");
}

void Service::ObserveReplicationEpoch(uint64_t epoch) {
  uint64_t seen = repl_seen_epoch_.load(std::memory_order_acquire);
  while (epoch > seen &&
         !repl_seen_epoch_.compare_exchange_weak(seen, epoch)) {
  }
  const uint64_t own = repl_epoch_.load(std::memory_order_acquire);
  if (epoch <= own) return;
  if (follower_.load(std::memory_order_acquire)) {
    // A follower adopts its primary's newer epoch (and persists it, so
    // a crash can't roll the epoch back below history it acked).
    std::lock_guard<std::mutex> lock(epoch_file_mu_);
    if (epoch <= repl_epoch_.load(std::memory_order_acquire)) return;
    std::string dir;
    {
      std::shared_lock<std::shared_mutex> gate(wal_gate_);
      if (wal_ != nullptr) dir = wal_->dir();
    }
    if (!dir.empty()) {
      // Best-effort: the atomic rename rarely fails, and a lost adopt
      // only delays re-adoption to the next heartbeat.
      (void)StoreReplicationEpoch(dir, epoch);
    }
    repl_epoch_.store(epoch, std::memory_order_release);
    MetricsRegistry::Global().GetGauge("repl.epoch")->Set(
        static_cast<int64_t>(epoch));
  } else {
    // A primary that sees a newer epoch has been superseded: fence it.
    // Runtime-only state — a fenced primary's operator wipes/resyncs
    // it rather than restarting it into a second life.
    repl_fenced_.store(true, std::memory_order_release);
    MetricsRegistry::Global().GetGauge("repl.fenced")->Set(1);
  }
}

void Service::StopReplication() {
  std::unique_ptr<ReplicationServer> server;
  std::unique_ptr<ReplicationClient> client;
  {
    std::lock_guard<std::mutex> repl(repl_mu_);
    server = std::move(repl_server_);
    client = std::move(repl_client_);
  }
  // Outside repl_mu_: Stop() joins threads whose callbacks may be
  // mid-flight inside this service.
  if (client != nullptr) client->Stop();
  if (server != nullptr) server->Stop();
}

// --- Request telemetry (DESIGN.md §5k) ---

ServiceReply Service::HandleHistory(ServiceCall& call) {
  std::string metric;
  double window_ms = 0.0;  // <= 0: the whole ring
  if (!call.Maybe(&metric) || !call.Maybe(&window_ms)) {
    return Error("usage: history [metric] [window_ms]");
  }

  if (metric.empty()) {
    // No metric: describe the store (series names + configuration).
    Reply reply;
    reply.Add("sampling",
              options_.telemetry.history_enabled ? "true" : "false");
    reply.Add("interval_ms",
              FormatDouble(options_.telemetry.sample_interval_ms));
    reply.Add("points_per_series", history_.points_per_series());
    reply.Add("memory_bytes", history_.MemoryBytes());
    reply.Add("series", JsonList(history_.Names(), [](const auto& name) {
      return "\"" + JsonEscape(name) + "\"";
    }));
    return reply;
  }

  const auto points = history_.Query(metric, window_ms, MonotonicMillis());
  Reply reply;
  reply.AddString("metric", metric);
  reply.Add("points", JsonList(points, [](const auto& p) {
    return "{\"t_ms\": " + FormatDouble(p.t_ms) +
           ", \"value\": " + FormatDouble(p.value) + "}";
  }));
  return reply;
}

void Service::MaybeSlowLog(uint64_t rid, const std::string& line,
                           double elapsed_ms, const ServiceReply& reply) {
  if (slow_threshold_ms_ < 0.0 || elapsed_ms < slow_threshold_ms_) return;
  static MetricCounter* const slow =
      MetricsRegistry::Global().GetCounter("service.slow_requests");
  slow->Increment();

  std::string entry = "{\"rid\": " + std::to_string(rid) + ", \"cmd\": \"" +
                      JsonEscape(CommandLabel(line)) +
                      "\", \"elapsed_ms\": " + FormatDouble(elapsed_ms) +
                      ", \"ok\": " + (reply.ok ? "true" : "false");
  // A refused or degraded request says WHY without a second lookup.
  if (!reply.reason.empty()) {
    entry += ", \"reason\": \"" + JsonEscape(reply.reason) + "\"";
  }
  entry += reply.stages + "}";

  // One structured line per slow request on stderr (grep "SLOWREQ "),
  // plus the in-memory ring behind the `slowlog` command.
  std::fprintf(stderr, "SLOWREQ %s\n", entry.c_str());
  std::lock_guard<std::mutex> lock(slowlog_mu_);
  slowlog_.push_back(std::move(entry));
  while (slowlog_.size() > options_.telemetry.slow_log_entries) {
    slowlog_.pop_front();
  }
}

void Service::TrackInflightBegin(uint64_t rid, const std::string& line,
                                 double start_ms) {
  if (!options_.telemetry.watchdog_enabled || rid == 0) return;
  std::lock_guard<std::mutex> lock(inflight_mu_);
  InflightRequest& request = inflight_[rid];
  request.cmd = CommandLabel(line);
  request.start_ms = start_ms;
}

void Service::TrackInflightEnd(uint64_t rid) {
  if (!options_.telemetry.watchdog_enabled || rid == 0) return;
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_.erase(rid);
}

void Service::SetInflightDeadline(uint64_t rid, double deadline_ms) {
  if (!options_.telemetry.watchdog_enabled || rid == 0) return;
  std::lock_guard<std::mutex> lock(inflight_mu_);
  auto it = inflight_.find(rid);
  if (it != inflight_.end()) it->second.deadline_ms = deadline_ms;
}

void Service::StartTelemetryThreads() {
  const ServiceOptions::TelemetryOptions& t = options_.telemetry;
  if (!t.history_enabled && !t.watchdog_enabled) return;
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    telemetry_stop_ = false;
  }
  if (t.history_enabled) sampler_ = std::thread(&Service::SamplerLoop, this);
  if (t.watchdog_enabled) watchdog_ = std::thread(&Service::WatchdogLoop, this);
}

void Service::StopTelemetryThreads() {
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    telemetry_stop_ = true;
  }
  telemetry_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  if (watchdog_.joinable()) watchdog_.join();
}

void Service::SamplerLoop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.telemetry.sample_interval_ms);
  std::unique_lock<std::mutex> lock(telemetry_mu_);
  while (!telemetry_stop_) {
    lock.unlock();
    SampleOnce();
    lock.lock();
    telemetry_cv_.wait_for(lock, interval, [this] { return telemetry_stop_; });
  }
}

void Service::SampleOnce() {
  const double now_ms = MonotonicMillis();
  // One batch per tick: readers either see the whole tick or none of
  // it (a per-series Record loop would let `history` observe a tick
  // with some series advanced and the rest still pending).
  history_.RecordBatch(now_ms, MetricsRegistry::Global().SampleValues());
}

void Service::WatchdogLoop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.telemetry.watchdog_interval_ms);
  std::unique_lock<std::mutex> lock(telemetry_mu_);
  while (!telemetry_stop_) {
    lock.unlock();
    WatchdogScan();
    lock.lock();
    telemetry_cv_.wait_for(lock, interval, [this] { return telemetry_stop_; });
  }
}

void Service::WatchdogScan() {
  static MetricCounter* const stalled =
      MetricsRegistry::Global().GetCounter("watchdog.stalled_requests");
  static MetricCounter* const overruns =
      MetricsRegistry::Global().GetCounter("watchdog.deadline_overruns");
  static MetricCounter* const fsync_stalls =
      MetricsRegistry::Global().GetCounter("watchdog.fsync_stalls");
  static MetricCounter* const scans =
      MetricsRegistry::Global().GetCounter("watchdog.scans");
  scans->Increment();

  const double now_ms = MonotonicMillis();
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (auto& e : inflight_) {
      InflightRequest& request = e.second;
      if (!request.stall_alerted &&
          now_ms - request.start_ms >= options_.telemetry.stall_threshold_ms) {
        request.stall_alerted = true;  // alert once per request
        stalled->Increment();
        Tracer::Global().RecordInstant(
            "watchdog/stalled_request",
            "\"rid\":" + std::to_string(e.first) + ",\"cmd\":\"" +
                JsonEscape(request.cmd) + "\",\"running_ms\":" +
                FormatDouble(now_ms - request.start_ms));
      }
      if (!request.deadline_alerted && request.deadline_ms > 0.0 &&
          now_ms >
              request.deadline_ms + kDeadlineGraceMs) {
        request.deadline_alerted = true;
        overruns->Increment();
        Tracer::Global().RecordInstant(
            "watchdog/deadline_overrun",
            "\"rid\":" + std::to_string(e.first) + ",\"cmd\":\"" +
                JsonEscape(request.cmd) + "\",\"overrun_ms\":" +
                FormatDouble(now_ms - request.deadline_ms));
      }
    }
  }

  // Fsync probe: the WAL commit leader publishes when it entered fsync;
  // one alert per stuck episode (the start timestamp identifies it).
  const double fsync_since = FsyncInFlightSinceMs();
  if (fsync_since > 0.0 &&
      now_ms - fsync_since >= kFsyncStallMs) {
    if (fsync_alerted_since_ != fsync_since) {
      fsync_alerted_since_ = fsync_since;
      fsync_stalls->Increment();
      Tracer::Global().RecordInstant(
          "watchdog/fsync_stall",
          "\"stuck_ms\":" + FormatDouble(now_ms - fsync_since));
    }
  }
}

ServiceReply Service::RunDebug(ManagedSession& ms) {
  DBW_TRACE_SPAN("service/debug");
  static MetricCounter* const retries =
      MetricsRegistry::Global().GetCounter("service.retries");

  auto source = std::make_shared<CancellationSource>();
  {
    std::lock_guard<std::mutex> lock(ms.cancel_mu);
    if (ms.pending_cancel) {
      ms.pending_cancel = false;
      source->Cancel("cancelled before start");
    }
    ms.active_cancel = source;
  }

  if (ms.settings.deadline_ms > 0.0) {
    // Publish the promised deadline so the watchdog can distinguish
    // "slow" from "past its deadline and still running".
    SetInflightDeadline(CurrentRequestId(),
                        MonotonicMillis() + ms.settings.deadline_ms);
  }

  const RetryPolicy policy = CurrentRetryPolicy();
  size_t attempts = 1;
  auto exp = RetryTransient(
      policy,
      [&]() -> Result<Explanation> {
        ExecContext ctx;
        ctx.token = source->token();
        if (ms.settings.deadline_ms > 0.0) {
          // Fresh deadline per attempt: the deadline is per-run, not
          // per-request, so a retried run gets its full allowance.
          ctx.deadline = Deadline::After(ms.settings.deadline_ms);
        }
        ctx.faults = faults_;
        return ms.session.Debug(ctx);
      },
      &attempts);

  {
    std::lock_guard<std::mutex> lock(ms.cancel_mu);
    if (ms.active_cancel == source) ms.active_cancel.reset();
  }

  if (attempts > 1) retries->Increment(attempts - 1);
  if (!exp.ok()) return exp.status();
  exp->profile.attempts = attempts;
  exp->profile.rid = CurrentRequestId();

  Reply reply;
  {
    DBW_TRACE_SPAN("service/serialize");
    if (exp->partial) reply.Add("partial", "true").Reason(exp->partial_reason);
    reply.Add("explanation", ExplanationToJson(*exp, /*pretty=*/false));
    if (ms.settings.profile_enabled) {
      reply.Add("profile",
                ExplainProfileToJson(exp->profile, /*pretty=*/false));
    }
  }
  // A slow debug logs its stage breakdown and cache hits.
  const ExplainProfile& p = exp->profile;
  reply.stages = ", \"stages\": {";
  for (const StageClock& clock : kStageClocks) {
    if (&clock != kStageClocks) reply.stages += ", ";
    reply.stages += "\"" + std::string(clock.name) +
                    "_ms\": " + FormatDouble(p.*clock.ms);
  }
  reply.stages += "}, \"cache_hits\": " + std::to_string(p.cache_hits);
  return reply;
}

// --- Admission queue ---

Status Service::Start() {
  if (options_.num_workers == 0) {
    return Status::InvalidArgument(
        "Start(): ServiceOptions.num_workers is 0 (synchronous mode)");
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (running_.load(std::memory_order_acquire)) return Status::OK();
    stopping_ = false;
    running_.store(true, std::memory_order_release);
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&Service::WorkerLoop, this);
  }
  return Status::OK();
}

void Service::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!running_.load(std::memory_order_acquire) && workers_.empty()) return;
    stopping_ = true;
    running_.store(false, std::memory_order_release);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(queue_mu_);
  stopping_ = false;
}

std::future<std::string> Service::Submit(std::string line) {
  static MetricCounter* const submitted =
      MetricsRegistry::Global().GetCounter("service.submitted");
  static MetricCounter* const shed =
      MetricsRegistry::Global().GetCounter("service.shed");
  static MetricGauge* const depth =
      MetricsRegistry::Global().GetGauge("service.queue_depth");

  submitted->Increment();
  // The id is assigned at ADMISSION, not execution: a shed response
  // carries a rid too, so even rejected requests are correlatable.
  const uint64_t rid = NextRequestId();
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();

  std::lock_guard<std::mutex> lock(queue_mu_);
  if (!running_.load(std::memory_order_acquire) || stopping_) {
    promise.set_value(
        Error("service is not running").Reason("not_running").Render(rid));
    return future;
  }
  if (queue_.size() >= options_.queue_capacity ||
      queued_bytes_ + line.size() > options_.queue_memory_watermark_bytes) {
    // Load shedding: reject fast and explicitly instead of queueing
    // unboundedly — the client gets a well-formed retryable error in
    // microseconds, not a timeout in seconds.
    shed->Increment();
    promise.set_value(RetryLater("overloaded: request queue is full",
                                 "overloaded", options_.shed_retry_after_ms)
                          .Render(rid));
    return future;
  }
  queued_bytes_ += line.size();
  queue_.push_back(QueuedRequest{std::move(line), rid, std::move(promise),
                                 std::chrono::steady_clock::now()});
  depth->Set(static_cast<int64_t>(queue_.size()));
  queue_cv_.notify_one();
  return future;
}

void Service::WorkerLoop() {
  static MetricGauge* const depth =
      MetricsRegistry::Global().GetGauge("service.queue_depth");
  static MetricHistogram* const request_ms =
      MetricsRegistry::Global().GetHistogram("service.request_ms");

  while (true) {
    QueuedRequest request;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stopping_ && empty: the queue has fully drained — every
        // accepted request got a response before shutdown.
        return;
      }
      request = std::move(queue_.front());
      queue_.pop_front();
      queued_bytes_ -= request.line.size();
      depth->Set(static_cast<int64_t>(queue_.size()));
    }
    std::string response = ExecuteWithRid(request.line, request.rid);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - request.enqueued)
            .count();
    request_ms->Observe(elapsed_ms);
    request.promise.set_value(std::move(response));
  }
}

}  // namespace dbwipes
