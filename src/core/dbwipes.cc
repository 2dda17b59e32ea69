#include "dbwipes/core/dbwipes.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <shared_mutex>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/parallel.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/query/incremental.h"

namespace dbwipes {

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

using StageHistograms = std::array<MetricHistogram*, std::size(kStageClocks)>;

/// One `explain.<name>_ms` histogram per stage clock.
StageHistograms GetStageHistograms() {
  StageHistograms out;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = MetricsRegistry::Global().GetHistogram(
        std::string("explain.") + kStageClocks[i].name + "_ms");
  }
  return out;
}

/// Pipeline-level metrics, each counted or observed once per Explain.
/// The stage histograms are the per-stage latency lanes the SLO history
/// samples beside the end-to-end service.request_ms.
struct ExplainMetrics {
  MetricCounter* runs;
  MetricCounter* partial;
  MetricCounter* cancellations;
  MetricCounter* deadline_expiries;
  StageHistograms stage_ms;
  MetricCounter* sharded_runs;
  MetricHistogram* shard_skew;
};

const ExplainMetrics& Metrics() {
  static const ExplainMetrics m = {
      MetricsRegistry::Global().GetCounter("explain.runs"),
      MetricsRegistry::Global().GetCounter("explain.partial"),
      MetricsRegistry::Global().GetCounter("exec.cancellations"),
      MetricsRegistry::Global().GetCounter("exec.deadline_expiries"),
      GetStageHistograms(),
      MetricsRegistry::Global().GetCounter("explain.sharded_runs"),
      MetricsRegistry::Global().GetHistogram("explain.shard_skew"),
  };
  return m;
}

/// The catalog's table for `name`, pinned for reading: when the name
/// is sharded the set's read lease is held for the object's lifetime,
/// so the fused view cannot grow under the reader.
struct LeasedTable {
  std::shared_ptr<const Table> table;
  std::shared_ptr<ShardSet> shard_set;  // nullptr when unsharded
  std::shared_lock<std::shared_mutex> lease;
};

Result<LeasedTable> LeaseTable(const Database& db, const std::string& name) {
  LeasedTable out;
  DBW_ASSIGN_OR_RETURN(out.table, db.GetTable(name));
  out.shard_set = db.GetShardSet(name);
  if (out.shard_set != nullptr) out.lease = out.shard_set->ReadLease();
  return out;
}

/// Whether `result`'s version stamp names `table` as it is now.
bool Describes(const QueryResult& result, const Table& table) {
  return result.source.lock().get() == &table &&
         result.source_rows == table.num_rows();
}

}  // namespace

std::vector<std::string> DefaultExplainColumns(const Table& table,
                                               const AggregateQuery& query,
                                               size_t agg_index) {
  std::vector<std::string> exclude;
  if (agg_index < query.aggregates.size() &&
      query.aggregates[agg_index].argument) {
    query.aggregates[agg_index].argument->CollectColumns(&exclude);
  }
  std::vector<std::string> out;
  for (const Field& f : table.schema().fields()) {
    if (std::find(exclude.begin(), exclude.end(), f.name) == exclude.end()) {
      out.push_back(f.name);
    }
  }
  return out;
}

Result<Explanation> DBWipes::Explain(const QueryResult& result,
                                     const ExplanationRequest& request,
                                     const ExecContext& ctx) const {
  DBW_FAULT(ctx, "pipeline/explain");
  if (!request.metric) {
    return Status::InvalidArgument("no error metric supplied");
  }
  DBW_TRACE_SPAN("pipeline/explain");
  Metrics().runs->Increment();
  const auto t_start = std::chrono::steady_clock::now();
  const ThreadPool::StatsSnapshot pool_before = ThreadPool::Global().stats();

  // Sharded target: the whole pipeline (feature view, preprocess,
  // enumeration, ranking, merge) runs under ONE read lease, so a
  // concurrent Append cannot grow any shard — or the fused view —
  // mid-run. The lease is shared: concurrent explains proceed freely.
  DBW_ASSIGN_OR_RETURN(LeasedTable leased,
                       LeaseTable(*db_, result.query.table_name));
  const std::shared_ptr<const Table>& table = leased.table;
  const std::shared_ptr<ShardSet>& shard_set = leased.shard_set;

  std::vector<std::string> columns = request.explain_columns;
  if (columns.empty()) {
    columns = DefaultExplainColumns(*table, result.query, request.agg_index);
  }
  DBW_ASSIGN_OR_RETURN(FeatureView view, FeatureView::Create(*table, columns));

  Explanation out;

  // A stage interrupted by the context degrades the run instead of
  // failing it: everything completed so far ships, flagged partial.
  auto degrade = [&out](const std::string& why) {
    out.partial = true;
    if (out.partial_reason.empty()) {
      out.partial_reason = why;
      Tracer::Global().RecordInstant("pipeline/degraded",
                                     "\"reason\":\"" + why + "\"");
    }
  };

  // Final bookkeeping, run on every exit (complete or degraded): the
  // profile mirrors the stage clocks, adds the pool's share of the run
  // and the anytime events, and the run-level metrics are flushed.
  auto finish = [&]() {
    ExplainProfile& p = out.profile;
    p.preprocess_ms = out.preprocess_ms;
    p.enumerate_ms = out.enumerate_ms;
    p.predicates_ms = out.predicates_ms;
    p.rank_ms = out.rank_ms;
    p.total_ms = MillisSince(t_start);
    p.table_rows = table->num_rows();
    p.suspect_rows = out.preprocess.suspect_inputs.size();
    p.candidate_datasets = out.candidates.size();
    p.predicates_enumerated = out.total_enumerated;
    p.predicates_scored = out.ranked_considered;

    const ThreadPool::StatsSnapshot after = ThreadPool::Global().stats();
    p.pool_threads = ThreadPool::Global().num_threads() + 1;
    p.pool_regions = after.regions - pool_before.regions;
    p.pool_chunks = after.chunks - pool_before.chunks;
    p.pool_busy_ms = after.busy_ms - pool_before.busy_ms;
    p.pool_peak_queue_depth = after.peak_queue_depth;
    if (p.total_ms > 0.0 && p.pool_threads > 0) {
      p.pool_utilization = std::clamp(
          p.pool_busy_ms / (p.total_ms * static_cast<double>(p.pool_threads)),
          0.0, 1.0);
    }

    p.partial = out.partial;
    p.partial_reason = out.partial_reason;
    p.cancelled = ctx.token.IsCancelled();
    p.deadline_expired = ctx.deadline.expired();
    p.has_deadline = !ctx.deadline.infinite();
    if (p.has_deadline) p.deadline_remaining_ms = ctx.deadline.remaining_ms();

    if (out.partial) Metrics().partial->Increment();
    if (p.cancelled) Metrics().cancellations->Increment();
    if (p.deadline_expired) Metrics().deadline_expiries->Increment();
    for (size_t i = 0; i < std::size(kStageClocks); ++i) {
      Metrics().stage_ms[i]->Observe(p.*kStageClocks[i].ms);
    }
  };

  // Stage 1: Preprocessor.
  auto t0 = std::chrono::steady_clock::now();
  Status cont = ctx.CheckContinue();
  if (!cont.ok()) {
    degrade(cont.ToString());
    finish();
    return out;
  }
  {
    DBW_TRACE_SPAN("pipeline/preprocess");
    DBW_ASSIGN_OR_RETURN(
        out.preprocess,
        Preprocessor::Run(*table, result, request.selected_groups,
                          *request.metric, request.agg_index,
                          options_.per_group_influence));
  }
  out.preprocess_ms = MillisSince(t0);

  // The suspect universe is fixed from here on: partition it by the
  // shard boundaries once, for every downstream stage.
  ShardPlan shard_plan;
  const ShardPlan* plan = nullptr;
  if (shard_set != nullptr) {
    shard_plan = ShardPlan::Build(*shard_set, out.preprocess.suspect_inputs);
    plan = &shard_plan;
  }

  // Stage 2: Dataset Enumerator. Both enumerators read F through one
  // snapshot, whose presort every subgroup search and tree fit shares.
  t0 = std::chrono::steady_clock::now();
  const FeatureColumns suspect_columns =
      view.Snapshot(out.preprocess.suspect_inputs);
  DatasetEnumerator enumerator(options_.enumerator);
  {
    DBW_TRACE_SPAN("pipeline/enumerate");
    auto candidates = enumerator.Enumerate(
        *table, result, request.selected_groups, out.preprocess,
        request.suspicious_inputs, suspect_columns, *request.metric,
        request.agg_index, ctx, &out.cleaned_dprime);
    out.enumerate_ms = MillisSince(t0);
    if (!candidates.ok()) {
      if (candidates.status().IsInterrupt()) {
        degrade(candidates.status().ToString());
        finish();
        return out;
      }
      return candidates.status();
    }
    out.candidates = *std::move(candidates);
  }

  // Stage 3: Predicate Enumerator.
  t0 = std::chrono::steady_clock::now();
  PredicateEnumerator predicate_enumerator(options_.predicates);
  std::vector<EnumeratedPredicate> enumerated;
  {
    DBW_TRACE_SPAN("pipeline/predicates");
    auto r = predicate_enumerator.Enumerate(
        suspect_columns, out.preprocess.suspect_inputs, out.candidates, ctx,
        plan);
    out.predicates_ms = MillisSince(t0);
    if (!r.ok()) {
      if (r.status().IsInterrupt()) {
        degrade(r.status().ToString());
        finish();
        return out;
      }
      return r.status();
    }
    enumerated = *std::move(r);
  }
  out.total_enumerated = enumerated.size();

  // Stage 4: Predicate Ranker. When the user supplied no examples,
  // the positive-influence tuples stand in as the accuracy reference,
  // so over-broad predicates (which also zero the error, by deleting
  // half the data) rank below tight ones.
  t0 = std::chrono::steady_clock::now();
  const std::vector<RowId> reference =
      !out.cleaned_dprime.empty()
          ? out.cleaned_dprime
          : TopInfluenceRows(out.preprocess,
                             options_.enumerator.influence_quantile);
  PredicateRanker ranker(options_.ranker);
  RankOutcome outcome;
  {
    DBW_TRACE_SPAN("pipeline/rank");
    DBW_ASSIGN_OR_RETURN(
        outcome,
        ranker.RankAnytime(*table, result, request.selected_groups,
                           *request.metric, request.agg_index,
                           out.preprocess.suspect_inputs, reference,
                           out.preprocess.per_group_baseline_error, enumerated,
                           ctx, plan));
  }
  out.predicates = std::move(outcome.predicates);
  out.ranked_considered = outcome.scored_prefix;
  out.total_enumerated = outcome.total_candidates;
  // The ranker filled its part of the profile. Only this ranking is
  // counted: the merge below ranks again.
  static_cast<RankStats&>(out.profile) = std::move(outcome.stats);
  if (plan != nullptr) {
    Metrics().sharded_runs->Increment();
    if (!out.preprocess.suspect_inputs.empty()) {
      Metrics().shard_skew->Observe(out.profile.shard_skew);
    }
  }
  // The ranker's reason is the context's own stop status, so a cancel
  // reads as a cancel, not as a timeout.
  if (outcome.partial) degrade(outcome.reason);
  // Merging re-scores pairwise combinations — pure bonus work; skip it
  // once the run is already degraded or the clock has run out.
  if (options_.merge_predicates && !out.partial && !ctx.StopRequested()) {
    DBW_TRACE_SPAN("pipeline/merge");
    DBW_ASSIGN_OR_RETURN(
        out.predicates,
        MergeAndRerank(*table, result, request.selected_groups,
                       *request.metric, request.agg_index,
                       out.preprocess.suspect_inputs, reference,
                       out.preprocess.per_group_baseline_error,
                       out.predicates, options_.ranker, options_.merger,
                       plan));
  }
  out.rank_ms = MillisSince(t0);
  finish();
  return out;
}

Result<QueryResult> DBWipes::Clean(const QueryResult& result,
                                   const Predicate& predicate) const {
  {
    Result<LeasedTable> leased = LeaseTable(*db_, result.query.table_name);
    if (leased.ok() && Describes(result, *leased->table) &&
        !predicate.empty()) {
      DBW_TRACE_SPAN("sql/clean");
      return IncrementalClean(*leased->table, result, predicate);
    }
  }
  // The result is stale, or the predicate is empty: re-execute the
  // rewrite, outside the lease (Execute takes its own).
  return db_->Execute(result.query.WithCleaningPredicate(predicate));
}

bool DBWipes::IsCurrent(const QueryResult& result) const {
  Result<LeasedTable> leased = LeaseTable(*db_, result.query.table_name);
  return leased.ok() && Describes(result, *leased->table);
}

}  // namespace dbwipes
