// The traced run: per-layer timings taken from the benchmark's own
// code, around calls to each layer's public functions, in the order
// DBWipes::Explain and the Service make them.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <shared_mutex>
#include <thread>

#include "bench.h"
#include "dbwipes/common/stats.h"
#include "dbwipes/core/dbwipes.h"
#include "dbwipes/core/export.h"
#include "dbwipes/storage/shard.h"
#include "dbwipes/storage/wal.h"

namespace perfbench {
namespace {

using dbwipes::RowId;
using dbwipes::Status;

// The pipeline layers a `debug` passes through, in call order; their
// self times are subtracted from the Service's wall time to give
// service.unaccounted_ms.
const char* const kPipelineLayers[] = {
    "preprocess.run",        "enumerate.clean_dprime", "enumerate.datasets",
    "predicates.enumerate",  "rank.rank_anytime",      "merge.merge_and_rerank",
    "export.explanation_json"};
// Spans one replay records: its root plus one per pipeline layer.
constexpr size_t kSpansPerReplay = 1 + std::size(kPipelineLayers);

struct Replay {
  dbwipes::Explanation explanation;
  dbwipes::RankStats stats;
  std::string json;
  Status status = Status::OK();
};

/// Runs `fn` inside a span named `name`.
template <typename F>
auto Timed(Tracer& tracer, const char* name, int parent, uint64_t rid, F&& fn) {
  const int span = tracer.Begin(name, parent, rid);
  auto result = fn();
  tracer.End(span);
  return result;
}

double SpanMs(const Tracer& tracer) {
  const Span& s = tracer.spans().back();
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

/// DBWipes::Explain rebuilt from public calls, with the Service's
/// default ExplainOptions, followed by the JSON export the Service
/// sends back.
Replay ReplayDebug(Tracer& tracer, int root, const dbwipes::Database& db,
                   const dbwipes::Session& session, const DebugSpec& spec) {
  Replay out;
  const dbwipes::ExplainOptions options;
  const dbwipes::QueryResult& result = session.result();
  const std::vector<size_t>& groups = session.selected_groups();
  const std::vector<RowId>& dprime = session.selected_inputs();
  const dbwipes::ErrorMetric& metric = *spec.metric;
  const size_t agg = spec.agg_index;
  const dbwipes::ExecContext& ctx = dbwipes::ExecContext::None();

  auto table_or = db.GetTable(result.query.table_name);
  if (!table_or.ok()) {
    out.status = table_or.status();
    return out;
  }
  const dbwipes::Table& table = **table_or;
  std::shared_ptr<dbwipes::ShardSet> shard_set =
      db.GetShardSet(result.query.table_name);
  std::shared_lock<std::shared_mutex> lease;
  if (shard_set != nullptr) lease = shard_set->ReadLease();
  auto view = dbwipes::FeatureView::Create(
      table, dbwipes::DefaultExplainColumns(table, result.query, agg));
  if (!view.ok()) {
    out.status = view.status();
    return out;
  }

  dbwipes::Explanation& exp = out.explanation;
  auto pre = Timed(tracer, "preprocess.run", root, 0, [&]() {
    return dbwipes::Preprocessor::Run(table, result, groups, metric, agg,
                                      options.per_group_influence);
  });
  exp.preprocess_ms = SpanMs(tracer);
  if (!pre.ok()) {
    out.status = pre.status();
    return out;
  }
  exp.preprocess = *std::move(pre);
  const std::vector<RowId>& suspects = exp.preprocess.suspect_inputs;

  dbwipes::ShardPlan shard_plan;
  const dbwipes::ShardPlan* plan = nullptr;
  if (shard_set != nullptr) {
    shard_plan = dbwipes::ShardPlan::Build(*shard_set, suspects);
    plan = &shard_plan;
  }

  const dbwipes::DatasetEnumerator enumerator(options.enumerator);
  auto cleaned = Timed(tracer, "enumerate.clean_dprime", root, 0, [&]() {
    return enumerator.CleanDPrime(table, dprime, suspects,
                                  exp.preprocess.influences, *view, ctx);
  });
  exp.enumerate_ms = SpanMs(tracer);
  auto candidates = Timed(tracer, "enumerate.datasets", root, 0, [&]() {
    return enumerator.Enumerate(table, result, groups, exp.preprocess, dprime,
                                *view, metric, agg, ctx);
  });
  exp.enumerate_ms += SpanMs(tracer);
  if (!cleaned.ok() || !candidates.ok()) {
    out.status = cleaned.ok() ? candidates.status() : cleaned.status();
    return out;
  }
  exp.cleaned_dprime = *std::move(cleaned);
  exp.candidates = *std::move(candidates);

  const dbwipes::PredicateEnumerator predicate_enumerator(options.predicates);
  auto enumerated = Timed(tracer, "predicates.enumerate", root, 0, [&]() {
    return predicate_enumerator.Enumerate(*view, suspects, exp.candidates, ctx,
                                          plan);
  });
  exp.predicates_ms = SpanMs(tracer);
  if (!enumerated.ok()) {
    out.status = enumerated.status();
    return out;
  }

  // Without user examples the positive-influence tuples are the
  // accuracy reference, exactly as Explain chooses it.
  std::vector<RowId> reference = exp.cleaned_dprime;
  if (reference.empty()) {
    std::vector<double> positive;
    for (const dbwipes::TupleInfluence& ti : exp.preprocess.influences) {
      if (ti.influence > 0.0) positive.push_back(ti.influence);
    }
    if (!positive.empty()) {
      const double cutoff = dbwipes::Quantile(
          positive, options.enumerator.influence_quantile);
      for (const dbwipes::TupleInfluence& ti : exp.preprocess.influences) {
        if (ti.influence > 0.0 && ti.influence >= cutoff) {
          reference.push_back(ti.row);
        }
      }
    }
    std::sort(reference.begin(), reference.end());
  }

  const dbwipes::PredicateRanker ranker(options.ranker);
  auto outcome = Timed(tracer, "rank.rank_anytime", root, 0, [&]() {
    return ranker.RankAnytime(table, result, groups, metric, agg, suspects,
                              reference,
                              exp.preprocess.per_group_baseline_error,
                              *enumerated, ctx, plan);
  });
  exp.rank_ms = SpanMs(tracer);
  if (!outcome.ok()) {
    out.status = outcome.status();
    return out;
  }
  exp.predicates = std::move(outcome->predicates);
  exp.ranked_considered = outcome->scored_prefix;
  exp.total_enumerated = outcome->total_candidates;
  exp.partial = outcome->partial;
  exp.partial_reason = outcome->reason;
  out.stats = outcome->stats;

  if (options.merge_predicates && !exp.partial) {
    auto merged = Timed(tracer, "merge.merge_and_rerank", root, 0, [&]() {
      return dbwipes::MergeAndRerank(
          table, result, groups, metric, agg, suspects, reference,
          exp.preprocess.per_group_baseline_error, exp.predicates,
          options.ranker, options.merger, plan);
    });
    exp.rank_ms += SpanMs(tracer);
    if (!merged.ok()) {
      out.status = merged.status();
      return out;
    }
    exp.predicates = *std::move(merged);
  }

  dbwipes::ExplainProfile& p = exp.profile;
  p.preprocess_ms = exp.preprocess_ms;
  p.enumerate_ms = exp.enumerate_ms;
  p.predicates_ms = exp.predicates_ms;
  p.rank_ms = exp.rank_ms;
  p.table_rows = table.num_rows();
  p.suspect_rows = suspects.size();
  p.candidate_datasets = exp.candidates.size();
  p.predicates_enumerated = exp.total_enumerated;
  p.predicates_scored = exp.ranked_considered;
  p.materialize_ms = out.stats.materialize_ms;
  p.score_ms = out.stats.score_ms;
  p.clause_lookups = out.stats.clause_lookups;
  p.cache_hits = out.stats.cache_hits;
  p.cache_misses = out.stats.cache_misses;
  p.simd_tier = out.stats.simd_tier;
  out.json = Timed(tracer, "export.explanation_json", root, 0, [&]() {
    return dbwipes::ExplanationToJson(exp, /*pretty=*/false);
  });
  return out;
}

/// One table row as the tokens of an `append` command line.
std::string AppendLine(const dbwipes::Table& table, RowId row) {
  std::string line = "append " + table.name();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    line += " " + table.GetValue(row, c).ToString();
  }
  return line;
}

}  // namespace

void MeasureLayers(World& w, const DebugSpec& spec, double budget_ms,
                   Run& run) {
  const Args& args = run.args();
  dbwipes::Service& service = *w.service;
  Tracer tracer;
  const std::string prefix =
      spec.session.empty() ? "" : "@" + spec.session + " ";
  dbwipes::Session* session = &service.session();
  if (!spec.session.empty()) {
    auto managed = service.sessions().GetOrCreate(spec.session);
    if (!run.Check(managed.ok(), "session " + spec.session)) return;
    session = &(*managed)->session;
  }

  std::vector<double> materialize_ms, score_ms, response_bytes, suspect_rows,
      candidates, predicates, rows_per_group;
  size_t cache_hits = 0, clause_lookups = 0, identical = 0, iterations = 0;
  const auto start = Clock::now();
  constexpr size_t kMinIterations = 3;
  while (MsSince(start) < budget_ms || iterations < kMinIterations) {
    ++iterations;
    // The Service's own `debug` (untraced inside: one span around it)
    // and the same request through each layer's public functions. They
    // take turns going first, so neither always pays for running second.
    const int first_span = static_cast<int>(tracer.spans().size());
    Replay replay;
    auto run_replay = [&]() {
      const int root = tracer.Begin("replay.debug", -1, 0);
      replay = ReplayDebug(tracer, root, *w.db, *session, spec);
      tracer.End(root);
    };
    if (iterations % 2 == 0) run_replay();
    const int debug_span = tracer.Begin("service.debug", -1, 0);
    bool ok = false;
    const std::string response = Exec(service, run, prefix + "debug", &ok);
    tracer.End(debug_span);
    if (iterations % 2 == 1) run_replay();
    // Every span of this iteration carries the Service request's id.
    const uint64_t rid =
        std::strtoull(FindValue(response, "rid").c_str(), nullptr, 10);
    for (int i = first_span; i < static_cast<int>(tracer.spans().size()); ++i) {
      tracer.SetRid(i, rid);
    }
    response_bytes.push_back(static_cast<double>(response.size()));
    run.Op(replay.status.ok());
    if (!replay.status.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   replay.status.ToString().c_str());
      continue;
    }
    if (!ok) continue;
    // Layer-replay oracle: same ranked predicates, same text, same score
    // bits (both sides print scores with round-trip precision).
    const std::string served = FindValue(response, "predicates", '[');
    if (run.Check(!served.empty() &&
                      served == FindValue(replay.json, "predicates", '['),
                  "layer-replay oracle: replayed ranking differs from the "
                  "Service's debug response")) {
      ++identical;
    }
    materialize_ms.push_back(replay.stats.materialize_ms);
    score_ms.push_back(replay.stats.score_ms);
    cache_hits += replay.stats.cache_hits;
    clause_lookups += replay.stats.clause_lookups;
    suspect_rows.push_back(
        static_cast<double>(replay.explanation.preprocess.suspect_inputs.size()));
    candidates.push_back(
        static_cast<double>(replay.explanation.candidates.size()));
    predicates.push_back(static_cast<double>(replay.explanation.total_enumerated));

    // Query layer: the session's query, then the clean click's re-query.
    auto query = Timed(tracer, "query.execute_sql", -1, rid,
                       [&]() { return w.db->ExecuteSql(spec.sql); });
    run.Op(query.ok());
    if (query.ok() && query->num_groups() > 0) {
      size_t lineage = 0;
      for (const auto& rows : query->lineage) lineage += rows.size();
      rows_per_group.push_back(static_cast<double>(lineage) /
                               static_cast<double>(query->num_groups()));
    }
    if (!replay.explanation.predicates.empty()) {
      const dbwipes::DBWipes engine(w.db);
      auto cleaned = Timed(tracer, "query.clean", -1, rid, [&]() {
        return engine.Clean(session->result(),
                            replay.explanation.predicates[0].predicate);
      });
      run.Op(cleaned.ok());
    }

    // Dispatch floor.
    for (int i = 0; i < 10; ++i) {
      const int span = tracer.Begin("service.ping", -1, 0);
      Exec(service, run, "ping");
      tracer.End(span);
    }
  }
  std::printf("oracle: replayed ranking identical to the Service's on %zu of "
              "%zu debug calls\n",
              identical, iterations);

  // Shard layer: appends to the benchmark's own 8-shard copy of the table.
  const std::string table_name = session->result().query.table_name;
  auto table_or = w.db->GetTable(table_name);
  if (!run.Check(table_or.ok(), "table " + table_name)) return;
  std::shared_ptr<const dbwipes::Table> table = *table_or;
  // No client runs any more, so the table is read without a lease.
  auto copy = dbwipes::ShardSet::Create(*table, 8);
  if (!run.Check(copy.ok(), "shard copy: " + copy.status().ToString())) return;
  const size_t shard_appends = args.smoke ? 200 : 2000;
  for (size_t i = 0; i < shard_appends; ++i) {
    const RowId row = static_cast<RowId>((i * 7919) % table->num_rows());
    std::vector<dbwipes::Value> values;
    for (size_t c = 0; c < table->num_columns(); ++c) {
      values.push_back(table->GetValue(row, c));
    }
    const int span = tracer.Begin("shard.append", -1, 0);
    const Status st = (*copy)->Append(values);
    tracer.End(span);
    run.Op(st.ok());
  }

  // WAL layer: two threads appending command lines to the benchmark's
  // own log, each recording its own spans.
  const std::string wal_dir = args.scratch + "/wal-layer";
  std::filesystem::remove_all(wal_dir);
  dbwipes::WalOptions wal_options;
  wal_options.dir = wal_dir;
  auto wal = dbwipes::WriteAheadLog::Open(wal_options);
  double fsyncs_per_append = std::nan(""), bytes_per_append = std::nan("");
  std::string wal_base;
  if (run.Check(wal.ok(), "wal open: " + wal.status().ToString())) {
    const size_t per_thread = args.smoke ? 20 : 250;
    std::vector<std::vector<Span>> thread_spans(2);
    std::vector<std::thread> writers;
    for (size_t t = 0; t < 2; ++t) {
      writers.emplace_back([&, t]() {
        for (size_t i = 0; i < per_thread; ++i) {
          const std::string line = AppendLine(
              *table, static_cast<RowId>((i * 2 + t) % table->num_rows()));
          Span span{"wal.append_command", NowNs(), 0, -1, 0};
          const bool ok = (*wal)->AppendCommand(line).ok();
          span.end_ns = NowNs();
          run.Op(ok);
          thread_spans[t].push_back(std::move(span));
        }
      });
    }
    for (std::thread& t : writers) t.join();
    for (auto& spans : thread_spans) {
      for (Span& s : spans) tracer.Add(std::move(s));
    }
    const dbwipes::WalStats stats = (*wal)->stats();
    fsyncs_per_append = static_cast<double>(stats.fsyncs) /
                        static_cast<double>(std::max<size_t>(stats.appends, 1));
    bytes_per_append = static_cast<double>(stats.total_bytes) /
                       static_cast<double>(std::max<size_t>(stats.appends, 1));
    wal_base = std::to_string(stats.appends) + " appends, " +
               std::to_string(stats.fsyncs) + " fsyncs, " +
               std::to_string(stats.total_bytes) + " bytes";
    wal->reset();
  }
  std::filesystem::remove_all(wal_dir);

  // --- Per-layer metrics: median self time of each layer's spans ---
  auto layer_ms = [&](const char* name) { return tracer.MedianSelfMs(name); };
  const std::string n = "n=" + std::to_string(iterations);
  double pipeline_ms = 0.0;
  for (const char* name : kPipelineLayers) pipeline_ms += layer_ms(name);
  const double service_ms = layer_ms("service.debug");

  run.Metric("query.execute_sql_ms", layer_ms("query.execute_sql"), "ms",
             "Database::ExecuteSql, " + n);
  run.Metric("query.rows_per_group", Median(rows_per_group), "rows",
             "lineage rows / result groups");
  run.Metric("query.clean_ms", layer_ms("query.clean"), "ms",
             "DBWipes::Clean, " + n);
  run.Metric("preprocess.run_ms", layer_ms("preprocess.run"), "ms",
             "Preprocessor::Run, " + n);
  run.Metric("preprocess.suspect_rows", Median(suspect_rows), "rows",
             "|F| of " + std::to_string(table->num_rows()) + " table rows");
  run.Metric("enumerate.clean_dprime_ms", layer_ms("enumerate.clean_dprime"),
             "ms", "DatasetEnumerator::CleanDPrime, " + n);
  run.Metric("enumerate.datasets_ms", layer_ms("enumerate.datasets"), "ms",
             "DatasetEnumerator::Enumerate, " + n);
  run.Metric("enumerate.candidates", Median(candidates), "count",
             "candidate datasets");
  run.Metric("predicates.enumerate_ms", layer_ms("predicates.enumerate"), "ms",
             "PredicateEnumerator::Enumerate, " + n);
  run.Metric("predicates.count", Median(predicates), "count",
             "enumerated predicates");
  run.Metric("rank.rank_anytime_ms", layer_ms("rank.rank_anytime"), "ms",
             "PredicateRanker::RankAnytime, " + n);
  run.Metric("rank.materialize_ms", Median(materialize_ms), "ms",
             "RankOutcome.stats");
  run.Metric("rank.score_ms", Median(score_ms), "ms", "RankOutcome.stats");
  run.Metric("rank.cache_hit_ratio",
             clause_lookups > 0 ? static_cast<double>(cache_hits) /
                                      static_cast<double>(clause_lookups)
                                : 0.0,
             "ratio",
             std::to_string(cache_hits) + " hits / " +
                 std::to_string(clause_lookups) + " lookups");
  run.Metric("merge.merge_and_rerank_ms", layer_ms("merge.merge_and_rerank"),
             "ms", "MergeAndRerank, " + n);
  run.Metric("export.explanation_json_ms",
             layer_ms("export.explanation_json"), "ms",
             "ExplanationToJson, " + n);
  run.Metric("export.response_bytes", Median(response_bytes), "bytes",
             "debug response");
  run.Metric("service.ping_ms", layer_ms("service.ping"), "ms",
             "Execute(\"ping\"), n=" + std::to_string(iterations * 10));
  run.Metric("service.unaccounted_ms", service_ms - pipeline_ms, "ms",
             "debug " + std::to_string(service_ms) +
                 " ms - pipeline layers " + std::to_string(pipeline_ms) +
                 " ms");
  run.Metric("shard.append_us", layer_ms("shard.append") * 1000.0, "us",
             "ShardSet::Append, n=" + std::to_string(shard_appends));
  run.Metric("wal.append_command_us", layer_ms("wal.append_command") * 1000.0,
             "us", "WriteAheadLog::AppendCommand, 2 threads");
  run.Metric("wal.fsyncs_per_append", fsyncs_per_append, "ratio", wal_base);
  run.Metric("wal.bytes_per_append", bytes_per_append, "bytes", wal_base);
  const double span_us = Tracer::RecordingCostUs(20000);
  run.Metric("trace.overhead_us", span_us * kSpansPerReplay, "us",
             std::to_string(span_us) + " us per span x " +
                 std::to_string(kSpansPerReplay) + " spans per traced debug");
  run.Metric("debug.service_ms.p50", service_ms, "ms", "untraced, " + n);
  run.Metric("debug.replay_ms.p50", layer_ms("replay.debug") + pipeline_ms,
             "ms", "traced, " + n);

  const std::string spans_path =
      args.scratch + "/spans-" + args.workload + ".json";
  run.Check(tracer.WriteJson(spans_path).ok(), "write " + spans_path);
  std::printf("spans: %zu written to %s\n", tracer.spans().size(),
              spans_path.c_str());
}

}  // namespace perfbench
