// Shard-parallel explain throughput on the streaming clean-as-you-
// query loop: append a batch of fresh readings, then re-rank the
// standing explanation. With one shard every append invalidates the
// whole clause-bitmap cache, so each iteration re-materializes every
// candidate over the full suspect universe; with S shards only the
// tail shard goes cold and the other S-1 engines answer from cache.
// On a single core the entire win is cache retention, not threads.
//
// Emits machine-readable BENCH_shard.json (working directory) with
// per-shard-count throughput, the 8-vs-1 speedup, and the fraction of
// shard engines that stayed warm across an append.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dbwipes/core/predicate_ranker.h"
#include "dbwipes/core/preprocessor.h"
#include "dbwipes/datagen/intel_generator.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/query/executor.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {
namespace {

using bench::Fmt;
using bench::TablePrinter;

constexpr size_t kIterations = 5;
constexpr size_t kBatchRows = 64;

/// Candidate family over the sensor schema: threshold sweeps on the
/// measurement columns, per-mote equalities, and mote x temperature
/// conjunctions — a few hundred predicates, like a real Debug() sees.
std::vector<EnumeratedPredicate> MakeCandidates(size_t num_sensors) {
  std::vector<EnumeratedPredicate> out;
  auto add = [&out](Predicate p) {
    EnumeratedPredicate ep;
    ep.predicate = std::move(p);
    ep.strategy = "bench";
    out.push_back(std::move(ep));
  };
  for (size_t s = 0; s < num_sensors; ++s) {
    add(Predicate({Clause::Make("sensorid", CompareOp::kEq,
                                Value(static_cast<int64_t>(s)))}));
  }
  // Three-clause boxes with a distinct threshold per clause: every
  // candidate costs three cold boxed scans of the suspect universe —
  // exactly the work the warm shard caches hand back for free — while
  // scoring stays one removal set per candidate.
  for (int i = 0; i < 400; ++i) {
    add(Predicate(
        {Clause::Make("temp", CompareOp::kGe, Value(10.0 + 0.07 * i)),
         Clause::Make("humidity", CompareOp::kGe, Value(15.0 + 0.11 * i)),
         (i % 2 == 0)
             ? Clause::Make("light", CompareOp::kGe, Value(10.0 + 1.9 * i))
             : Clause::Make("voltage", CompareOp::kLe,
                            Value(1.8 + 0.002 * i))}));
  }
  return out;
}

struct StreamResult {
  size_t num_shards = 0;
  double total_ms = 0.0;
  double preds_per_sec = 0.0;
  size_t reused_lanes = 0;   // last iteration
  size_t cached_clauses = 0; // after last iteration, all shards
  double retention = 0.0;    // reused_lanes / num_shards
  double materialize_ms = 0.0;  // last iteration
  double score_ms = 0.0;        // last iteration
  std::string top1;
};

/// One streaming run: shard the ~100k-row Intel world S ways, warm the
/// caches with one untimed explain, then repeat (append batch, re-rank)
/// and clock the loop.
StreamResult RunStream(size_t num_shards) {
  IntelOptions gen;
  gen.reading_interval_minutes = 5.0;  // ~106k rows over 7 days
  LabeledDataset data = *GenerateIntelDataset(gen);
  auto set = *ShardSet::Create(*data.table, num_shards);

  AggregateQuery query = *ParseQuery(
      "SELECT sensorid, avg(temp) AS t FROM readings GROUP BY sensorid");
  QueryResult result = *ExecuteQuery(query, *data.table);
  // Brush the 12 hottest motes — a wide outlier band around the two
  // battery-death signatures, the shape of a real cleaning brush.
  std::vector<size_t> selected;
  for (size_t g = 0; g < result.num_groups(); ++g) selected.push_back(g);
  std::sort(selected.begin(), selected.end(), [&](size_t a, size_t b) {
    return result.AggValue(a, 0) > result.AggValue(b, 0);
  });
  selected.resize(std::min<size_t>(12, selected.size()));
  std::sort(selected.begin(), selected.end());
  auto metric = TooHigh(25.0);
  PreprocessResult pre =
      *Preprocessor::Run(*data.table, result, selected, *metric);
  const std::vector<EnumeratedPredicate> candidates =
      MakeCandidates(gen.num_sensors);

  PredicateRanker ranker;
  auto rank_once = [&]() {
    ShardPlan plan = ShardPlan::Build(*set, pre.suspect_inputs);
    auto out = ranker.RankAnytime(*data.table, result, selected, *metric,
                                  /*agg_index=*/0, pre.suspect_inputs, {},
                                  pre.per_group_baseline_error, candidates,
                                  ExecContext::None(), &plan);
    DBW_CHECK_OK(out.status());
    return *std::move(out);
  };
  auto append_batch = [&](size_t iter) {
    for (size_t i = 0; i < kBatchRows; ++i) {
      const int64_t minute = static_cast<int64_t>(7 * 1440 + iter * 10 + i);
      DBW_CHECK_OK(set->Append(
          {Value(static_cast<int64_t>(i % gen.num_sensors)), Value(minute),
           Value(minute / 30), Value((minute / 60) % 24), Value(21.5),
           Value(38.0), Value(150.0), Value(2.6)}));
    }
  };

  rank_once();  // warm the per-shard caches (untimed)

  StreamResult r;
  r.num_shards = num_shards;
  RankOutcome last;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t iter = 0; iter < kIterations; ++iter) {
    append_batch(iter);
    last = rank_once();
  }
  r.total_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  r.preds_per_sec = static_cast<double>(kIterations * candidates.size()) /
                    (r.total_ms / 1000.0);
  r.materialize_ms = last.stats.materialize_ms;
  r.score_ms = last.stats.score_ms;
  for (const RankStats::ShardLane& lane : last.stats.shards) {
    if (lane.engine_reused) ++r.reused_lanes;
    r.cached_clauses += lane.cached_clauses;
  }
  r.retention =
      static_cast<double>(r.reused_lanes) / static_cast<double>(num_shards);
  if (!last.predicates.empty()) {
    r.top1 = last.predicates[0].predicate.ToString();
  }
  return r;
}

void PrintReportAndJson() {
  std::printf(
      "=== shard-parallel explain: streaming append + re-rank loop ===\n\n");
  std::printf("workload: Intel sensors, ~106k rows, %zu-row batches, "
              "%zu explains per shard count\n\n",
              kBatchRows, kIterations);

  std::vector<StreamResult> results;
  for (size_t s : {1u, 2u, 4u, 8u}) results.push_back(RunStream(s));
  const StreamResult& base = results.front();

  TablePrinter table({"shards", "loop_ms", "preds_per_sec", "speedup",
                      "warm_lanes", "retention"});
  for (const StreamResult& r : results) {
    table.AddRow({std::to_string(r.num_shards), Fmt(r.total_ms, 1),
                  Fmt(r.preds_per_sec, 0),
                  Fmt(r.preds_per_sec / base.preds_per_sec, 2),
                  std::to_string(r.reused_lanes) + "/" +
                      std::to_string(r.num_shards),
                  Fmt(r.retention, 3)});
  }
  table.Print();
  std::printf("\nlast-iteration split: materialize %s ms, score %s ms (S=8)\n",
              Fmt(results.back().materialize_ms, 2).c_str(),
              Fmt(results.back().score_ms, 2).c_str());
  std::printf("top predicate: %s\n\n", results.back().top1.c_str());

  FILE* f = std::fopen("BENCH_shard.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"scenario\": {\"workload\": \"intel_sensors\", "
                 "\"rows\": 106000, \"batch_rows\": %zu, "
                 "\"iterations\": %zu},\n"
                 "  \"shards\": [\n",
                 kBatchRows, kIterations);
    for (size_t i = 0; i < results.size(); ++i) {
      const StreamResult& r = results[i];
      std::fprintf(f,
                   "    {\"shards\": %zu, \"loop_ms\": %.3f, "
                   "\"preds_per_sec\": %.1f, \"speedup\": %.3f, "
                   "\"warm_lanes\": %zu, \"retention\": %.4f, "
                   "\"cached_clauses\": %zu}%s\n",
                   r.num_shards, r.total_ms, r.preds_per_sec,
                   r.preds_per_sec / base.preds_per_sec, r.reused_lanes,
                   r.retention, r.cached_clauses,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"speedup_8_vs_1\": %.3f,\n"
                 "  \"retention_8\": %.4f\n"
                 "}\n",
                 results.back().preds_per_sec / base.preds_per_sec,
                 results.back().retention);
    std::fclose(f);
    std::printf("wrote BENCH_shard.json\n\n");
  }
}

}  // namespace
}  // namespace dbwipes

int main(int argc, char** argv) {
  dbwipes::PrintReportAndJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
