// Ranking-engine throughput: delta scoring (RemovalScorer + bitmap
// matching + chunked parallel scoring) vs the from-scratch serial
// reference, on the acceptance scenario (100k rows, 8 explainable
// attributes, several hundred candidate predicates).
//
// Besides the report table, emits machine-readable BENCH_rank.json
// (in the working directory) with the before/after timings so CI can
// track the speedup.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dbwipes/common/parallel.h"
#include "dbwipes/core/predicate_ranker.h"
#include "dbwipes/core/preprocessor.h"
#include "dbwipes/datagen/synthetic.h"
#include "dbwipes/expr/parser.h"

namespace dbwipes {
namespace {

using bench::Fmt;
using bench::PoolJson;
using bench::PoolUse;
using bench::PoolUsePerRun;
using bench::PrintPoolUse;
using bench::TablePrinter;

/// Everything Rank() consumes, prepared once.
struct RankProblem {
  LabeledDataset data;
  QueryResult result;
  std::vector<size_t> selected_groups;
  ErrorMetricPtr metric;
  std::vector<RowId> suspects;
  std::vector<RowId> reference;
  double per_group_baseline = 0.0;
  std::vector<EnumeratedPredicate> predicates;
};

/// Builds a candidate set the size a real Debug() sees: threshold
/// sweeps over every numeric attribute, equalities over every
/// categorical value, plus two-clause conjunctions — a few hundred
/// predicates over 8 attributes.
std::vector<EnumeratedPredicate> MakeCandidates(const SyntheticOptions& gen) {
  std::vector<EnumeratedPredicate> out;
  auto add = [&out](Predicate p) {
    EnumeratedPredicate ep;
    ep.predicate = std::move(p);
    ep.strategy = "bench";
    out.push_back(std::move(ep));
  };
  std::vector<Clause> numeric, categorical;
  for (size_t a = 0; a < gen.num_numeric_attrs; ++a) {
    const std::string col = "a" + std::to_string(a);
    for (int t = -12; t <= 12; ++t) {
      const double cut = t / 6.0;  // sweep the N(0,1) support
      numeric.push_back(Clause::Make(col, CompareOp::kGe, Value(cut)));
      numeric.push_back(Clause::Make(col, CompareOp::kLe, Value(cut)));
    }
  }
  for (size_t c = 0; c < gen.num_categorical_attrs; ++c) {
    const std::string col = "c" + std::to_string(c);
    for (size_t k = 0; k < gen.categorical_cardinality; ++k) {
      categorical.push_back(Clause::Make(
          col, CompareOp::kEq, Value("cat_" + std::to_string(k))));
    }
  }
  for (const Clause& c : numeric) add(Predicate({c}));
  for (const Clause& c : categorical) add(Predicate({c}));
  // Two-clause conjunctions: every categorical x a numeric stride.
  for (size_t i = 0; i < categorical.size(); ++i) {
    for (size_t j = i % 7; j < numeric.size(); j += 7) {
      add(Predicate({categorical[i], numeric[j]}));
    }
  }
  return out;
}

RankProblem BuildProblem(size_t rows = 100000) {
  SyntheticOptions gen;
  gen.num_rows = rows;
  gen.num_numeric_attrs = 4;
  gen.num_categorical_attrs = 4;
  gen.anomaly_selectivity = 0.03;

  RankProblem p;
  p.data = *GenerateSyntheticDataset(gen);
  AggregateQuery query =
      *ParseQuery("SELECT g, avg(v) AS a FROM synthetic GROUP BY g");
  p.result = *ExecuteQuery(query, *p.data.table);
  for (size_t g = 0; g < p.result.num_groups(); ++g) {
    if (p.result.AggValue(g, 0) >= 50.8) p.selected_groups.push_back(g);
  }
  p.metric = TooHigh(50.0);
  PreprocessResult pre = *Preprocessor::Run(*p.data.table, p.result,
                                            p.selected_groups, *p.metric);
  p.suspects = pre.suspect_inputs;
  p.per_group_baseline = pre.per_group_baseline_error;
  // Accuracy reference: the top positive-influence quartile, as the
  // pipeline uses when the user gives no examples.
  std::vector<const TupleInfluence*> positive;
  for (const TupleInfluence& ti : pre.influences) {
    if (ti.influence > 0.0) positive.push_back(&ti);
  }
  for (size_t i = 0; i < positive.size() / 4; ++i) {
    p.reference.push_back(positive[i]->row);
  }
  std::sort(p.reference.begin(), p.reference.end());
  p.predicates = MakeCandidates(gen);
  return p;
}

std::vector<RankedPredicate> RunEngine(const RankProblem& p,
                                       RankerOptions::Engine engine,
                                       size_t threads) {
  RankerOptions opts;
  opts.engine = engine;
  opts.num_threads = threads;
  PredicateRanker ranker(opts);
  auto ranked =
      ranker.Rank(*p.data.table, p.result, p.selected_groups, *p.metric,
                  /*agg_index=*/0, p.suspects, p.reference,
                  p.per_group_baseline, p.predicates);
  DBW_CHECK_OK(ranked.status());
  return *std::move(ranked);
}

double MedianMs(const std::function<void()>& fn, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

bool SameOrder(const std::vector<RankedPredicate>& a,
               const std::vector<RankedPredicate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].predicate.CanonicalString() != b[i].predicate.CanonicalString())
      return false;
  }
  return true;
}

void PrintReportAndJson() {
  std::printf("=== ranking engine: delta+parallel vs serial reference ===\n\n");
  RankProblem p = BuildProblem();
  std::printf("rows=%zu  |F|=%zu  selected_groups=%zu  predicates=%zu  "
              "threads=%zu\n\n",
              p.data.table->num_rows(), p.suspects.size(),
              p.selected_groups.size(), p.predicates.size(),
              DefaultParallelism());

  const int reps = 5;
  const auto reference =
      RunEngine(p, RankerOptions::Engine::kReferenceSerial, 1);
  const double before_ms = MedianMs(
      [&] { RunEngine(p, RankerOptions::Engine::kReferenceSerial, 1); },
      reps);
  const auto delta1 = RunEngine(p, RankerOptions::Engine::kDeltaParallel, 1);
  const double delta1_ms = MedianMs(
      [&] { RunEngine(p, RankerOptions::Engine::kDeltaParallel, 1); }, reps);
  const auto deltaN = RunEngine(p, RankerOptions::Engine::kDeltaParallel, 0);
  double deltaN_ms = 0.0;
  const PoolUse pool = PoolUsePerRun(reps, [&] {
    deltaN_ms = MedianMs(
        [&] { RunEngine(p, RankerOptions::Engine::kDeltaParallel, 0); },
        reps);
  });

  const bool orders_match =
      SameOrder(reference, delta1) && SameOrder(reference, deltaN);
  const double preds = static_cast<double>(p.predicates.size());

  TablePrinter table({"engine", "median_ms", "preds_per_sec", "speedup"});
  table.AddRow({"reference_serial", Fmt(before_ms, 1),
                Fmt(preds / before_ms * 1000.0, 0), "1.0"});
  table.AddRow({"delta_1_thread", Fmt(delta1_ms, 1),
                Fmt(preds / delta1_ms * 1000.0, 0),
                Fmt(before_ms / delta1_ms, 1)});
  table.AddRow({"delta_parallel", Fmt(deltaN_ms, 1),
                Fmt(preds / deltaN_ms * 1000.0, 0),
                Fmt(before_ms / deltaN_ms, 1)});
  table.Print();
  std::printf("\nidentical orderings across engines: %s\n",
              orders_match ? "yes" : "NO — BUG");
  PrintPoolUse(pool, deltaN_ms);
  std::printf("\n");

  FILE* f = std::fopen("BENCH_rank.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n"
        "  \"scenario\": {\"rows\": %zu, \"attributes\": 8, "
        "\"predicates\": %zu, \"suspects\": %zu, \"threads\": %zu},\n"
        "  \"before\": {\"engine\": \"reference_serial\", "
        "\"median_ms\": %.3f, \"predicates_per_sec\": %.1f},\n"
        "  \"after_serial\": {\"engine\": \"delta_1_thread\", "
        "\"median_ms\": %.3f, \"predicates_per_sec\": %.1f},\n"
        "  \"after\": {\"engine\": \"delta_parallel\", "
        "\"median_ms\": %.3f, \"predicates_per_sec\": %.1f},\n"
        "  \"speedup_delta_serial\": %.2f,\n"
        "  \"speedup_total\": %.2f,\n"
        "  \"orderings_identical\": %s,\n"
        "  \"pool\": %s\n"
        "}\n",
        p.data.table->num_rows(), p.predicates.size(), p.suspects.size(),
        DefaultParallelism(), before_ms, preds / before_ms * 1000.0,
        delta1_ms, preds / delta1_ms * 1000.0, deltaN_ms,
        preds / deltaN_ms * 1000.0, before_ms / delta1_ms,
        before_ms / deltaN_ms, orders_match ? "true" : "false",
        PoolJson(pool, deltaN_ms).c_str());
    std::fclose(f);
    std::printf("wrote BENCH_rank.json\n\n");
  }
}

const RankProblem& SmallProblem() {
  static const RankProblem* p = new RankProblem(BuildProblem(20000));
  return *p;
}

void BM_RankReferenceSerial(benchmark::State& state) {
  const RankProblem& p = SmallProblem();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunEngine(p, RankerOptions::Engine::kReferenceSerial, 1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(p.predicates.size()));
}
BENCHMARK(BM_RankReferenceSerial)->Unit(benchmark::kMillisecond);

void BM_RankDelta(benchmark::State& state) {
  const RankProblem& p = SmallProblem();
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunEngine(p, RankerOptions::Engine::kDeltaParallel, threads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(p.predicates.size()));
}
BENCHMARK(BM_RankDelta)
    ->Arg(1)   // single-threaded delta
    ->Arg(0)   // DefaultParallelism()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbwipes

int main(int argc, char** argv) {
  dbwipes::PrintReportAndJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
