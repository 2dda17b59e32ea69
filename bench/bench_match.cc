// Matching-phase throughput: typed batch kernels with the shared
// clause-bitmap cache (MatchEngine) vs boxed Predicate::Matches per
// predicate and row (the oracle), isolated from scoring, on the
// acceptance scenario (100k rows, ~2k candidate predicates over 8
// attributes).
//
// Besides the report table, emits machine-readable BENCH_match.json
// (in the working directory) with the before/after timings, the cache
// utilization, and an end-to-end check that the full ranking produces
// identical orderings on the delta engine and the serial reference.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "dbwipes/common/parallel.h"
#include "dbwipes/core/predicate_ranker.h"
#include "dbwipes/core/preprocessor.h"
#include "dbwipes/datagen/synthetic.h"
#include "dbwipes/expr/match_kernels.h"
#include "dbwipes/expr/parser.h"

namespace dbwipes {
namespace {

using bench::Fmt;
using bench::PoolJson;
using bench::PoolUse;
using bench::PoolUsePerRun;
using bench::PrintPoolUse;
using bench::TablePrinter;

struct MatchProblem {
  LabeledDataset data;
  QueryResult result;
  std::vector<size_t> selected_groups;
  ErrorMetricPtr metric;
  std::vector<RowId> suspects;
  std::vector<RowId> reference;
  double per_group_baseline = 0.0;
  std::vector<EnumeratedPredicate> predicates;
};

/// The enumerator's output shape: threshold families on every numeric
/// attribute, categorical equalities, IN sets, and two-clause
/// conjunctions that re-use those same single-attribute clauses (which
/// is what the clause cache exploits).
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
      const double cut = t / 6.0;
      numeric.push_back(Clause::Make(col, CompareOp::kGe, Value(cut)));
      numeric.push_back(Clause::Make(col, CompareOp::kLe, Value(cut)));
    }
  }
  for (size_t c = 0; c < gen.num_categorical_attrs; ++c) {
    const std::string col = "c" + std::to_string(c);
    std::vector<Value> in_set;
    for (size_t k = 0; k < gen.categorical_cardinality; ++k) {
      categorical.push_back(Clause::Make(
          col, CompareOp::kEq, Value("cat_" + std::to_string(k))));
      if (k % 2 == 0) in_set.push_back(Value("cat_" + std::to_string(k)));
    }
    categorical.push_back(Clause::In(col, std::move(in_set)));
  }
  for (const Clause& c : numeric) add(Predicate({c}));
  for (const Clause& c : categorical) add(Predicate({c}));
  for (size_t i = 0; i < categorical.size(); ++i) {
    for (size_t j = i % 6; j < numeric.size(); j += 6) {
      add(Predicate({categorical[i], numeric[j]}));
    }
  }
  return out;
}

MatchProblem BuildProblem(size_t rows = 100000) {
  SyntheticOptions gen;
  gen.num_rows = rows;
  gen.num_numeric_attrs = 4;
  gen.num_categorical_attrs = 4;
  gen.anomaly_selectivity = 0.03;

  MatchProblem p;
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

/// Before: the boxed oracle, Predicate::Matches per predicate and
/// suspect row.
std::vector<Bitmap> BoxedScanAll(const MatchProblem& p) {
  std::vector<Bitmap> out;
  out.reserve(p.predicates.size());
  for (const EnumeratedPredicate& ep : p.predicates) {
    Bitmap bits(p.suspects.size());
    for (size_t i = 0; i < p.suspects.size(); ++i) {
      if (*ep.predicate.Matches(*p.data.table, p.suspects[i])) bits.Set(i);
    }
    out.push_back(std::move(bits));
  }
  return out;
}

/// After: compile + materialize each distinct clause once (optionally
/// chunked on the pool), then AND cached words per conjunction.
std::vector<Bitmap> MatchKernels(const MatchProblem& p, size_t threads,
                                 MatchEngine* engine_out = nullptr) {
  MatchEngine engine(*p.data.table, p.suspects);
  std::vector<const Predicate*> preds;
  preds.reserve(p.predicates.size());
  for (const EnumeratedPredicate& ep : p.predicates) {
    preds.push_back(&ep.predicate);
  }
  ParallelOptions popts;
  popts.num_threads = threads;
  DBW_CHECK_OK(engine.Materialize(preds, popts));
  std::vector<Bitmap> out;
  out.reserve(preds.size());
  for (const Predicate* pred : preds) {
    out.push_back(*engine.MatchPrepared(*pred));
  }
  if (engine_out != nullptr) *engine_out = std::move(engine);
  return out;
}

std::vector<RankedPredicate> RunRanker(const MatchProblem& p,
                                       RankerOptions::Engine engine) {
  RankerOptions opts;
  opts.engine = engine;
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

/// Times two variants in alternating order within each round so that
/// clock-speed drift across the run biases neither side (timing them
/// in separate back-to-back blocks systematically penalizes whichever
/// runs second).
std::pair<double, double> InterleavedMedianMs(const std::function<void()>& a,
                                              const std::function<void()>& b,
                                              int reps) {
  std::vector<double> ams, bms;
  const auto time_one = [](const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 0) {
      ams.push_back(time_one(a));
      bms.push_back(time_one(b));
    } else {
      bms.push_back(time_one(b));
      ams.push_back(time_one(a));
    }
  }
  std::sort(ams.begin(), ams.end());
  std::sort(bms.begin(), bms.end());
  return {ams[ams.size() / 2], bms[bms.size() / 2]};
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
  std::printf("=== matching phase: batch kernels + clause cache vs boxed ===\n\n");
  MatchProblem p = BuildProblem();
  std::printf("rows=%zu  |F|=%zu  predicates=%zu  threads=%zu\n\n",
              p.data.table->num_rows(), p.suspects.size(),
              p.predicates.size(), DefaultParallelism());

  const int reps = 5;
  const std::vector<Bitmap> boxed = BoxedScanAll(p);
  const double before_ms = MedianMs([&] { BoxedScanAll(p); }, reps);

  MatchEngine probe(*p.data.table, {});
  const std::vector<Bitmap> kernel1 = MatchKernels(p, 1, &probe);
  const std::vector<Bitmap> kernelN = MatchKernels(p, 0);
  // The one-thread runs take ParallelFor's serial path, so the pool's
  // counters grow only in the parallel runs.
  double kernel1_ms = 0.0, kernelN_ms = 0.0;
  const PoolUse pool = PoolUsePerRun(reps, [&] {
    std::tie(kernel1_ms, kernelN_ms) = InterleavedMedianMs(
        [&] { MatchKernels(p, 1); }, [&] { MatchKernels(p, 0); }, reps);
  });

  bool bitmaps_equal =
      boxed.size() == kernel1.size() && boxed.size() == kernelN.size();
  for (size_t i = 0; bitmaps_equal && i < boxed.size(); ++i) {
    bitmaps_equal = boxed[i] == kernel1[i] && boxed[i] == kernelN[i];
  }

  const auto ranked_reference =
      RunRanker(p, RankerOptions::Engine::kReferenceSerial);
  const auto ranked_kernel =
      RunRanker(p, RankerOptions::Engine::kDeltaParallel);
  const bool orders_match = SameOrder(ranked_reference, ranked_kernel);

  const double preds = static_cast<double>(p.predicates.size());
  TablePrinter table({"path", "median_ms", "preds_per_sec", "speedup"});
  table.AddRow({"boxed_matches", Fmt(before_ms, 1),
                Fmt(preds / before_ms * 1000.0, 0), "1.0"});
  table.AddRow({"kernels_1_thread", Fmt(kernel1_ms, 1),
                Fmt(preds / kernel1_ms * 1000.0, 0),
                Fmt(before_ms / kernel1_ms, 1)});
  table.AddRow({"kernels_parallel", Fmt(kernelN_ms, 1),
                Fmt(preds / kernelN_ms * 1000.0, 0),
                Fmt(before_ms / kernelN_ms, 1)});
  table.Print();
  std::printf("\ndistinct clauses cached: %zu  (cache hits %zu, misses %zu)\n",
              probe.num_cached_clauses(), probe.cache_hits(),
              probe.cache_misses());
  std::printf("bitmaps identical to boxed path: %s\n",
              bitmaps_equal ? "yes" : "NO — BUG");
  std::printf("identical rank orderings (delta vs serial reference): %s\n",
              orders_match ? "yes" : "NO — BUG");
  PrintPoolUse(pool, kernelN_ms);
  std::printf("\n");

  FILE* f = std::fopen("BENCH_match.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n"
        "  \"scenario\": {\"rows\": %zu, \"attributes\": 8, "
        "\"predicates\": %zu, \"suspects\": %zu, \"threads\": %zu},\n"
        "  \"before\": {\"path\": \"boxed_matches\", "
        "\"median_ms\": %.3f, \"predicates_per_sec\": %.1f},\n"
        "  \"after_serial\": {\"path\": \"kernels_1_thread\", "
        "\"median_ms\": %.3f, \"predicates_per_sec\": %.1f},\n"
        "  \"after\": {\"path\": \"kernels_parallel\", "
        "\"median_ms\": %.3f, \"predicates_per_sec\": %.1f},\n"
        "  \"distinct_clauses\": %zu,\n"
        "  \"cache_hits\": %zu,\n"
        "  \"speedup_serial\": %.2f,\n"
        "  \"speedup_total\": %.2f,\n"
        "  \"bitmaps_identical\": %s,\n"
        "  \"orderings_identical\": %s,\n"
        "  \"pool\": %s\n"
        "}\n",
        p.data.table->num_rows(), p.predicates.size(), p.suspects.size(),
        DefaultParallelism(), before_ms, preds / before_ms * 1000.0,
        kernel1_ms, preds / kernel1_ms * 1000.0, kernelN_ms,
        preds / kernelN_ms * 1000.0, probe.num_cached_clauses(),
        probe.cache_hits(), before_ms / kernel1_ms, before_ms / kernelN_ms,
        bitmaps_equal ? "true" : "false", orders_match ? "true" : "false",
        PoolJson(pool, kernelN_ms).c_str());
    std::fclose(f);
    std::printf("wrote BENCH_match.json\n\n");
  }
}

const MatchProblem& SmallProblem() {
  static const MatchProblem* p = new MatchProblem(BuildProblem(20000));
  return *p;
}

void BM_BoxedScanAll(benchmark::State& state) {
  const MatchProblem& p = SmallProblem();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoxedScanAll(p));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(p.predicates.size()));
}
BENCHMARK(BM_BoxedScanAll)->Unit(benchmark::kMillisecond);

void BM_MatchKernels(benchmark::State& state) {
  const MatchProblem& p = SmallProblem();
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchKernels(p, threads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(p.predicates.size()));
}
BENCHMARK(BM_MatchKernels)
    ->Arg(1)   // single-threaded kernels (cache effect alone)
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
