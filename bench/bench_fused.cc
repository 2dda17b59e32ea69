// Fused-conjunction throughput: the one-pass SIMD-dispatched predicate
// programs (MatchEngine::Materialize + MatchPrepared) vs the per-clause
// materialize+word-AND path (each clause's ClauseBitmap), on a multi-clause
// workload over the 100k-row acceptance scenario — each candidate is a
// K ∈ {3, 4} conjunction whose numeric thresholds are unique to the
// predicate (so the clause cache cannot amortize them) plus one shared
// categorical clause (so the fused programs still exercise the
// bitmap-ref lowering).
//
// Besides the report table, emits machine-readable BENCH_fused.json
// with per-tier timings (dispatched SIMD tier and the forced-scalar
// tier via DBWIPES_SIMD=off), cross-path bitmap identity, and an
// end-to-end check that full rankings are identical at both tiers and
// on the serial reference engine.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dbwipes/common/parallel.h"
#include "dbwipes/core/predicate_ranker.h"
#include "dbwipes/core/preprocessor.h"
#include "dbwipes/datagen/synthetic.h"
#include "dbwipes/expr/fused_kernels.h"
#include "dbwipes/expr/match_kernels.h"
#include "dbwipes/expr/parser.h"

namespace dbwipes {
namespace {

using bench::Fmt;
using bench::TablePrinter;

struct FusedProblem {
  LabeledDataset data;
  QueryResult result;
  std::vector<size_t> selected_groups;
  ErrorMetricPtr metric;
  std::vector<RowId> suspects;
  std::vector<RowId> reference;
  double per_group_baseline = 0.0;
  std::vector<EnumeratedPredicate> predicates;
};

/// K ∈ {3, 4} conjunctions: one shared categorical equality (drawn
/// from a small pool, so fusion lowers it as a cached-bitmap ref) and
/// 2–3 numeric thresholds whose cuts are unique to the predicate —
/// the worst case for the per-clause cache (every threshold is a
/// fresh bitmap) and the best case for one-pass fusion.
std::vector<EnumeratedPredicate> MakeFusedCandidates(
    const SyntheticOptions& gen, size_t count) {
  std::vector<EnumeratedPredicate> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<Clause> clauses;
    const std::string cat = "c" + std::to_string(i % gen.num_categorical_attrs);
    clauses.push_back(Clause::Make(
        cat, CompareOp::kEq,
        Value("cat_" + std::to_string(i % gen.categorical_cardinality))));
    const size_t numeric = 2 + i % 2;  // K = 3 or 4 with the categorical
    for (size_t j = 0; j < numeric; ++j) {
      const std::string col =
          "a" + std::to_string((i + j) % gen.num_numeric_attrs);
      // Golden-ratio stride: every cut distinct, spread over [-2, 2).
      const double frac =
          std::fmod(static_cast<double>(i * 3 + j) * 0.618033988749895, 1.0);
      clauses.push_back(Clause::Make(
          col, j % 2 == 0 ? CompareOp::kGe : CompareOp::kLe,
          Value(-2.0 + 4.0 * frac)));
    }
    EnumeratedPredicate ep;
    ep.predicate = Predicate(clauses);
    ep.strategy = "bench";
    out.push_back(std::move(ep));
  }
  return out;
}

FusedProblem BuildProblem(size_t rows = 100000, size_t num_preds = 600) {
  SyntheticOptions gen;
  gen.num_rows = rows;
  gen.num_numeric_attrs = 4;
  gen.num_categorical_attrs = 4;
  gen.anomaly_selectivity = 0.03;

  FusedProblem p;
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
  p.predicates = MakeFusedCandidates(gen, num_preds);
  return p;
}

enum class Path { kWordAnd, kFused, kFusedScalar };

/// Cold end-to-end matching: fresh engine, then one bitmap per
/// predicate — the work one Explain pass performs. The word-AND path
/// materializes every distinct clause once (one batch of one-clause
/// predicates, chunked on the pool like any batch) and ANDs each
/// conjunction's ClauseBitmaps; the fused paths Materialize the
/// conjunctions and call MatchPrepared. The SIMD tier is selected via
/// the environment, read once at engine construction.
std::vector<Bitmap> MatchAll(const FusedProblem& p, Path path,
                             MatchEngine* engine_out = nullptr) {
  if (path == Path::kFusedScalar) setenv("DBWIPES_SIMD", "off", 1);
  MatchEngine engine(*p.data.table, p.suspects);
  unsetenv("DBWIPES_SIMD");
  std::vector<Predicate> clauses;
  std::vector<const Predicate*> preds;
  for (const EnumeratedPredicate& ep : p.predicates) {
    if (path != Path::kWordAnd) {
      preds.push_back(&ep.predicate);
      continue;
    }
    for (const Clause& c : ep.predicate.clauses()) {
      clauses.push_back(Predicate({c}));
    }
  }
  for (const Predicate& c : clauses) preds.push_back(&c);
  DBW_CHECK_OK(engine.Materialize(preds));
  std::vector<Bitmap> out;
  out.reserve(p.predicates.size());
  for (const EnumeratedPredicate& ep : p.predicates) {
    if (path != Path::kWordAnd) {
      out.push_back(*engine.MatchPrepared(ep.predicate));
      continue;
    }
    const std::vector<Clause>& cs = ep.predicate.clauses();
    Bitmap bits = **engine.ClauseBitmap(cs[0]);
    for (size_t j = 1; j < cs.size(); ++j) {
      bits.AndWith(**engine.ClauseBitmap(cs[j]));
    }
    out.push_back(std::move(bits));
  }
  if (engine_out != nullptr) *engine_out = std::move(engine);
  return out;
}

std::vector<RankedPredicate> RunRanker(const FusedProblem& p,
                                       RankerOptions::Engine engine,
                                       bool scalar_tier) {
  if (scalar_tier) setenv("DBWIPES_SIMD", "off", 1);
  RankerOptions opts;
  opts.engine = engine;
  PredicateRanker ranker(opts);
  auto ranked =
      ranker.Rank(*p.data.table, p.result, p.selected_groups, *p.metric,
                  /*agg_index=*/0, p.suspects, p.reference,
                  p.per_group_baseline, p.predicates);
  unsetenv("DBWIPES_SIMD");
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
  std::printf(
      "=== fused conjunctions: one-pass programs vs materialize+word-AND "
      "===\n\n");
  FusedProblem p = BuildProblem();
  std::printf("rows=%zu  |F|=%zu  predicates=%zu (K in {3,4})\n\n",
              p.data.table->num_rows(), p.suspects.size(),
              p.predicates.size());

  const int reps = 5;
  MatchEngine word_probe(*p.data.table, {});
  const std::vector<Bitmap> word_and = MatchAll(p, Path::kWordAnd, &word_probe);
  const double word_ms = MedianMs([&] { MatchAll(p, Path::kWordAnd); }, reps);

  MatchEngine fused_probe(*p.data.table, {});
  const std::vector<Bitmap> fused = MatchAll(p, Path::kFused, &fused_probe);
  const double fused_ms = MedianMs([&] { MatchAll(p, Path::kFused); }, reps);

  const std::vector<Bitmap> scalar = MatchAll(p, Path::kFusedScalar);
  const double scalar_ms =
      MedianMs([&] { MatchAll(p, Path::kFusedScalar); }, reps);

  bool bitmaps_equal = word_and.size() == fused.size() &&
                       word_and.size() == scalar.size();
  for (size_t i = 0; bitmaps_equal && i < word_and.size(); ++i) {
    bitmaps_equal = word_and[i] == fused[i] && word_and[i] == scalar[i];
  }

  using Engine = RankerOptions::Engine;
  const auto ranked_reference = RunRanker(p, Engine::kReferenceSerial, false);
  const auto ranked_fused = RunRanker(p, Engine::kDeltaParallel, false);
  const auto ranked_scalar = RunRanker(p, Engine::kDeltaParallel, true);
  const bool orders_match = SameOrder(ranked_reference, ranked_fused) &&
                            SameOrder(ranked_reference, ranked_scalar);

  const double preds = static_cast<double>(p.predicates.size());
  TablePrinter table({"path", "median_ms", "preds_per_sec", "speedup"});
  table.AddRow({"word_and_per_clause", Fmt(word_ms, 1),
                Fmt(preds / word_ms * 1000.0, 0), "1.0"});
  table.AddRow({std::string("fused_") + SimdTierName(fused_probe.simd_tier()),
                Fmt(fused_ms, 1), Fmt(preds / fused_ms * 1000.0, 0),
                Fmt(word_ms / fused_ms, 1)});
  table.AddRow({"fused_scalar", Fmt(scalar_ms, 1),
                Fmt(preds / scalar_ms * 1000.0, 0),
                Fmt(word_ms / scalar_ms, 1)});
  table.Print();
  std::printf(
      "\nword-AND path: %zu clause bitmaps; fused path: %zu bitmaps + %zu "
      "programs (%zu compiles, %zu fallbacks, %.1f ms compile)\n",
      word_probe.num_cached_clauses(), fused_probe.num_cached_clauses(),
      fused_probe.num_fused_programs(), fused_probe.fused_compiles(),
      fused_probe.fused_fallbacks(), fused_probe.fused_compile_ms());
  std::printf("bitmaps identical across paths: %s\n",
              bitmaps_equal ? "yes" : "NO — BUG");
  std::printf("identical rank orderings (reference / fused / scalar): %s\n\n",
              orders_match ? "yes" : "NO — BUG");

  FILE* f = std::fopen("BENCH_fused.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n"
        "  \"scenario\": {\"rows\": %zu, \"predicates\": %zu, "
        "\"suspects\": %zu, \"clauses_per_predicate\": \"3-4\"},\n"
        "  \"word_and\": {\"path\": \"materialize_word_and\", "
        "\"median_ms\": %.3f, \"predicates_per_sec\": %.1f, "
        "\"clause_bitmaps\": %zu},\n"
        "  \"fused\": {\"path\": \"fused_one_pass\", \"simd_tier\": \"%s\", "
        "\"median_ms\": %.3f, \"predicates_per_sec\": %.1f, "
        "\"clause_bitmaps\": %zu, \"programs\": %zu, \"compiles\": %zu, "
        "\"fallbacks\": %zu, \"compile_ms\": %.3f},\n"
        "  \"fused_scalar\": {\"path\": \"fused_one_pass\", "
        "\"simd_tier\": \"scalar\", \"median_ms\": %.3f, "
        "\"predicates_per_sec\": %.1f},\n"
        "  \"speedup_fused\": %.2f,\n"
        "  \"speedup_fused_scalar\": %.2f,\n"
        "  \"bitmaps_identical\": %s,\n"
        "  \"orderings_identical\": %s\n"
        "}\n",
        p.data.table->num_rows(), p.predicates.size(), p.suspects.size(),
        word_ms, preds / word_ms * 1000.0, word_probe.num_cached_clauses(),
        SimdTierName(fused_probe.simd_tier()), fused_ms,
        preds / fused_ms * 1000.0, fused_probe.num_cached_clauses(),
        fused_probe.num_fused_programs(), fused_probe.fused_compiles(),
        fused_probe.fused_fallbacks(), fused_probe.fused_compile_ms(),
        scalar_ms, preds / scalar_ms * 1000.0, word_ms / fused_ms,
        word_ms / scalar_ms, bitmaps_equal ? "true" : "false",
        orders_match ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_fused.json\n\n");
  }
}

const FusedProblem& SmallProblem() {
  static const FusedProblem* p = new FusedProblem(BuildProblem(20000, 200));
  return *p;
}

void BM_MatchWordAnd(benchmark::State& state) {
  const FusedProblem& p = SmallProblem();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchAll(p, Path::kWordAnd));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(p.predicates.size()));
}
BENCHMARK(BM_MatchWordAnd)->Unit(benchmark::kMillisecond);

void BM_MatchFused(benchmark::State& state) {
  const FusedProblem& p = SmallProblem();
  const Path path = state.range(0) == 0 ? Path::kFused : Path::kFusedScalar;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchAll(p, path));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(p.predicates.size()));
}
BENCHMARK(BM_MatchFused)
    ->Arg(0)   // dispatched SIMD tier
    ->Arg(1)   // forced scalar tier
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
