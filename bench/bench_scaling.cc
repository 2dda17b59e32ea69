// E2 — runtime scaling of the backend.
//
// Reports per-stage wall-clock (preprocess / dataset enumeration /
// tree fitting / ranking) as |D| grows, and total time as the number
// of explainable attributes grows, plus the exhaustive baseline's
// combinatorial blow-up in the same attribute sweep.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "dbwipes/core/baselines.h"
#include "dbwipes/datagen/synthetic.h"
#include "dbwipes/expr/parser.h"

namespace dbwipes {
namespace {

using bench::Fmt;
using bench::RunScenario;
using bench::ScenarioOutcome;
using bench::Scenario;
using bench::TablePrinter;

Scenario SyntheticScenario() {
  Scenario s;
  s.sql = "SELECT g, avg(v) AS a FROM synthetic GROUP BY g";
  s.select_agg = "a";
  s.select_lo = 50.8;
  s.select_hi = 1e18;
  s.dprime_filter = "v > 75";
  s.metric = TooHigh(50.0);
  return s;
}

SyntheticOptions MakeGen(size_t rows, size_t numeric, size_t categorical) {
  SyntheticOptions gen;
  gen.num_rows = rows;
  gen.num_numeric_attrs = numeric;
  gen.num_categorical_attrs = categorical;
  gen.anomaly_selectivity = 0.02;
  return gen;
}

void PrintReport() {
  std::printf("=== E2: backend runtime scaling ===\n\n");

  std::printf("-- stage breakdown vs |D| (3 numeric + 2 categorical "
              "attributes) --\n");
  TablePrinter rows_table({"rows", "|F|", "preprocess_ms", "enumerate_ms",
                           "trees_ms", "rank_ms", "total_ms", "top1_f1"});
  for (size_t rows : {10000u, 30000u, 100000u, 300000u}) {
    LabeledDataset data = *GenerateSyntheticDataset(MakeGen(rows, 3, 2));
    ScenarioOutcome out = RunScenario(data, SyntheticScenario());
    if (!out.ok) {
      rows_table.AddRow({std::to_string(rows), "-", "-", "-", "-", "-", "-",
                         "FAILED: " + out.error});
      continue;
    }
    const ExplainProfile& p = out.explanation.profile;
    rows_table.AddRow(
        {std::to_string(rows), std::to_string(out.num_suspect_inputs),
         Fmt(p.preprocess_ms, 1), Fmt(p.enumerate_ms, 1),
         Fmt(p.predicates_ms, 1), Fmt(p.rank_ms, 1), Fmt(p.total_ms, 1),
         Fmt(out.top1.f1)});
  }
  rows_table.Print();

  std::printf("\n-- total time vs attribute count (30k rows), DBWipes vs "
              "exhaustive --\n");
  TablePrinter attr_table({"attrs", "dbwipes_ms", "top1_f1",
                           "exhaustive_ms", "predicates_tried"});
  for (size_t attrs : {2u, 4u, 8u, 16u}) {
    const size_t numeric = attrs / 2;
    const size_t categorical = attrs - numeric;
    LabeledDataset data =
        *GenerateSyntheticDataset(MakeGen(30000, numeric, categorical));
    ScenarioOutcome out = RunScenario(data, SyntheticScenario());

    // Exhaustive on the same problem.
    std::string ex_ms = "-";
    std::string tried = "-";
    {
      AggregateQuery query = *ParseQuery(SyntheticScenario().sql);
      auto result = ExecuteQuery(query, *data.table);
      if (result.ok()) {
        std::vector<size_t> selected;
        for (size_t g = 0; g < result->num_groups(); ++g) {
          if (result->AggValue(g, 0) >= 50.8) selected.push_back(g);
        }
        auto metric = TooHigh(50.0);
        auto pre = Preprocessor::Run(*data.table, *result, selected, *metric);
        auto cols = DefaultExplainColumns(*data.table, result->query, 0);
        auto view = FeatureView::Create(*data.table, cols);
        if (pre.ok() && view.ok()) {
          ExhaustiveSearchOptions opts;
          opts.max_clauses = 2;
          size_t evaluated = 0;
          const auto t0 = std::chrono::steady_clock::now();
          auto ranked = ExhaustivePredicateSearch(
              *data.table, *result, selected, *metric, 0, *view, *pre, opts,
              &evaluated);
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          if (ranked.ok()) {
            ex_ms = Fmt(ms, 0);
            tried = std::to_string(evaluated);
          }
        }
      }
    }
    attr_table.AddRow({std::to_string(attrs),
                       out.ok ? Fmt(out.total_ms, 0) : "FAILED",
                       out.ok ? Fmt(out.top1.f1) : "-", ex_ms, tried});
  }
  attr_table.Print();
  std::printf("\n");
}

void BM_PipelineVsRows(benchmark::State& state) {
  LabeledDataset data = *GenerateSyntheticDataset(
      MakeGen(static_cast<size_t>(state.range(0)), 3, 2));
  const Scenario scenario = SyntheticScenario();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunScenario(data, scenario));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelineVsRows)
    ->Arg(10000)
    ->Arg(30000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineVsAttrs(benchmark::State& state) {
  const size_t attrs = static_cast<size_t>(state.range(0));
  LabeledDataset data =
      *GenerateSyntheticDataset(MakeGen(30000, attrs / 2, attrs - attrs / 2));
  const Scenario scenario = SyntheticScenario();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunScenario(data, scenario));
  }
}
BENCHMARK(BM_PipelineVsAttrs)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbwipes

int main(int argc, char** argv) {
  dbwipes::PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
