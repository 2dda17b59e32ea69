// E4 — error-metric repair: the paper's claim that clicking the top
// predicate makes "a significant fraction of the [error] disappear",
// quantified. For each predefined metric we report eps before and
// after cleaning with the top-1 predicate, on both demo datasets.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "dbwipes/core/removal.h"
#include "dbwipes/datagen/fec_generator.h"
#include "dbwipes/datagen/intel_generator.h"
#include "dbwipes/expr/parser.h"

namespace dbwipes {
namespace {

using bench::Fmt;
using bench::RunScenario;
using bench::Scenario;
using bench::ScenarioOutcome;
using bench::TablePrinter;

struct MetricCase {
  std::string label;
  ErrorMetricPtr metric;
};

void ReportRepair(TablePrinter* table, const std::string& dataset,
                  const LabeledDataset& data, Scenario scenario,
                  const std::vector<MetricCase>& metrics) {
  for (const MetricCase& mc : metrics) {
    scenario.metric = mc.metric;
    ScenarioOutcome out = RunScenario(data, scenario);
    if (!out.ok) {
      table->AddRow({dataset, mc.label, "-", "-", "-", out.error});
      continue;
    }
    const double before = out.explanation.preprocess.baseline_error;
    const double after = out.explanation.predicates.empty()
                             ? before
                             : out.explanation.predicates[0].error_after;
    const double repaired =
        before > 0.0 ? 100.0 * (before - after) / before : 0.0;
    table->AddRow({dataset, mc.label, Fmt(before, 2), Fmt(after, 2),
                   Fmt(repaired, 1) + "%", out.top1_text});
  }
}

void PrintReport() {
  std::printf(
      "=== E4: eps before vs after cleaning with the top-1 predicate ===\n"
      "(eps is the user's raw metric; 100%% = the click removes the whole "
      "error)\n\n");
  TablePrinter table({"dataset", "metric", "eps_before", "eps_after",
                      "repaired", "top-1 predicate"});

  {
    IntelOptions gen;
    gen.duration_days = 7;
    gen.reading_interval_minutes = 5.0;
    LabeledDataset data = *GenerateIntelDataset(gen);
    Scenario s;
    s.sql =
        "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS sd_temp "
        "FROM readings GROUP BY window";
    s.select_agg = "sd_temp";
    s.select_lo = 8.0;
    s.select_hi = 1e18;
    s.dprime_filter = "temp > 100";
    s.agg_index = 1;
    ReportRepair(&table, "intel", data, s,
                 {{"too-high(2)", TooHigh(2.0)},
                  {"not-equal(1.2)", NotEqual(1.2)},
                  {"total-above(2)", TotalAbove(2.0)}});
  }
  {
    FecOptions gen;
    LabeledDataset data = *GenerateFecDataset(gen);
    Scenario s;
    s.sql =
        "SELECT day, sum(amount) AS total FROM donations "
        "WHERE candidate = 'MCCAIN' GROUP BY day";
    s.select_agg = "total";
    s.select_lo = -1e18;
    s.select_hi = -1.0;
    s.dprime_filter = "amount < 0";
    ReportRepair(&table, "fec", data, s,
                 {{"too-low(0)", TooLow(0.0)},
                  {"total-below(0)", TotalBelow(0.0)},
                  {"not-equal(0)", NotEqual(0.0)}});
  }
  table.Print();
  std::printf("\n");
}

// The click as the demo did it: re-execute the query with the
// predicate's complement (DBWipes::Clean's fallback for stale results).
void BM_CleanAndRequery(benchmark::State& state) {
  FecOptions gen;
  LabeledDataset data = *GenerateFecDataset(gen);
  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);
  DBWipes engine(db);
  QueryResult result = *engine.Query(
      "SELECT day, sum(amount) AS total FROM donations "
      "WHERE candidate = 'MCCAIN' GROUP BY day");
  const Predicate& pred = data.anomalies[0].description;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Execute(result.query.WithCleaningPredicate(pred)));
  }
  state.counters["rows"] = static_cast<double>(data.table->num_rows());
}
BENCHMARK(BM_CleanAndRequery)->Unit(benchmark::kMillisecond);

// The same click through DBWipes::Clean on a current result: the
// matches are deleted from the captured lineage, and only the groups
// the predicate touches are recomputed.
void BM_CleanIncremental(benchmark::State& state) {
  FecOptions gen;
  LabeledDataset data = *GenerateFecDataset(gen);
  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);
  DBWipes engine(db);
  QueryResult result = *engine.Query(
      "SELECT day, sum(amount) AS total FROM donations "
      "WHERE candidate = 'MCCAIN' GROUP BY day");
  const Predicate& pred = data.anomalies[0].description;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Clean(result, pred));
  }
  state.counters["rows"] = static_cast<double>(data.table->num_rows());
}
BENCHMARK(BM_CleanIncremental)->Unit(benchmark::kMillisecond);

void BM_ErrorAfterRemovalEval(benchmark::State& state) {
  IntelOptions gen;
  gen.duration_days = 7;
  gen.reading_interval_minutes = 5.0;
  LabeledDataset data = *GenerateIntelDataset(gen);
  QueryResult result = *ExecuteQuery(
      *ParseQuery("SELECT window, stddev(temp) AS sd FROM readings "
                  "GROUP BY window"),
      *data.table);
  std::vector<size_t> selected;
  for (size_t g = 0; g < result.num_groups(); ++g) {
    if (result.AggValue(g, 0) >= 8.0) selected.push_back(g);
  }
  auto metric = TooHigh(2.0);
  const std::vector<RowId> removed = data.AllAnomalousRows();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ErrorAfterRemoval(*data.table, result, selected,
                                               *metric, 0, removed));
  }
}
BENCHMARK(BM_ErrorAfterRemovalEval)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbwipes

int main(int argc, char** argv) {
  dbwipes::PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
