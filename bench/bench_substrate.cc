// μ: substrate micro-benchmarks — query engine scan/filter/group-by
// throughput, decision-tree fitting, subgroup discovery, influence
// analysis. These calibrate the platform so the E2 scaling numbers
// have context.

#include <benchmark/benchmark.h>

#include "dbwipes/datagen/fec_generator.h"
#include "dbwipes/datagen/synthetic.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/learn/decision_tree.h"
#include "dbwipes/learn/subgroup.h"
#include "dbwipes/provenance/influence.h"
#include "dbwipes/query/executor.h"

namespace dbwipes {
namespace {

const LabeledDataset& Data(size_t rows) {
  static auto* cache =
      new std::unordered_map<size_t, LabeledDataset>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    SyntheticOptions gen;
    gen.num_rows = rows;
    it = cache->emplace(rows, *GenerateSyntheticDataset(gen)).first;
  }
  return it->second;
}

void BM_GroupByAvg(benchmark::State& state) {
  const LabeledDataset& data = Data(static_cast<size_t>(state.range(0)));
  const AggregateQuery query =
      *ParseQuery("SELECT avg(v) FROM synthetic GROUP BY g");
  for (auto _ : state) {
    auto result = ExecuteQuery(query, *data.table);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByAvg)->Arg(10000)->Arg(100000);

void BM_GroupByAvgNoLineage(benchmark::State& state) {
  const LabeledDataset& data = Data(static_cast<size_t>(state.range(0)));
  const AggregateQuery query =
      *ParseQuery("SELECT avg(v) FROM synthetic GROUP BY g");
  ExecOptions opts;
  opts.capture_lineage = false;
  for (auto _ : state) {
    auto result = ExecuteQuery(query, *data.table, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByAvgNoLineage)->Arg(10000)->Arg(100000);

/// perfbench's FEC table: 200,000 donations plus 1,200 reattributions
/// (201,600 rows), seed 1.
const LabeledDataset& Fec() {
  static const auto* data = [] {
    FecOptions gen;
    gen.num_donations = 200000;
    gen.num_reattributions = 1200;
    gen.seed = 1;
    return new LabeledDataset(*GenerateFecDataset(gen));
  }();
  return *data;
}

/// The perfbench FEC query: a WHERE on a dictionary column, one int64
/// key, `sum`. Arg 1 captures lineage, as `sql` does; arg 0 does not.
void BM_FecDailyTotals(benchmark::State& state) {
  const LabeledDataset& data = Fec();
  const AggregateQuery query = *ParseQuery(
      "SELECT day, sum(amount) AS total FROM donations "
      "WHERE candidate = 'MCCAIN' GROUP BY day");
  ExecOptions opts;
  opts.capture_lineage = state.range(0) != 0;
  for (auto _ : state) {
    auto result = ExecuteQuery(query, *data.table, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * data.table->num_rows());
}
BENCHMARK(BM_FecDailyTotals)->ArgName("lineage")->Arg(1)->Arg(0);

void BM_FilteredSum(benchmark::State& state) {
  const LabeledDataset& data = Data(static_cast<size_t>(state.range(0)));
  const AggregateQuery query = *ParseQuery(
      "SELECT sum(v) FROM synthetic WHERE a0 > 0 AND c0 != 'nope' GROUP BY g");
  for (auto _ : state) {
    auto result = ExecuteQuery(query, *data.table);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilteredSum)->Arg(10000)->Arg(100000);

void BM_PredicateMatch(benchmark::State& state) {
  const LabeledDataset& data = Data(100000);
  const Predicate pred = data.anomalies[0].description;
  for (auto _ : state) {
    std::vector<RowId> rows;
    for (RowId r = 0; r < data.table->num_rows(); ++r) {
      if (*pred.Matches(*data.table, r)) rows.push_back(r);
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_PredicateMatch);

void BM_DecisionTreeFit(benchmark::State& state) {
  const LabeledDataset& data = Data(static_cast<size_t>(state.range(0)));
  const FeatureView view =
      *FeatureView::CreateExcluding(*data.table, {"v"});
  std::vector<RowId> rows;
  std::vector<int> labels;
  const auto& truth = data.anomalies[0].rows;
  for (RowId r = 0; r < data.table->num_rows(); ++r) {
    rows.push_back(r);
    labels.push_back(
        std::binary_search(truth.begin(), truth.end(), r) ? 1 : 0);
  }
  // Fits of one debug share F's snapshot, so it is built once here.
  const FeatureColumns columns = view.Snapshot(rows);
  for (auto _ : state) {
    auto tree = DecisionTree::Fit(columns, labels);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecisionTreeFit)->Arg(10000)->Arg(50000);

// The snapshot the fits share, its presort included.
void BM_FeatureSnapshot(benchmark::State& state) {
  const LabeledDataset& data = Data(static_cast<size_t>(state.range(0)));
  const FeatureView view =
      *FeatureView::CreateExcluding(*data.table, {"v"});
  std::vector<RowId> rows(data.table->num_rows());
  for (RowId r = 0; r < rows.size(); ++r) rows[r] = r;
  for (auto _ : state) {
    FeatureColumns columns = view.Snapshot(rows);
    benchmark::DoNotOptimize(columns);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FeatureSnapshot)->Arg(10000)->Arg(50000);

void BM_SubgroupDiscovery(benchmark::State& state) {
  const LabeledDataset& data = Data(static_cast<size_t>(state.range(0)));
  const FeatureView view =
      *FeatureView::CreateExcluding(*data.table, {"v"});
  std::vector<RowId> rows;
  std::vector<int> labels;
  const auto& truth = data.anomalies[0].rows;
  for (RowId r = 0; r < data.table->num_rows(); ++r) {
    rows.push_back(r);
    labels.push_back(
        std::binary_search(truth.begin(), truth.end(), r) ? 1 : 0);
  }
  for (auto _ : state) {
    auto subgroups = DiscoverSubgroups(view.Snapshot(rows), labels, {}, {});
    benchmark::DoNotOptimize(subgroups);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SubgroupDiscovery)->Arg(10000)->Arg(50000);

void BM_InfluenceIncremental(benchmark::State& state) {
  const LabeledDataset& data = Data(static_cast<size_t>(state.range(0)));
  const AggregateQuery query =
      *ParseQuery("SELECT avg(v) FROM synthetic GROUP BY g");
  const QueryResult result = *ExecuteQuery(query, *data.table);
  std::vector<size_t> all_groups(result.num_groups());
  for (size_t g = 0; g < all_groups.size(); ++g) all_groups[g] = g;
  const ErrorFn fn = [](const std::vector<double>& v) {
    double worst = 0.0;
    for (double x : v) worst = std::max(worst, x - 50.0);
    return worst;
  };
  for (auto _ : state) {
    auto inf = LeaveOneOutInfluence(*data.table, result, all_groups, fn);
    benchmark::DoNotOptimize(inf);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InfluenceIncremental)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace dbwipes
