#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "dbwipes/common/random.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/provenance/influence.h"
#include "dbwipes/provenance/lineage.h"

namespace dbwipes {
namespace {

std::shared_ptr<Table> MakeReadings() {
  auto t = std::make_shared<Table>(
      Schema{{"sensor", DataType::kInt64}, {"temp", DataType::kDouble}},
      "r");
  auto add = [&](int64_t s, double v) {
    DBW_CHECK_OK(t->AppendRow({Value(s), Value(v)}));
  };
  add(1, 20.0);
  add(1, 22.0);
  add(2, 21.0);
  add(2, 120.0);  // the anomaly
  add(2, 19.0);
  add(3, 18.0);
  return t;
}

QueryResult RunAvg(const Table& t) {
  return *ExecuteQuery(
      *ParseQuery("SELECT sensor, avg(temp) AS t FROM r GROUP BY sensor"), t);
}

// ---------- lineage ----------

/// Forward trace read off the CSR: the group whose slice holds `row`.
std::optional<size_t> SliceHolding(const Lineage& lineage, RowId row) {
  for (size_t g = 0; g < lineage.size(); ++g) {
    const std::span<const RowId> slice = lineage[g];
    if (std::binary_search(slice.begin(), slice.end(), row)) return g;
  }
  return std::nullopt;
}

TEST(LineageTest, BackwardAndForward) {
  auto t = MakeReadings();
  QueryResult r = RunAvg(*t);
  ASSERT_EQ(r.lineage.size(), 3u);
  const std::span<const RowId> group1 = r.lineage[1];
  EXPECT_EQ(std::vector<RowId>(group1.begin(), group1.end()),
            (std::vector<RowId>{2, 3, 4}));
  EXPECT_EQ(SliceHolding(r.lineage, 3), 1u);
  EXPECT_EQ(SliceHolding(r.lineage, 0), 0u);
  EXPECT_EQ(r.lineage.offsets.back(), 6u);
  EXPECT_EQ(r.lineage.rows.size(), 6u);
}

TEST(LineageTest, FilteredRowsHaveNoForwardTrace) {
  auto t = MakeReadings();
  QueryResult r = *ExecuteQuery(
      *ParseQuery(
          "SELECT sensor, avg(temp) AS t FROM r WHERE temp < 100 GROUP BY "
          "sensor"),
      *t);
  EXPECT_EQ(SliceHolding(r.lineage, 3), std::nullopt);  // the 120-degree row
  EXPECT_EQ(SliceHolding(r.lineage, 2), 1u);
  EXPECT_EQ(r.lineage.rows.size(), 5u);
}

TEST(LineageTest, BackwardUnionDeduplicates) {
  auto t = MakeReadings();
  QueryResult r = RunAvg(*t);
  auto rows = r.lineage.BackwardUnion({0, 1, 1});
  EXPECT_EQ(rows, (std::vector<RowId>{0, 1, 2, 3, 4}));
}

TEST(OperatorGraphTest, PlanDescribesPipeline) {
  AggregateQuery q = *ParseQuery(
      "SELECT sensor, avg(temp) FROM r WHERE temp > 0 GROUP BY sensor");
  OperatorGraph g = DescribeQueryPlan(q);
  ASSERT_EQ(g.nodes.size(), 5u);
  EXPECT_EQ(g.nodes[0].name, "Scan");
  EXPECT_EQ(g.nodes[1].name, "Filter");
  EXPECT_EQ(g.nodes[2].name, "GroupBy");
  EXPECT_EQ(g.nodes[3].name, "Aggregate");
  const std::string s = g.ToString();
  EXPECT_NE(s.find("Scan"), std::string::npos);
  EXPECT_NE(s.find("keys: sensor"), std::string::npos);
}

TEST(OperatorGraphTest, PlanOmitsAbsentStages) {
  AggregateQuery q = *ParseQuery("SELECT avg(temp) FROM r");
  OperatorGraph g = DescribeQueryPlan(q);
  ASSERT_EQ(g.nodes.size(), 3u);  // Scan, Aggregate, Result
}

// ---------- influence ----------

ErrorFn TooHighFn(double c) {
  return [c](const std::vector<double>& values) {
    double worst = 0.0;
    for (double v : values) {
      if (!std::isnan(v)) worst = std::max(worst, v - c);
    }
    return worst;
  };
}

TEST(InfluenceTest, AnomalousTupleRanksFirst) {
  auto t = MakeReadings();
  QueryResult r = RunAvg(*t);
  // Group 1 (sensor 2) has avg (21+120+19)/3 = 53.3.
  auto inf = *LeaveOneOutInfluence(*t, r, {1}, TooHighFn(25.0));
  ASSERT_EQ(inf.size(), 3u);
  EXPECT_EQ(inf[0].row, 3u);  // the 120-degree reading
  EXPECT_GT(inf[0].influence, 0.0);
  // Removing an ordinary reading makes things worse (negative).
  EXPECT_LT(inf.back().influence, 0.0);
}

TEST(InfluenceTest, SelectionErrorMatchesMetric) {
  auto t = MakeReadings();
  QueryResult r = RunAvg(*t);
  const double err = *SelectionError(r, {1}, TooHighFn(25.0));
  EXPECT_NEAR(err, (21.0 + 120.0 + 19.0) / 3.0 - 25.0, 1e-9);
}

TEST(InfluenceTest, ErrorsOnBadArguments) {
  auto t = MakeReadings();
  QueryResult r = RunAvg(*t);
  EXPECT_TRUE(LeaveOneOutInfluence(*t, r, {}, TooHighFn(0)).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(LeaveOneOutInfluence(*t, r, {99}, TooHighFn(0)).status()
                  .IsOutOfRange());
  InfluenceOptions opts;
  opts.agg_index = 7;
  EXPECT_TRUE(LeaveOneOutInfluence(*t, r, {0}, TooHighFn(0), opts).status()
                  .IsOutOfRange());
}

TEST(InfluenceTest, NullArgumentTuplesHaveZeroInfluence) {
  Table t(Schema{{"g", DataType::kInt64}, {"v", DataType::kDouble}}, "r");
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(50.0)}));
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value::Null()}));
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS a FROM r GROUP BY g"), t);
  auto inf = *LeaveOneOutInfluence(t, r, {0}, TooHighFn(0.0));
  for (const TupleInfluence& ti : inf) {
    if (ti.row == 1) {
      EXPECT_EQ(ti.influence, 0.0);
    }
  }
}

// The core property: incremental influence == brute-force recompute,
// across aggregate kinds, metrics, and random data.
class InfluenceEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t, bool>> {
};

TEST_P(InfluenceEquivalence, IncrementalMatchesBruteForce) {
  const auto& [agg, seed, per_group] = GetParam();
  Rng rng(seed);
  Table t(Schema{{"g", DataType::kInt64}, {"v", DataType::kDouble}}, "r");
  for (int i = 0; i < 300; ++i) {
    DBW_CHECK_OK(t.AppendRow(
        {Value(static_cast<int64_t>(rng.UniformInt(5u))),
         rng.Bernoulli(0.05) ? Value::Null() : Value(rng.Normal(10, 5))}));
  }
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT g, " + agg + "(v) AS a FROM r GROUP BY g"), t);
  std::vector<size_t> all;
  for (size_t g = 0; g < r.num_groups(); ++g) all.push_back(g);

  InfluenceOptions opts;
  opts.per_group = per_group;
  auto fast = *LeaveOneOutInfluence(t, r, all, TooHighFn(8.0), opts);
  auto slow = *LeaveOneOutInfluenceBruteForce(t, r, all, TooHighFn(8.0),
                                              opts);
  ASSERT_EQ(fast.size(), slow.size());
  // Compare by row id (both sorted by influence; match via lookup).
  std::map<RowId, double> slow_by_row;
  for (const auto& ti : slow) slow_by_row[ti.row] = ti.influence;
  for (const auto& ti : fast) {
    EXPECT_NEAR(ti.influence, slow_by_row[ti.row], 1e-6) << "row " << ti.row;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AggsSeedsModes, InfluenceEquivalence,
    ::testing::Combine(::testing::Values("avg", "sum", "min", "max", "stddev",
                                         "count"),
                       ::testing::Values(100u, 200u),
                       ::testing::Bool()));

TEST(InfluenceTest, GlobalModeZeroesNonArgmaxGroups) {
  // Two groups, one far above the threshold. Under the global max
  // metric, tuples of the lower group cannot change the max -> zero
  // influence; under per-group mode they can.
  Table t(Schema{{"g", DataType::kInt64}, {"v", DataType::kDouble}}, "r");
  for (int i = 0; i < 5; ++i) {
    DBW_CHECK_OK(t.AppendRow({Value(int64_t{0}), Value(100.0 + i)}));
    DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(30.0 + i)}));
  }
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS a FROM r GROUP BY g"), t);

  InfluenceOptions global;
  global.per_group = false;
  auto inf = *LeaveOneOutInfluence(t, r, {0, 1}, TooHighFn(20.0), global);
  for (const auto& ti : inf) {
    if (ti.selected_group == 1) {
      EXPECT_EQ(ti.influence, 0.0);
    }
  }
  InfluenceOptions per_group;
  per_group.per_group = true;
  auto inf2 = *LeaveOneOutInfluence(t, r, {0, 1}, TooHighFn(20.0), per_group);
  bool group1_nonzero = false;
  for (const auto& ti : inf2) {
    if (ti.selected_group == 1 && ti.influence != 0.0) group1_nonzero = true;
  }
  EXPECT_TRUE(group1_nonzero);
}

}  // namespace
}  // namespace dbwipes
