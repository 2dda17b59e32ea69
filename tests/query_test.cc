#include <gtest/gtest.h>

#include <cmath>

#include "dbwipes/common/random.h"
#include "dbwipes/common/stats.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/query/aggregate.h"
#include "dbwipes/query/database.h"

namespace dbwipes {
namespace {

// ---------- aggregators ----------

TEST(AggregatorTest, CountSumAvg) {
  auto count = MakeAggregator(AggKind::kCount);
  auto sum = MakeAggregator(AggKind::kSum);
  auto avg = MakeAggregator(AggKind::kAvg);
  for (double v : {1.0, 2.0, 3.0}) {
    count->Add(v);
    sum->Add(v);
    avg->Add(v);
  }
  EXPECT_DOUBLE_EQ(count->Value(), 3.0);
  EXPECT_DOUBLE_EQ(sum->Value(), 6.0);
  EXPECT_DOUBLE_EQ(avg->Value(), 2.0);
  sum->Remove(2.0);
  avg->Remove(3.0);
  EXPECT_DOUBLE_EQ(sum->Value(), 4.0);
  EXPECT_DOUBLE_EQ(avg->Value(), 1.5);
}

TEST(AggregatorTest, MinMaxWithRemoval) {
  auto mn = MakeAggregator(AggKind::kMin);
  auto mx = MakeAggregator(AggKind::kMax);
  for (double v : {5.0, 1.0, 9.0, 1.0}) {
    mn->Add(v);
    mx->Add(v);
  }
  EXPECT_DOUBLE_EQ(mn->Value(), 1.0);
  EXPECT_DOUBLE_EQ(mx->Value(), 9.0);
  // Removing one duplicate of the min keeps the other.
  mn->Remove(1.0);
  EXPECT_DOUBLE_EQ(mn->Value(), 1.0);
  mn->Remove(1.0);
  EXPECT_DOUBLE_EQ(mn->Value(), 5.0);
  mx->Remove(9.0);
  EXPECT_DOUBLE_EQ(mx->Value(), 5.0);
}

TEST(AggregatorTest, StddevMatchesPostgresSampleSemantics) {
  auto sd = MakeAggregator(AggKind::kStddev);
  sd->Add(2.0);
  EXPECT_TRUE(std::isnan(sd->Value()));  // stddev of one value is NULL
  sd->Add(4.0);
  sd->Add(6.0);
  EXPECT_NEAR(sd->Value(), 2.0, 1e-12);  // sample stddev of {2,4,6}
  auto var = MakeAggregator(AggKind::kVar);
  for (double v : {2.0, 4.0, 6.0}) var->Add(v);
  EXPECT_NEAR(var->Value(), 4.0, 1e-12);
}

TEST(AggregatorTest, EmptyStateConventions) {
  EXPECT_DOUBLE_EQ(MakeAggregator(AggKind::kCount)->Value(), 0.0);
  EXPECT_DOUBLE_EQ(MakeAggregator(AggKind::kSum)->Value(), 0.0);
  EXPECT_TRUE(std::isnan(MakeAggregator(AggKind::kAvg)->Value()));
  EXPECT_TRUE(std::isnan(MakeAggregator(AggKind::kMin)->Value()));
  EXPECT_TRUE(std::isnan(MakeAggregator(AggKind::kMax)->Value()));
}

TEST(AggregatorTest, CloneIsIndependent) {
  auto a = MakeAggregator(AggKind::kSum);
  a->Add(1.0);
  auto b = a->Clone();
  b->Add(2.0);
  EXPECT_DOUBLE_EQ(a->Value(), 1.0);
  EXPECT_DOUBLE_EQ(b->Value(), 3.0);
}

class AggregatorRemoveProperty
    : public ::testing::TestWithParam<std::tuple<AggKind, uint64_t>> {};

TEST_P(AggregatorRemoveProperty, AddRemoveMatchesRecompute) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  std::vector<double> values;
  auto agg = MakeAggregator(kind);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.Normal(0, 10);
    values.push_back(v);
    agg->Add(v);
  }
  // Remove a random half.
  rng.Shuffle(&values);
  for (int i = 0; i < 50; ++i) {
    agg->Remove(values.back());
    values.pop_back();
  }
  auto fresh = MakeAggregator(kind);
  for (double v : values) fresh->Add(v);
  EXPECT_EQ(agg->Count(), fresh->Count());
  if (std::isnan(fresh->Value())) {
    EXPECT_TRUE(std::isnan(agg->Value()));
  } else {
    EXPECT_NEAR(agg->Value(), fresh->Value(), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, AggregatorRemoveProperty,
    ::testing::Combine(::testing::Values(AggKind::kCount, AggKind::kSum,
                                         AggKind::kAvg, AggKind::kMin,
                                         AggKind::kMax, AggKind::kStddev,
                                         AggKind::kVar, AggKind::kMedian),
                       ::testing::Values(1u, 2u, 3u)));

TEST(AggregatorTest, MedianSemantics) {
  auto med = MakeAggregator(AggKind::kMedian);
  EXPECT_TRUE(std::isnan(med->Value()));
  med->Add(5.0);
  EXPECT_DOUBLE_EQ(med->Value(), 5.0);
  med->Add(1.0);
  EXPECT_DOUBLE_EQ(med->Value(), 3.0);  // even count -> midpoint
  med->Add(9.0);
  EXPECT_DOUBLE_EQ(med->Value(), 5.0);
  med->Add(5.0);  // duplicate
  EXPECT_DOUBLE_EQ(med->Value(), 5.0);
  med->Remove(1.0);
  EXPECT_DOUBLE_EQ(med->Value(), 5.0);
  med->Remove(5.0);
  EXPECT_DOUBLE_EQ(med->Value(), 7.0);  // {5, 9}
}

TEST(AggregatorTest, MedianInQuery) {
  Table t(Schema{{"g", DataType::kInt64}, {"v", DataType::kDouble}});
  for (double v : {1.0, 2.0, 100.0}) {
    DBW_CHECK_OK(t.AppendRow({Value(int64_t{0}), Value(v)}));
  }
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT g, median(v) AS m, avg(v) AS a FROM t GROUP BY g"),
      t);
  EXPECT_DOUBLE_EQ(r.AggValue(0, 0), 2.0);   // median robust to outlier
  EXPECT_NEAR(r.AggValue(0, 1), 34.33, 0.01);
}

// ---------- executor ----------

std::shared_ptr<Table> MakeSales() {
  auto t = std::make_shared<Table>(
      Schema{{"region", DataType::kString},
             {"product", DataType::kString},
             {"units", DataType::kInt64},
             {"price", DataType::kDouble}},
      "sales");
  auto add = [&](const char* r, const char* p, int64_t u, double pr) {
    DBW_CHECK_OK(t->AppendRow({Value(r), Value(p), Value(u), Value(pr)}));
  };
  add("east", "pen", 10, 1.5);
  add("east", "pad", 5, 3.0);
  add("west", "pen", 20, 1.5);
  add("west", "pad", 1, 3.5);
  add("west", "pen", 2, 2.0);
  return t;
}

std::vector<RowId> LineageOf(const QueryResult& r, size_t group) {
  const std::span<const RowId> rows = r.lineage[group];
  return {rows.begin(), rows.end()};
}

TEST(ExecutorTest, GroupByAvgWithLineage) {
  auto t = MakeSales();
  AggregateQuery q = *ParseQuery(
      "SELECT region, avg(units) AS u FROM sales GROUP BY region");
  QueryResult r = *ExecuteQuery(q, *t);
  ASSERT_EQ(r.num_groups(), 2u);
  // Groups sorted by key: east, west.
  EXPECT_EQ(r.GroupKey(0)[0], Value("east"));
  EXPECT_DOUBLE_EQ(r.AggValue(0, 0), 7.5);
  EXPECT_NEAR(r.AggValue(1, 0), 23.0 / 3.0, 1e-12);
  EXPECT_EQ(LineageOf(r, 0), (std::vector<RowId>{0, 1}));
  EXPECT_EQ(LineageOf(r, 1), (std::vector<RowId>{2, 3, 4}));
}

TEST(ExecutorTest, WhereFilterAffectsLineage) {
  auto t = MakeSales();
  AggregateQuery q = *ParseQuery(
      "SELECT region, sum(units) AS u FROM sales WHERE product = 'pen' "
      "GROUP BY region");
  QueryResult r = *ExecuteQuery(q, *t);
  ASSERT_EQ(r.num_groups(), 2u);
  EXPECT_DOUBLE_EQ(r.AggValue(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(r.AggValue(1, 0), 22.0);
  EXPECT_EQ(LineageOf(r, 1), (std::vector<RowId>{2, 4}));
}

TEST(ExecutorTest, MultipleAggregatesAndCountStar) {
  auto t = MakeSales();
  AggregateQuery q = *ParseQuery(
      "SELECT region, count(*) AS n, min(price) AS lo, max(price) AS hi "
      "FROM sales GROUP BY region");
  QueryResult r = *ExecuteQuery(q, *t);
  EXPECT_EQ(r.rows->GetValue(0, 1), Value(int64_t{2}));
  EXPECT_EQ(r.rows->GetValue(1, 1), Value(int64_t{3}));
  EXPECT_DOUBLE_EQ(r.AggValue(1, 1), 1.5);
  EXPECT_DOUBLE_EQ(r.AggValue(1, 2), 3.5);
}

TEST(ExecutorTest, MultiAttributeGroupBy) {
  auto t = MakeSales();
  AggregateQuery q = *ParseQuery(
      "SELECT region, product, sum(units) AS u FROM sales "
      "GROUP BY region, product");
  QueryResult r = *ExecuteQuery(q, *t);
  ASSERT_EQ(r.num_groups(), 4u);
  // Sorted by (region, product): east/pad, east/pen, west/pad, west/pen.
  EXPECT_EQ(r.GroupKey(0), (std::vector<Value>{Value("east"), Value("pad")}));
  EXPECT_DOUBLE_EQ(r.AggValue(0, 0), 5.0);
  EXPECT_EQ(r.GroupKey(3), (std::vector<Value>{Value("west"), Value("pen")}));
  EXPECT_DOUBLE_EQ(r.AggValue(3, 0), 22.0);
  EXPECT_EQ(LineageOf(r, 3), (std::vector<RowId>{2, 4}));
}

TEST(ExecutorTest, NoGroupByProducesOneGroup) {
  auto t = MakeSales();
  AggregateQuery q = *ParseQuery("SELECT sum(units) AS total FROM sales");
  QueryResult r = *ExecuteQuery(q, *t);
  ASSERT_EQ(r.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(r.AggValue(0, 0), 38.0);
  EXPECT_EQ(r.lineage[0].size(), 5u);
}

TEST(ExecutorTest, NullsSkippedByAggregatesButTracedInLineage) {
  Table t(Schema{{"g", DataType::kInt64}, {"v", DataType::kDouble}});
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(10.0)}));
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value::Null()}));
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(20.0)}));
  AggregateQuery q = *ParseQuery(
      "SELECT g, avg(v) AS a, count(*) AS n FROM t GROUP BY g");
  QueryResult r = *ExecuteQuery(q, t);
  EXPECT_DOUBLE_EQ(r.AggValue(0, 0), 15.0);  // NULL skipped
  EXPECT_EQ(r.rows->GetValue(0, 2), Value(int64_t{3}));  // count(*) counts it
  EXPECT_EQ(r.lineage[0].size(), 3u);
}

TEST(ExecutorTest, AllNullGroupYieldsNullAggregate) {
  Table t(Schema{{"g", DataType::kInt64}, {"v", DataType::kDouble}});
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value::Null()}));
  AggregateQuery q = *ParseQuery("SELECT g, avg(v) AS a FROM t GROUP BY g");
  QueryResult r = *ExecuteQuery(q, t);
  EXPECT_TRUE(r.rows->GetValue(0, 1).is_null());
  EXPECT_TRUE(std::isnan(r.AggValue(0, 0)));
}

TEST(ExecutorTest, NullGroupKeyFormsItsOwnGroup) {
  Table t(Schema{{"g", DataType::kString}, {"v", DataType::kDouble}});
  DBW_CHECK_OK(t.AppendRow({Value("a"), Value(1.0)}));
  DBW_CHECK_OK(t.AppendRow({Value::Null(), Value(2.0)}));
  DBW_CHECK_OK(t.AppendRow({Value::Null(), Value(4.0)}));
  AggregateQuery q = *ParseQuery("SELECT g, sum(v) AS s FROM t GROUP BY g");
  QueryResult r = *ExecuteQuery(q, t);
  ASSERT_EQ(r.num_groups(), 2u);
  // NULL sorts first.
  EXPECT_TRUE(r.rows->GetValue(0, 0).is_null());
  EXPECT_DOUBLE_EQ(r.AggValue(0, 0), 6.0);
}

TEST(ExecutorTest, ValidationErrors) {
  auto t = MakeSales();
  EXPECT_TRUE(ExecuteQuery(*ParseQuery("SELECT avg(zzz) FROM sales"), *t)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      ExecuteQuery(*ParseQuery("SELECT avg(units) FROM sales GROUP BY zzz"),
                   *t)
          .status()
          .IsNotFound());
  // Arithmetic over a string column.
  EXPECT_TRUE(
      ExecuteQuery(*ParseQuery("SELECT avg(product + 1) FROM sales"), *t)
          .status()
          .IsTypeError());
}

TEST(ExecutorTest, LineageCaptureCanBeDisabled) {
  auto t = MakeSales();
  ExecOptions opts;
  opts.capture_lineage = false;
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT region, sum(units) FROM sales GROUP BY region"),
      *t, opts);
  EXPECT_EQ(r.num_groups(), 2u);
  EXPECT_FALSE(r.lineage.captured());
  EXPECT_TRUE(r.lineage.offsets.empty());
  EXPECT_TRUE(r.lineage.rows.empty());
}

TEST(ExecutorTest, DeterministicGroupOrder) {
  Rng rng(77);
  Table t(Schema{{"g", DataType::kInt64}, {"v", DataType::kDouble}});
  for (int i = 0; i < 500; ++i) {
    DBW_CHECK_OK(t.AppendRow(
        {Value(static_cast<int64_t>(rng.UniformInt(20u))), Value(1.0)}));
  }
  AggregateQuery q = *ParseQuery("SELECT g, sum(v) AS s FROM t GROUP BY g");
  QueryResult r = *ExecuteQuery(q, t);
  for (size_t g = 1; g < r.num_groups(); ++g) {
    EXPECT_TRUE(r.GroupKey(g - 1)[0] < r.GroupKey(g)[0]);
  }
}

// Oracle check: group-by results match a hand-rolled reference.
class ExecutorOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorOracleTest, AvgMatchesReference) {
  Rng rng(GetParam());
  Table t(Schema{{"g", DataType::kInt64}, {"v", DataType::kDouble}});
  std::map<int64_t, std::vector<double>> reference;
  for (int i = 0; i < 1000; ++i) {
    const int64_t g = static_cast<int64_t>(rng.UniformInt(13u));
    const double v = rng.Normal(0, 100);
    reference[g].push_back(v);
    DBW_CHECK_OK(t.AppendRow({Value(g), Value(v)}));
  }
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS a, stddev(v) AS sd FROM t GROUP BY g"),
      t);
  ASSERT_EQ(r.num_groups(), reference.size());
  size_t idx = 0;
  for (const auto& [g, values] : reference) {
    EXPECT_EQ(r.GroupKey(idx)[0], Value(g));
    EXPECT_NEAR(r.AggValue(idx, 0), Mean(values), 1e-9);
    OnlineStats stats;
    for (double v : values) stats.Add(v);
    EXPECT_NEAR(r.AggValue(idx, 1), stats.sample_stddev(), 1e-9);
    ++idx;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorOracleTest,
                         ::testing::Values(11, 22, 33, 44));

// ---------- database ----------

TEST(DatabaseTest, RegisterAndQuery) {
  Database db;
  db.RegisterTable(MakeSales());
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"sales"}));
  QueryResult r = *db.ExecuteSql(
      "SELECT region, sum(units) AS u FROM sales GROUP BY region");
  EXPECT_EQ(r.num_groups(), 2u);
  EXPECT_TRUE(db.ExecuteSql("SELECT sum(x) FROM missing").status()
                  .IsNotFound());
  EXPECT_TRUE(db.GetTable("missing").status().IsNotFound());
}

TEST(DatabaseTest, RegisterUnderExplicitName) {
  Database db;
  db.RegisterTable("alias", MakeSales());
  EXPECT_TRUE(db.GetTable("alias").ok());
  EXPECT_TRUE(db.ExecuteSql("SELECT sum(units) FROM alias").ok());
}

// ---------- Remove exactness / stability (the delta-scoring
// primitive) ----------

// Long interleaved Add/Remove sequences must stay close to a
// from-scratch recomputation over the surviving multiset. This is the
// contract RemovalScorer relies on: min/max/median and count are
// exact; sum/avg/stddev/var accumulate only benign floating-point
// error.
class AggregatorInterleaveProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregatorInterleaveProperty, InterleavedAddRemoveMatchesRecompute) {
  Rng rng(GetParam());
  const std::vector<AggKind> kinds = {
      AggKind::kCount, AggKind::kSum,    AggKind::kAvg,    AggKind::kMin,
      AggKind::kMax,   AggKind::kStddev, AggKind::kVar,    AggKind::kMedian};
  for (AggKind kind : kinds) {
    AggregatorPtr agg = MakeAggregator(kind);
    std::vector<double> live;  // the multiset currently folded in

    auto recompute = [&]() {
      AggregatorPtr fresh = MakeAggregator(kind);
      for (double v : live) fresh->Add(v);
      return fresh->Value();
    };

    for (int step = 0; step < 3000; ++step) {
      // Grow on average, shrink regularly, and occasionally drain to
      // (near) empty so every count regime is visited.
      const bool remove = !live.empty() &&
                          (rng.Bernoulli(0.45) ||
                           (step % 500 == 499 && rng.Bernoulli(0.9)));
      if (remove) {
        const size_t idx = rng.UniformInt(static_cast<uint32_t>(live.size()));
        agg->Remove(live[idx]);
        live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
      } else {
        // Mixed magnitudes stress cancellation in the running moments.
        // (Kept within ~3 decades of the bulk: Welford *removal* of a
        // transient 1e6-scale outlier is inherently ill-conditioned —
        // the residual moment is the difference of two huge numbers —
        // so larger spreads test the floating point format, not us.)
        const double v = rng.Bernoulli(0.1) ? rng.Normal(0.0, 1e3)
                                            : rng.Normal(10.0, 5.0);
        agg->Add(v);
        live.push_back(v);
      }
      if (step % 97 != 0) continue;  // spot-check; full check is O(n^2)

      ASSERT_EQ(agg->Count(), live.size());
      const double got = agg->Value();
      const double want = recompute();
      if (std::isnan(want)) {
        ASSERT_TRUE(std::isnan(got))
            << "kind " << static_cast<int>(kind) << " step " << step;
        continue;
      }
      // Tolerance scales with the magnitude of what was ever added;
      // exact kinds (count/min/max/median) pass with any tolerance.
      const double scale = std::max(1.0, std::abs(want));
      ASSERT_NEAR(got, want, 1e-6 * scale)
          << "kind " << static_cast<int>(kind) << " step " << step
          << " count " << live.size();
    }

    // Drain completely: the empty state must be recovered exactly.
    for (double v : live) agg->Remove(v);
    ASSERT_EQ(agg->Count(), 0u);
    AggregatorPtr empty = MakeAggregator(kind);
    const double drained = agg->Value();
    const double fresh_empty = empty->Value();
    if (std::isnan(fresh_empty)) {
      EXPECT_TRUE(std::isnan(drained)) << static_cast<int>(kind);
    } else {
      EXPECT_NEAR(drained, fresh_empty, 1e-6) << static_cast<int>(kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregatorInterleaveProperty,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace dbwipes
