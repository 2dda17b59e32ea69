#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dbwipes/core/evaluation.h"
#include "dbwipes/datagen/fec_generator.h"
#include "dbwipes/datagen/intel_generator.h"
#include "dbwipes/datagen/synthetic.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/query/executor.h"

namespace dbwipes {
namespace {

// ---------- Intel ----------

IntelOptions SmallIntel() {
  IntelOptions opts;
  opts.duration_days = 2;
  opts.reading_interval_minutes = 15.0;
  opts.faults = {{7, 1440, 360, 120.0}};
  return opts;
}

TEST(IntelGeneratorTest, SchemaAndScale) {
  LabeledDataset d = *GenerateIntelDataset(SmallIntel());
  EXPECT_EQ(d.table->schema().ToString(),
            "sensorid:int64, minute:int64, window:int64, hour:int64, "
            "temp:double, humidity:double, light:double, voltage:double");
  // 54 sensors * 2 days * 96 readings/day, minus ~2% drops.
  const double expected = 54 * 2 * (1440 / 15.0);
  EXPECT_NEAR(static_cast<double>(d.table->num_rows()), expected * 0.98,
              expected * 0.02);
  EXPECT_EQ(d.table->name(), "readings");
}

TEST(IntelGeneratorTest, GroundTruthMatchesitsOwnPredicate) {
  LabeledDataset d = *GenerateIntelDataset(SmallIntel());
  ASSERT_EQ(d.anomalies.size(), 1u);
  // The recorded rows are exactly the rows the description matches.
  ExplanationQuality q =
      *ScorePredicate(*d.table, d.anomalies[0].description,
                      d.anomalies[0].rows);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
}

TEST(IntelGeneratorTest, FaultySensorRunsHot) {
  LabeledDataset d = *GenerateIntelDataset(SmallIntel());
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT sensorid, max(temp) AS m FROM readings "
                  "GROUP BY sensorid"),
      *d.table);
  double faulty_max = 0.0, healthy_max = 0.0;
  for (size_t g = 0; g < r.num_groups(); ++g) {
    const double m = r.AggValue(g, 0);
    if (r.GroupKey(g)[0] == Value(int64_t{7})) {
      faulty_max = m;
    } else {
      healthy_max = std::max(healthy_max, m);
    }
  }
  EXPECT_GT(faulty_max, 100.0);
  EXPECT_LT(healthy_max, 40.0);
}

TEST(IntelGeneratorTest, DiurnalCycleIsVisible) {
  IntelOptions opts = SmallIntel();
  opts.faults.clear();
  opts.drop_rate = 0.0;
  LabeledDataset d = *GenerateIntelDataset(opts);
  EXPECT_TRUE(d.anomalies.empty());
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT hour, avg(temp) AS t FROM readings GROUP BY hour"),
      *d.table);
  double lo = 1e9, hi = -1e9;
  for (size_t g = 0; g < r.num_groups(); ++g) {
    lo = std::min(lo, r.AggValue(g, 0));
    hi = std::max(hi, r.AggValue(g, 0));
  }
  EXPECT_GT(hi - lo, 4.0);  // day/night swing
  EXPECT_GT(lo, 10.0);
  EXPECT_LT(hi, 30.0);
}

TEST(IntelGeneratorTest, Determinism) {
  LabeledDataset a = *GenerateIntelDataset(SmallIntel());
  LabeledDataset b = *GenerateIntelDataset(SmallIntel());
  ASSERT_EQ(a.table->num_rows(), b.table->num_rows());
  for (RowId r = 0; r < a.table->num_rows(); r += 97) {
    EXPECT_EQ(a.table->GetValue(r, 4), b.table->GetValue(r, 4));
  }
  EXPECT_EQ(a.anomalies[0].rows, b.anomalies[0].rows);
}

TEST(IntelGeneratorTest, Validation) {
  IntelOptions opts = SmallIntel();
  opts.num_sensors = 0;
  EXPECT_FALSE(GenerateIntelDataset(opts).ok());
  opts = SmallIntel();
  opts.duration_days = 0;
  EXPECT_FALSE(GenerateIntelDataset(opts).ok());
  opts = SmallIntel();
  opts.faults = {{99, 0, 1, 120.0}};  // sensor out of range
  EXPECT_FALSE(GenerateIntelDataset(opts).ok());
}

// ---------- FEC ----------

FecOptions SmallFec() {
  FecOptions opts;
  opts.num_donations = 5000;
  opts.num_reattributions = 80;
  return opts;
}

TEST(FecGeneratorTest, SchemaAndAnomalyStructure) {
  LabeledDataset d = *GenerateFecDataset(SmallFec());
  EXPECT_EQ(d.table->schema().ToString(),
            "candidate:string, state:string, city:string, "
            "occupation:string, amount:double, day:int64, memo:string");
  ASSERT_EQ(d.anomalies.size(), 1u);
  EXPECT_EQ(d.anomalies[0].rows.size(), 80u);
  // Every anomalous row: negative amount, target candidate, the memo.
  for (RowId r : d.anomalies[0].rows) {
    EXPECT_LT(*d.table->GetValue(r, 4).AsDouble(), 0.0);
    EXPECT_EQ(d.table->GetValue(r, 0), Value("MCCAIN"));
    EXPECT_EQ(d.table->GetValue(r, 6), Value("REATTRIBUTION TO SPOUSE"));
  }
}

TEST(FecGeneratorTest, GroundTruthPredicateIsExact) {
  LabeledDataset d = *GenerateFecDataset(SmallFec());
  ExplanationQuality q = *ScorePredicate(
      *d.table, d.anomalies[0].description, d.anomalies[0].rows);
  EXPECT_DOUBLE_EQ(q.f1, 1.0);
}

TEST(FecGeneratorTest, NegativeSpikeAppearsNearTargetDay) {
  LabeledDataset d = *GenerateFecDataset(SmallFec());
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT day, sum(amount) AS t FROM donations "
                  "WHERE candidate = 'MCCAIN' GROUP BY day"),
      *d.table);
  double worst = 1e18;
  int64_t worst_day = -1;
  for (size_t g = 0; g < r.num_groups(); ++g) {
    if (r.AggValue(g, 0) < worst) {
      worst = r.AggValue(g, 0);
      worst_day = r.GroupKey(g)[0].int64();
    }
  }
  EXPECT_LT(worst, 0.0);
  EXPECT_NEAR(static_cast<double>(worst_day), 500.0, 20.0);
}

TEST(FecGeneratorTest, BenignRefundsExistAndAreNotGroundTruth) {
  FecOptions opts = SmallFec();
  opts.refund_rate = 0.01;
  LabeledDataset d = *GenerateFecDataset(opts);
  Predicate refunds(
      {Clause::Make("memo", CompareOp::kEq, Value("REFUND ISSUED"))});
  std::vector<RowId> rows;
  for (RowId r = 0; r < d.table->num_rows(); ++r) {
    if (*refunds.Matches(*d.table, r)) rows.push_back(r);
  }
  EXPECT_GT(rows.size(), 10u);
  for (RowId r : rows) {
    EXPECT_FALSE(std::binary_search(d.anomalies[0].rows.begin(),
                                    d.anomalies[0].rows.end(), r));
  }
}

TEST(FecGeneratorTest, Validation) {
  FecOptions opts;
  opts.target_candidate = "NOBODY";
  EXPECT_FALSE(GenerateFecDataset(opts).ok());
  opts = FecOptions();
  opts.num_days = 1;
  EXPECT_FALSE(GenerateFecDataset(opts).ok());
  opts = FecOptions();
  opts.num_donations = 0;
  EXPECT_FALSE(GenerateFecDataset(opts).ok());
}

// ---------- synthetic ----------

TEST(SyntheticTest, SelectivityApproximatelyHonored) {
  SyntheticOptions opts;
  opts.num_rows = 40000;
  opts.anomaly_selectivity = 0.05;
  LabeledDataset d = *GenerateSyntheticDataset(opts);
  const double actual = static_cast<double>(d.anomalies[0].rows.size()) /
                        static_cast<double>(opts.num_rows);
  EXPECT_NEAR(actual, 0.05, 0.01);
}

TEST(SyntheticTest, TwoClausePredicateIsExactAndNecessary) {
  SyntheticOptions opts;
  opts.num_rows = 20000;
  opts.anomaly_clauses = 2;
  LabeledDataset d = *GenerateSyntheticDataset(opts);
  // The planted description matches exactly the anomalous rows...
  ExplanationQuality q = *ScorePredicate(
      *d.table, d.anomalies[0].description, d.anomalies[0].rows);
  EXPECT_DOUBLE_EQ(q.f1, 1.0);
  // ...while either single clause over- or under-covers.
  Predicate cat_only({d.anomalies[0].description.clauses()[0]});
  ExplanationQuality qc =
      *ScorePredicate(*d.table, cat_only, d.anomalies[0].rows);
  EXPECT_LT(qc.precision, 0.9);
  EXPECT_DOUBLE_EQ(qc.recall, 1.0);
  Predicate num_only({d.anomalies[0].description.clauses()[1]});
  ExplanationQuality qn =
      *ScorePredicate(*d.table, num_only, d.anomalies[0].rows);
  EXPECT_LT(qn.precision, 1.0);
}

TEST(SyntheticTest, OneClauseVariant) {
  SyntheticOptions opts;
  opts.anomaly_clauses = 1;
  opts.num_rows = 10000;
  LabeledDataset d = *GenerateSyntheticDataset(opts);
  EXPECT_EQ(d.anomalies[0].description.num_clauses(), 1u);
  ExplanationQuality q = *ScorePredicate(
      *d.table, d.anomalies[0].description, d.anomalies[0].rows);
  EXPECT_DOUBLE_EQ(q.f1, 1.0);
}

TEST(SyntheticTest, AnomalousGroupsAreElevated) {
  SyntheticOptions opts;
  opts.num_rows = 30000;
  opts.anomaly_selectivity = 0.05;
  opts.anomaly_shift = 50.0;
  LabeledDataset d = *GenerateSyntheticDataset(opts);
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS a FROM synthetic GROUP BY g"),
      *d.table);
  size_t elevated = 0;
  for (size_t g = 0; g < r.num_groups(); ++g) {
    if (r.AggValue(g, 0) > 51.0) ++elevated;
  }
  EXPECT_GT(elevated, r.num_groups() / 2);
}

TEST(SyntheticTest, Validation) {
  SyntheticOptions opts;
  opts.num_categorical_attrs = 0;
  EXPECT_FALSE(GenerateSyntheticDataset(opts).ok());
  opts = SyntheticOptions();
  opts.anomaly_clauses = 2;
  opts.num_numeric_attrs = 0;
  EXPECT_FALSE(GenerateSyntheticDataset(opts).ok());
  opts = SyntheticOptions();
  opts.anomaly_selectivity = 0.0;
  EXPECT_FALSE(GenerateSyntheticDataset(opts).ok());
  opts = SyntheticOptions();
  opts.anomaly_clauses = 3;
  EXPECT_FALSE(GenerateSyntheticDataset(opts).ok());
}

// ---------- evaluation helpers ----------

TEST(EvaluationTest, ScoreTupleSetMath) {
  ExplanationQuality q = ScoreTupleSet({1, 2, 3, 4}, {3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_DOUBLE_EQ(q.recall, 0.5);
  EXPECT_DOUBLE_EQ(q.f1, 0.5);
  EXPECT_DOUBLE_EQ(q.jaccard, 2.0 / 6.0);
  EXPECT_EQ(q.intersection, 2u);
}

TEST(EvaluationTest, EmptySetsYieldZeros) {
  ExplanationQuality q = ScoreTupleSet({}, {1, 2});
  EXPECT_DOUBLE_EQ(q.precision, 0.0);
  EXPECT_DOUBLE_EQ(q.recall, 0.0);
  EXPECT_DOUBLE_EQ(q.f1, 0.0);
  ExplanationQuality q2 = ScoreTupleSet({}, {});
  EXPECT_DOUBLE_EQ(q2.jaccard, 0.0);
}

TEST(EvaluationTest, AllAnomalousRowsUnionsAndDedups) {
  LabeledDataset d;
  d.anomalies.resize(2);
  d.anomalies[0].rows = {3, 1};
  d.anomalies[1].rows = {1, 7};
  // Note: rows within one anomaly are kept as given; the union sorts.
  std::sort(d.anomalies[0].rows.begin(), d.anomalies[0].rows.end());
  std::sort(d.anomalies[1].rows.begin(), d.anomalies[1].rows.end());
  EXPECT_EQ(d.AllAnomalousRows(), (std::vector<RowId>{1, 3, 7}));
}

}  // namespace
}  // namespace dbwipes
