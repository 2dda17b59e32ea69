// End-to-end integration: the two paper scenarios (F4 Intel, F7 FEC)
// driven through the Session exactly as the demo walkthrough describes,
// with quantitative assertions against the generators' ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dbwipes/core/evaluation.h"
#include "dbwipes/core/session.h"
#include "dbwipes/datagen/fec_generator.h"
#include "dbwipes/datagen/intel_generator.h"
#include "dbwipes/datagen/synthetic.h"
#include "dbwipes/viz/scatterplot.h"

namespace dbwipes {
namespace {

TEST(IntegrationTest, IntelSensorWalkthrough) {
  IntelOptions gen;
  gen.duration_days = 5;
  gen.reading_interval_minutes = 10.0;
  gen.faults = {{15, 3 * 1440, 600, 122.0}, {18, 4 * 1440, 600, 110.0}};
  LabeledDataset data = *GenerateIntelDataset(gen);

  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);
  Session session(db);

  ASSERT_TRUE(session
                  .ExecuteSql("SELECT window, avg(temp) AS t, "
                              "stddev(temp) AS sd FROM readings "
                              "GROUP BY window")
                  .ok());
  ASSERT_TRUE(session.SelectResultsInRange("sd", 8.0, 1e9).ok());
  EXPECT_GT(session.selected_groups().size(), 10u);
  ASSERT_TRUE(session.SelectInputsWhere("temp > 100").ok());
  ASSERT_TRUE(session.SetMetric(TooHigh(2.0), /*agg_index=*/1).ok());

  Explanation exp = *session.Debug();
  ASSERT_FALSE(exp.predicates.empty());
  const RankedPredicate& top = exp.predicates[0];
  // The top predicate must describe the dying motes well: it should
  // cover most ground-truth anomalous rows with good precision.
  ExplanationQuality q =
      *ScorePredicate(*data.table, top.predicate, data.AllAnomalousRows());
  EXPECT_GT(q.recall, 0.8) << top.predicate.ToString();
  EXPECT_GT(q.precision, 0.5) << top.predicate.ToString();
  EXPECT_GT(top.error_improvement, 0.8);
  EXPECT_LE(top.predicate.num_clauses(), 4u);

  // Clicking the predicate repairs the stddev signal (>= 90% of the
  // error disappears, the paper's "significant fraction").
  const double err_before = exp.preprocess.baseline_error;
  ASSERT_TRUE(session.ApplyPredicate(0).ok());
  double worst_sd = 0.0;
  for (size_t g = 0; g < session.result().num_groups(); ++g) {
    const double sd = session.result().AggValue(g, 1);
    if (!std::isnan(sd)) worst_sd = std::max(worst_sd, sd);
  }
  EXPECT_LT(worst_sd - 2.0, 0.1 * err_before);
}

TEST(IntegrationTest, FecCampaignWalkthrough) {
  FecOptions gen;
  gen.num_donations = 20000;
  gen.num_reattributions = 150;
  LabeledDataset data = *GenerateFecDataset(gen);

  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);
  Session session(db);

  ASSERT_TRUE(session
                  .ExecuteSql("SELECT day, sum(amount) AS total "
                              "FROM donations WHERE candidate = 'MCCAIN' "
                              "GROUP BY day")
                  .ok());
  ASSERT_TRUE(session.SelectResultsInRange("total", -1e15, -1.0).ok());
  ASSERT_TRUE(session.SelectInputsWhere("amount < 0").ok());
  ASSERT_TRUE(session.SetMetric(TooLow(0.0)).ok());

  Explanation exp = *session.Debug();
  ASSERT_FALSE(exp.predicates.empty());
  // The paper's punchline: the predicate references the memo field's
  // reattribution value.
  const std::string top = exp.predicates[0].predicate.ToString();
  EXPECT_NE(top.find("memo"), std::string::npos) << top;
  EXPECT_NE(top.find("REATTRIBUTION"), std::string::npos) << top;
  EXPECT_GT(exp.predicates[0].f1, 0.9);

  // Cleaning removes the negative spike entirely.
  ASSERT_TRUE(session.ApplyPredicate(0).ok());
  double worst = 0.0;
  for (size_t g = 0; g < session.result().num_groups(); ++g) {
    worst = std::min(worst, session.result().AggValue(g, 0));
  }
  EXPECT_GT(worst, -500.0);  // benign refunds only
}

TEST(IntegrationTest, SyntheticTwoClauseRecovery) {
  SyntheticOptions gen;
  gen.num_rows = 30000;
  gen.anomaly_selectivity = 0.03;
  gen.anomaly_clauses = 2;
  LabeledDataset data = *GenerateSyntheticDataset(gen);

  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);
  Session session(db);
  ASSERT_TRUE(
      session.ExecuteSql("SELECT g, avg(v) AS a FROM synthetic GROUP BY g")
          .ok());
  ASSERT_TRUE(session.SelectResultsInRange("a", 50.6, 1e9).ok());
  ASSERT_TRUE(session.SelectInputsWhere("v > 75").ok());
  ASSERT_TRUE(session.SetMetric(TooHigh(50.0)).ok());
  Explanation exp = *session.Debug();
  ASSERT_FALSE(exp.predicates.empty());
  ExplanationQuality q = *ScorePredicate(
      *data.table, exp.predicates[0].predicate, data.anomalies[0].rows);
  // Score within the suspect set F rather than the whole table:
  // anomalies outside the selected groups are out of scope by design.
  EXPECT_GT(q.recall, 0.4);
  EXPECT_GT(exp.predicates[0].f1, 0.8);
  EXPECT_GT(exp.predicates[0].error_improvement, 0.85);
}

TEST(IntegrationTest, RepeatedCleaningConverges) {
  // Two independent anomalies; clean them one predicate at a time.
  Rng rng_unused(0);
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"v", DataType::kDouble}},
                                   "w");
  Rng rng(5);
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 50; ++i) {
      const char* tag = "fine";
      double v = rng.Normal(10, 1);
      if (g < 2 && i < 8) {
        tag = "badA";
        v = rng.Normal(80, 1);
      } else if (g >= 2 && i < 8) {
        tag = "badB";
        v = rng.Normal(60, 1);
      }
      DBW_CHECK_OK(t->AppendRow(
          {Value(static_cast<int64_t>(g)), Value(tag), Value(v)}));
    }
  }
  auto db = std::make_shared<Database>();
  db->RegisterTable(t);
  Session session(db);
  ASSERT_TRUE(session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g")
                  .ok());

  for (int round = 0; round < 4; ++round) {
    auto sel = session.SelectResultsInRange("a", 13.0, 1e9);
    if (!sel.ok()) break;  // clean already
    ASSERT_TRUE(session.SetMetric(TooHigh(11.0)).ok());
    Explanation exp = *session.Debug();
    ASSERT_FALSE(exp.predicates.empty());
    ASSERT_TRUE(session.ApplyPredicate(0).ok());
  }
  for (size_t g = 0; g < session.result().num_groups(); ++g) {
    EXPECT_LT(session.result().AggValue(g, 0), 13.0) << "group " << g;
  }
  EXPECT_GE(session.applied_predicates().size(), 1u);
}

TEST(IntegrationTest, MultiAttributeGroupByWalkthrough) {
  // The paper's multi-attribute group-by case: group sensor readings
  // by (sensorid, hour); the dying mote's cells go anomalous. The
  // PCA projection the paper proposes renders without error, and the
  // pipeline explains the anomaly from the 2-d group structure.
  IntelOptions gen;
  gen.duration_days = 4;
  gen.reading_interval_minutes = 10.0;
  gen.faults = {{15, 2 * 1440, 600, 122.0}};
  LabeledDataset data = *GenerateIntelDataset(gen);

  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);
  Session session(db);
  ASSERT_TRUE(session
                  .ExecuteSql("SELECT sensorid, hour, avg(temp) AS t "
                              "FROM readings GROUP BY sensorid, hour")
                  .ok());
  // PCA projection of the 2-attribute keys (paper §2.2.1).
  ScatterPlot pca = *ScatterPlot::FromResultPca(session.result());
  EXPECT_EQ(pca.points().size(), session.result().num_groups());
  EXPECT_FALSE(pca.Render().empty());

  ASSERT_TRUE(session.SelectResultsInRange("t", 40.0, 1e9).ok());
  ASSERT_TRUE(session.SetMetric(TooHigh(25.0)).ok());
  Explanation exp = *session.Debug();
  ASSERT_FALSE(exp.predicates.empty());
  // Groups are (sensorid, hour) cells; the selection covers only the
  // hottest cells, so score against the ground truth *within F* (the
  // part of the anomaly the user actually asked about).
  std::vector<RowId> truth = data.AllAnomalousRows();
  std::vector<RowId> truth_in_f;
  std::set_intersection(truth.begin(), truth.end(),
                        exp.preprocess.suspect_inputs.begin(),
                        exp.preprocess.suspect_inputs.end(),
                        std::back_inserter(truth_in_f));
  ASSERT_FALSE(truth_in_f.empty());
  const Predicate& top = exp.predicates[0].predicate;
  std::vector<RowId> matched;
  for (RowId r : exp.preprocess.suspect_inputs) {
    if (*top.Matches(*data.table, r)) matched.push_back(r);
  }
  ExplanationQuality q = ScoreTupleSet(matched, truth_in_f);
  EXPECT_GT(q.f1, 0.6) << exp.predicates[0].predicate.ToString();
}

TEST(IntegrationTest, MedianQuerySupportsTheFullLoop) {
  // median() is robust to the planted outliers, so the same data that
  // trips avg() stays quiet under median() — both behaviors verified
  // through the full pipeline.
  Rng rng(21);
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"v", DataType::kDouble}},
                                   "w");
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 50; ++i) {
      const bool bad = g == 2 && i < 10;
      DBW_CHECK_OK(t->AppendRow({Value(static_cast<int64_t>(g)),
                                 Value(bad ? "bad" : "fine"),
                                 Value(bad ? rng.Normal(100, 2)
                                           : rng.Normal(10, 2))}));
    }
  }
  auto db = std::make_shared<Database>();
  db->RegisterTable(t);
  Session session(db);
  ASSERT_TRUE(session
                  .ExecuteSql("SELECT g, median(v) AS m, avg(v) AS a "
                              "FROM w GROUP BY g")
                  .ok());
  // avg of group 2 is inflated; its median is not (10 of 50 outliers).
  EXPECT_GT(session.result().AggValue(2, 1), 20.0);
  EXPECT_LT(session.result().AggValue(2, 0), 15.0);

  // Explaining the avg anomaly still works with the median column
  // present in the query.
  ASSERT_TRUE(session.SelectResultsInRange("a", 20.0, 1e9).ok());
  ASSERT_TRUE(session.SetMetric(TooHigh(12.0), /*agg_index=*/1).ok());
  Explanation exp = *session.Debug();
  ASSERT_FALSE(exp.predicates.empty());
  EXPECT_EQ(exp.predicates[0].predicate.ToString(), "tag = 'bad'");
}

TEST(IntegrationTest, CoarseProvenanceIsUninformativeAsMotivated) {
  // The introduction's point: every input goes through the same
  // operator pipeline, so the plan cannot distinguish anomalies.
  FecOptions gen;
  gen.num_donations = 2000;
  gen.num_reattributions = 20;
  LabeledDataset data = *GenerateFecDataset(gen);
  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);
  Session session(db);
  ASSERT_TRUE(session
                  .ExecuteSql("SELECT day, sum(amount) AS t FROM donations "
                              "GROUP BY day")
                  .ok());
  const std::string plan = *session.DescribePlan();
  // One linear pipeline; nothing row-specific in it.
  EXPECT_EQ(plan.find("REATTRIBUTION"), std::string::npos);
  EXPECT_NE(plan.find("Scan"), std::string::npos);
}

}  // namespace
}  // namespace dbwipes
