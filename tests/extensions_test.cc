// Tests for the extension features: PCA (the paper's proposed multi-
// attribute group-by visualization), JSON export (the backend->frontend
// payload), session undo, and predicate round-trip fuzzing.

#include <gtest/gtest.h>

#include <cmath>

#include "dbwipes/common/random.h"
#include "dbwipes/core/export.h"
#include "dbwipes/core/session.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/learn/pca.h"
#include "dbwipes/viz/histogram.h"
#include "dbwipes/viz/scatterplot.h"

namespace dbwipes {
namespace {

// ---------- PCA ----------

TEST(PcaTest, RecoversDominantAxis) {
  // Points along the diagonal y = 2x with small noise: PC1 must align
  // with (1, 2)/sqrt(5).
  Rng rng(3);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 500; ++i) {
    const double t = rng.Normal(0, 3);
    points.push_back({t + rng.Normal(0, 0.05), 2 * t + rng.Normal(0, 0.05)});
  }
  PcaResult pca = *ComputePca(points, 2);
  ASSERT_EQ(pca.components.size(), 2u);
  const double ratio =
      std::fabs(pca.components[0][1] / pca.components[0][0]);
  EXPECT_NEAR(ratio, 2.0, 0.05);
  // PC1 variance dominates PC2.
  EXPECT_GT(pca.explained_variance[0], 20 * pca.explained_variance[1]);
}

TEST(PcaTest, ComponentsAreOrthonormal) {
  Rng rng(4);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 300; ++i) {
    points.push_back({rng.Normal(0, 3), rng.Normal(0, 2), rng.Normal(0, 1)});
  }
  PcaResult pca = *ComputePca(points, 3);
  for (size_t a = 0; a < 3; ++a) {
    double norm = 0.0;
    for (double x : pca.components[a]) norm += x * x;
    EXPECT_NEAR(norm, 1.0, 1e-6);
    for (size_t b = a + 1; b < 3; ++b) {
      double dot = 0.0;
      for (size_t j = 0; j < 3; ++j) {
        dot += pca.components[a][j] * pca.components[b][j];
      }
      EXPECT_NEAR(dot, 0.0, 1e-5) << a << " vs " << b;
    }
  }
  // Eigenvalues descend and approximate the axis variances.
  EXPECT_GE(pca.explained_variance[0], pca.explained_variance[1]);
  EXPECT_GE(pca.explained_variance[1], pca.explained_variance[2]);
  EXPECT_NEAR(pca.explained_variance[0], 9.0, 1.5);
}

TEST(PcaTest, ProjectionCentersData) {
  std::vector<std::vector<double>> points = {
      {1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  PcaResult pca = *ComputePca(points, 1);
  // The middle point is the mean -> projects to 0.
  EXPECT_NEAR(pca.Project({2.0, 20.0})[0], 0.0, 1e-9);
  // End points project symmetrically.
  EXPECT_NEAR(pca.Project({1.0, 10.0})[0], -pca.Project({3.0, 30.0})[0],
              1e-9);
}

TEST(PcaTest, DegenerateDataGetsZeroVariance) {
  std::vector<std::vector<double>> points(10, {5.0, 5.0});
  PcaResult pca = *ComputePca(points, 2);
  EXPECT_NEAR(pca.explained_variance[0], 0.0, 1e-12);
  EXPECT_NEAR(pca.explained_variance[1], 0.0, 1e-12);
}

TEST(PcaTest, Validation) {
  EXPECT_FALSE(ComputePca({}, 1).ok());
  EXPECT_FALSE(ComputePca({{1.0}}, 2).ok());
  EXPECT_FALSE(ComputePca({{1.0}, {1.0, 2.0}}, 1).ok());
  EXPECT_FALSE(ComputePca({{1.0}}, 0).ok());
}

// ---------- PCA scatterplot ----------

TEST(PcaScatterTest, MultiAttributeGroupByProjects) {
  // Two group-by attributes forming two clusters of keys.
  Table t(Schema{{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"v", DataType::kDouble}},
          "w");
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const bool cluster = i % 2 == 0;
    DBW_CHECK_OK(t.AppendRow(
        {Value(static_cast<int64_t>(cluster ? i % 5 : 50 + i % 5)),
         Value(static_cast<int64_t>(cluster ? i % 3 : 40 + i % 3)),
         Value(rng.Normal(10, 1))}));
  }
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT a, b, avg(v) AS m FROM w GROUP BY a, b"), t);
  ScatterPlot plot = *ScatterPlot::FromResultPca(r);
  EXPECT_EQ(plot.x_label(), "PC1");
  EXPECT_EQ(plot.y_label(), "PC2");
  EXPECT_EQ(plot.points().size(), r.num_groups());
  // The two key clusters separate along PC1.
  double lo = 1e18, hi = -1e18;
  for (const ScatterPoint& p : plot.points()) {
    lo = std::min(lo, p.x);
    hi = std::max(hi, p.x);
  }
  EXPECT_GT(hi - lo, 10.0);
  EXPECT_FALSE(plot.Render().empty());
}

TEST(PcaScatterTest, RequiresTwoGroupByAttributes) {
  Table t(Schema{{"g", DataType::kInt64}, {"v", DataType::kDouble}}, "w");
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{0}), Value(1.0)}));
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS m FROM w GROUP BY g"), t);
  EXPECT_TRUE(ScatterPlot::FromResultPca(r).status().IsInvalidArgument());
}

// ---------- JSON export ----------

TEST(JsonExportTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape("plain"), "plain");
}

std::shared_ptr<Database> AnomalyDb() {
  Rng rng(6);
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"v", DataType::kDouble}},
                                   "w");
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 40; ++i) {
      const bool bad = g == 2 && i < 10;
      DBW_CHECK_OK(t->AppendRow({Value(static_cast<int64_t>(g)),
                                 Value(bad ? "bad" : "fine"),
                                 Value(bad ? rng.Normal(100, 2)
                                           : rng.Normal(10, 2))}));
    }
  }
  auto db = std::make_shared<Database>();
  db->RegisterTable(t);
  return db;
}

TEST(JsonExportTest, ExplanationSerializes) {
  Session session(AnomalyDb());
  DBW_CHECK_OK(session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g"));
  DBW_CHECK_OK(session.SelectResultsInRange("a", 20.0, 1e9));
  DBW_CHECK_OK(session.SetMetric(TooHigh(12.0)));
  Explanation exp = *session.Debug();
  const std::string json = ExplanationToJson(exp);
  EXPECT_NE(json.find("\"predicates\":"), std::string::npos);
  EXPECT_NE(json.find("tag = 'bad'"), std::string::npos);
  EXPECT_NE(json.find("\"baseline_error\":"), std::string::npos);
  EXPECT_NE(json.find("\"stage_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"candidates\":"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // Compact mode has no newlines.
  const std::string compact = ExplanationToJson(exp, /*pretty=*/false);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
}

TEST(JsonExportTest, QueryResultSerializesNullsAndStrings) {
  Table t(Schema{{"g", DataType::kString}, {"v", DataType::kDouble}}, "w");
  DBW_CHECK_OK(t.AppendRow({Value("x\"y"), Value(1.5)}));
  DBW_CHECK_OK(t.AppendRow({Value("b"), Value::Null()}));
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS m FROM w GROUP BY g"), t);
  const std::string json = QueryResultToJson(r);
  EXPECT_NE(json.find("\"columns\":"), std::string::npos);
  EXPECT_NE(json.find("x\\\"y"), std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);
  EXPECT_NE(json.find("\"sql\":"), std::string::npos);
}

// ---------- session undo ----------

TEST(SessionUndoTest, UndoRestoresPreviousQuery) {
  Session session(AnomalyDb());
  DBW_CHECK_OK(session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g"));
  const std::string original = session.CurrentSql();
  DBW_CHECK_OK(session.ApplyPredicateDirect(
      Predicate({Clause::Make("tag", CompareOp::kEq, Value("bad"))})));
  const std::string cleaned_once = session.CurrentSql();
  DBW_CHECK_OK(session.ApplyPredicateDirect(
      Predicate({Clause::Make("v", CompareOp::kLt, Value(0.0))})));
  EXPECT_EQ(session.applied_predicates().size(), 2u);

  DBW_CHECK_OK(session.UndoLastPredicate());
  EXPECT_EQ(session.CurrentSql(), cleaned_once);
  DBW_CHECK_OK(session.UndoLastPredicate());
  EXPECT_EQ(session.CurrentSql(), original);
  EXPECT_TRUE(session.UndoLastPredicate().IsInvalidArgument());
}

TEST(SessionUndoTest, UndoBeforeQueryFails) {
  Session session(AnomalyDb());
  EXPECT_FALSE(session.UndoLastPredicate().ok());
}

// ---------- histogram ----------

TEST(HistogramTest, NumericBucketsCoverRange) {
  Table t(Schema{{"v", DataType::kDouble}}, "w");
  for (int i = 0; i < 100; ++i) {
    DBW_CHECK_OK(t.AppendRow({Value(static_cast<double>(i))}));
  }
  DBW_CHECK_OK(t.AppendRow({Value::Null()}));
  Histogram h = *Histogram::FromColumn(t, "v", {}, 10);
  EXPECT_EQ(h.buckets().size(), 10u);
  EXPECT_EQ(h.null_count(), 1u);
  size_t total = 0;
  for (const auto& b : h.buckets()) total += b.count;
  EXPECT_EQ(total, 100u);
  // Uniform data: every equal-width bucket holds 10.
  for (const auto& b : h.buckets()) EXPECT_EQ(b.count, 10u);
}

TEST(HistogramTest, CategoricalTopCategories) {
  Table t(Schema{{"c", DataType::kString}}, "w");
  for (int i = 0; i < 30; ++i) DBW_CHECK_OK(t.AppendRow({Value("common")}));
  for (int i = 0; i < 5; ++i) DBW_CHECK_OK(t.AppendRow({Value("rare")}));
  Histogram h = *Histogram::FromColumn(t, "c");
  ASSERT_EQ(h.buckets().size(), 2u);
  EXPECT_EQ(h.buckets()[0].label, "common");
  EXPECT_EQ(h.buckets()[0].count, 30u);
  const std::string rendered = h.Render(20);
  EXPECT_NE(rendered.find("common"), std::string::npos);
  EXPECT_NE(rendered.find('#'), std::string::npos);
}

TEST(HistogramTest, RowSubsetAndErrors) {
  Table t(Schema{{"v", DataType::kDouble}}, "w");
  for (int i = 0; i < 10; ++i) {
    DBW_CHECK_OK(t.AppendRow({Value(static_cast<double>(i))}));
  }
  Histogram h = *Histogram::FromColumn(t, "v", {0, 1, 2}, 5);
  EXPECT_EQ(h.total_count(), 3u);
  EXPECT_TRUE(Histogram::FromColumn(t, "nope").status().IsNotFound());
  EXPECT_FALSE(Histogram::FromColumn(t, "v", {}, 0).ok());
}

TEST(HistogramTest, AllNullColumn) {
  Table t(Schema{{"v", DataType::kDouble}}, "w");
  DBW_CHECK_OK(t.AppendRow({Value::Null()}));
  Histogram h = *Histogram::FromColumn(t, "v");
  EXPECT_TRUE(h.buckets().empty());
  EXPECT_EQ(h.null_count(), 1u);
  EXPECT_FALSE(h.Render().empty());
}

// ---------- predicate round-trip fuzz ----------

class PredicateRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredicateRoundTrip, ToStringParsesBackEquivalently) {
  Rng rng(GetParam());
  const char* attrs[] = {"alpha", "beta", "gamma"};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Clause> clauses;
    const size_t n = 1 + rng.UniformInt(3u);
    for (size_t i = 0; i < n; ++i) {
      const char* attr = attrs[rng.UniformInt(3u)];
      switch (rng.UniformInt(4u)) {
        case 0:
          clauses.push_back(Clause::Make(
              attr,
              rng.Bernoulli(0.5) ? CompareOp::kGe : CompareOp::kLt,
              Value(std::round(rng.Normal(0, 50) * 100) / 100)));
          break;
        case 1:
          clauses.push_back(Clause::Make(
              attr, rng.Bernoulli(0.5) ? CompareOp::kEq : CompareOp::kNe,
              Value("cat_" + std::to_string(rng.UniformInt(5u)))));
          break;
        case 2:
          clauses.push_back(Clause::In(
              attr, {Value("a"), Value("b''quoted")}));
          break;
        default:
          clauses.push_back(Clause::Make(attr, CompareOp::kContains,
                                         Value("needle")));
      }
    }
    Predicate original(clauses);
    auto reparsed = ParsePredicate(original.ToString());
    ASSERT_TRUE(reparsed.ok())
        << original.ToString() << " -> " << reparsed.status().ToString();
    EXPECT_EQ(reparsed->CanonicalString(), original.CanonicalString());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateRoundTrip,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace dbwipes
