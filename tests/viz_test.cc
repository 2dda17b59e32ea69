// F2/F3/F5/F6: the dashboard components render what a user of the demo
// would see — query form with accumulated cleaning, scatterplot with
// brushing, the dynamically offered error forms, the ranked list.

#include <gtest/gtest.h>

#include "dbwipes/common/random.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/viz/dashboard.h"
#include "dbwipes/viz/scatterplot.h"

namespace dbwipes {
namespace {

std::shared_ptr<Database> MakeDb() {
  Rng rng(23);
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"v", DataType::kDouble}},
                                   "w");
  for (int g = 0; g < 6; ++g) {
    for (int i = 0; i < 30; ++i) {
      const bool bad = g == 5 && i < 10;
      DBW_CHECK_OK(t->AppendRow({Value(static_cast<int64_t>(g)),
                                 Value(bad ? "bad" : "fine"),
                                 Value(bad ? rng.Normal(60, 1)
                                           : rng.Normal(10, 1))}));
    }
  }
  auto db = std::make_shared<Database>();
  db->RegisterTable(t);
  return db;
}

QueryResult RunAvgQuery(const Database& db) {
  return *db.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g");
}

// ---------- scatterplot ----------

TEST(ScatterPlotTest, PointsFollowGroupsAndValues) {
  auto db = MakeDb();
  QueryResult r = RunAvgQuery(*db);
  ScatterPlot plot = *ScatterPlot::FromResult(r, "a");
  ASSERT_EQ(plot.points().size(), 6u);
  EXPECT_EQ(plot.x_label(), "g");
  EXPECT_EQ(plot.y_label(), "a");
  EXPECT_DOUBLE_EQ(plot.points()[2].x, 2.0);
  EXPECT_NEAR(plot.points()[0].y, 10.0, 1.0);
  EXPECT_NEAR(plot.points()[5].y, 10.0 * 2.0 / 3.0 + 60.0 / 3.0, 2.0);
}

TEST(ScatterPlotTest, BrushSelectsInsideRectangle) {
  auto db = MakeDb();
  QueryResult r = RunAvgQuery(*db);
  ScatterPlot plot = *ScatterPlot::FromResult(r, "a");
  auto selected = plot.BrushY(20.0, 100.0);
  EXPECT_EQ(selected, (std::vector<size_t>{5}));
  // Brushing accumulates.
  plot.BrushY(0.0, 15.0);
  EXPECT_EQ(plot.SelectedGroups().size(), 6u);
  plot.ClearSelection();
  EXPECT_TRUE(plot.SelectedGroups().empty());
}

TEST(ScatterPlotTest, ExplicitXColumn) {
  auto db = MakeDb();
  QueryResult r = RunAvgQuery(*db);
  ScatterPlot plot = *ScatterPlot::FromResult(r, "a", "g");
  EXPECT_EQ(plot.x_label(), "g");
  EXPECT_TRUE(ScatterPlot::FromResult(r, "a", "zz").status().IsNotFound());
  EXPECT_TRUE(ScatterPlot::FromResult(r, "zz").status().IsNotFound());
}

TEST(ScatterPlotTest, NoGroupByUsesOrdinalX) {
  auto db = MakeDb();
  QueryResult r = *db->ExecuteSql("SELECT avg(v) AS a FROM w");
  ScatterPlot plot = *ScatterPlot::FromResult(r, "a");
  ASSERT_EQ(plot.points().size(), 1u);
  EXPECT_EQ(plot.x_label(), "group");
}

TEST(ScatterPlotTest, CategoricalGroupKeyPlots) {
  auto db = MakeDb();
  QueryResult r = *db->ExecuteSql("SELECT tag, avg(v) AS a FROM w GROUP BY tag");
  ScatterPlot plot = *ScatterPlot::FromResult(r, "a");
  ASSERT_EQ(plot.points().size(), 2u);
  EXPECT_NE(plot.points()[0].x, plot.points()[1].x);
}

TEST(ScatterPlotTest, NullAggregatesAreNotDrawable) {
  Table t(Schema{{"g", DataType::kInt64}, {"v", DataType::kDouble}}, "w");
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{0}), Value(1.0)}));
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value::Null()}));
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS a FROM w GROUP BY g"), t);
  ScatterPlot plot = *ScatterPlot::FromResult(r, "a");
  EXPECT_TRUE(plot.points()[0].drawable);
  EXPECT_FALSE(plot.points()[1].drawable);
  // Render must not crash with partially drawable data.
  EXPECT_FALSE(plot.Render().empty());
}

TEST(ScatterPlotTest, RenderMarksSelection) {
  auto db = MakeDb();
  QueryResult r = RunAvgQuery(*db);
  ScatterPlot plot = *ScatterPlot::FromResult(r, "a");
  plot.BrushY(20.0, 100.0);
  const std::string s = plot.Render(40, 10);
  EXPECT_NE(s.find('#'), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);
  EXPECT_NE(s.find("a ("), std::string::npos);  // y-axis label
}

TEST(ScatterPlotTest, RenderHandlesDegenerateRanges) {
  Table t(Schema{{"g", DataType::kInt64}, {"v", DataType::kDouble}}, "w");
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{0}), Value(5.0)}));
  QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS a FROM w GROUP BY g"), t);
  ScatterPlot plot = *ScatterPlot::FromResult(r, "a");
  EXPECT_FALSE(plot.Render().empty());  // single point, zero extent
}

// ---------- dashboard ----------

TEST(DashboardTest, QueryFormShowsSqlAndCleaningState) {
  Session session(MakeDb());
  Dashboard dash(&session);
  EXPECT_NE(dash.RenderQueryForm().find("(no query)"), std::string::npos);
  ASSERT_TRUE(
      session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
  EXPECT_NE(dash.RenderQueryForm().find("SELECT g, avg(v) AS a FROM w"),
            std::string::npos);
  ASSERT_TRUE(session
                  .ApplyPredicateDirect(Predicate(
                      {Clause::Make("tag", CompareOp::kEq, Value("bad"))}))
                  .ok());
  const std::string form = dash.RenderQueryForm();
  EXPECT_NE(form.find("cleaning predicates applied"), std::string::npos);
  EXPECT_NE(form.find("tag = 'bad'"), std::string::npos);
}

TEST(DashboardTest, ErrorFormsListSuggestions) {
  Session session(MakeDb());
  ASSERT_TRUE(
      session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
  ASSERT_TRUE(session.SelectResultsInRange("a", 20.0, 100.0).ok());
  Dashboard dash(&session);
  const std::string forms = *dash.RenderErrorForms();
  EXPECT_NE(forms.find("[0] values are too high"), std::string::npos);
  EXPECT_NE(forms.find("default expected"), std::string::npos);
}

TEST(DashboardTest, RankedPredicatesRenderAfterDebug) {
  Session session(MakeDb());
  ASSERT_TRUE(
      session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
  Dashboard dash(&session);
  EXPECT_NE(dash.RenderRankedPredicates().find("click debug! first"),
            std::string::npos);
  ASSERT_TRUE(session.SelectResultsInRange("a", 20.0, 100.0).ok());
  ASSERT_TRUE(session.SetMetric(TooHigh(12.0)).ok());
  ASSERT_TRUE(session.Debug().ok());
  const std::string list = dash.RenderRankedPredicates();
  EXPECT_NE(list.find("tag = 'bad'"), std::string::npos);
  EXPECT_NE(list.find("score="), std::string::npos);
  EXPECT_NE(list.find("err_improvement="), std::string::npos);
}

TEST(DashboardTest, ProfilePanelRendersAfterDebug) {
  Session session(MakeDb());
  ASSERT_TRUE(
      session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
  Dashboard dash(&session);
  EXPECT_NE(dash.RenderProfile().find("click debug! first"),
            std::string::npos);
  ASSERT_TRUE(session.SelectResultsInRange("a", 20.0, 100.0).ok());
  ASSERT_TRUE(session.SetMetric(TooHigh(12.0)).ok());
  ASSERT_TRUE(session.Debug().ok());
  const std::string panel = dash.RenderProfile();
  EXPECT_NE(panel.find("=== Profile ==="), std::string::npos);
  for (const char* stage : {"preprocess", "enumerate", "predicates",
                            "materialize", "score", "rank", "total"}) {
    EXPECT_NE(panel.find(stage), std::string::npos) << stage;
  }
  EXPECT_NE(panel.find("pool:"), std::string::npos);
  // Ranking built a match engine, so its cache line shows.
  EXPECT_NE(panel.find("match cache:"), std::string::npos);
  // A complete run never renders the PARTIAL marker.
  EXPECT_EQ(panel.find("PARTIAL"), std::string::npos);
}

TEST(DashboardTest, RenderAllComposes) {
  Session session(MakeDb());
  ASSERT_TRUE(
      session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
  Dashboard dash(&session);
  const std::string all = *dash.RenderAll();
  EXPECT_NE(all.find("=== Query ==="), std::string::npos);
  EXPECT_NE(all.find("=== Visualization ==="), std::string::npos);
  EXPECT_NE(all.find("=== Ranked predicates ==="), std::string::npos);
}

}  // namespace
}  // namespace dbwipes
