// Interactive DBWipes dashboard in the terminal: the demo experience
// (query -> plot -> brush -> zoom -> debug -> clean) driven by typed
// commands instead of mouse gestures.
//
// Datasets 'readings' (Intel sensors) and 'donations' (FEC) are
// preloaded. Try:
//   sql SELECT avg(temp) AS t FROM readings GROUP BY window
//   plot t
//   brush t 30 1000
//   zoom
//   inputs temp > 100
//   metric 0
//   debug
//   clean 0
//   plot t

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "dbwipes/common/string_util.h"
#include "dbwipes/core/export.h"
#include "dbwipes/core/session.h"
#include "dbwipes/datagen/fec_generator.h"
#include "dbwipes/datagen/intel_generator.h"
#include "dbwipes/viz/dashboard.h"
#include "dbwipes/viz/histogram.h"
#include "dbwipes/viz/scatterplot.h"

using namespace dbwipes;  // NOLINT — example brevity

namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  tables                      list loaded tables\n"
      "  sql <query>                 run an aggregate query\n"
      "  show                        print the current result rows\n"
      "  plot <agg> [x-col]          ASCII scatterplot of an aggregate\n"
      "  brush <agg> <lo> <hi>       select groups with agg in [lo,hi]\n"
      "  zoom                        show tuples behind the selection\n"
      "  inputs <filter>             select suspicious inputs, e.g. temp > 100\n"
      "  metrics                     list suggested error metrics\n"
      "  metric <i> [expected]       choose metric i\n"
      "  debug                       compute ranked predicates\n"
      "  clean <i>                   apply ranked predicate i\n"
      "  undo                        remove the last cleaning predicate\n"
      "  reset                       drop all cleaning predicates\n"
      "  hist <column>               histogram of a base-table column over\n"
      "                              the zoomed tuples (or all rows)\n"
      "  pca                         PC1-vs-PC2 plot of a multi-attribute\n"
      "                              group-by\n"
      "  json                        dump the last explanation as JSON\n"
      "  profile                     per-stage latency breakdown of the\n"
      "                              last debug run\n"
      "  plan                        show coarse-grained provenance\n"
      "  state                       render the whole dashboard\n"
      "  quit\n");
}

}  // namespace

int main() {
  auto db = std::make_shared<Database>();
  {
    IntelOptions intel;
    intel.duration_days = 4;
    intel.reading_interval_minutes = 10.0;
    db->RegisterTable(GenerateIntelDataset(intel).ValueOrDie().table);
    db->RegisterTable(GenerateFecDataset().ValueOrDie().table);
  }
  Session session(db);
  Dashboard dashboard(&session);
  std::vector<MetricSuggestion> metrics;

  std::printf("DBWipes REPL — type 'help' for commands\n");
  std::string line;
  while (std::printf("dbwipes> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;

    auto report = [](const Status& s) {
      if (!s.ok()) std::printf("error: %s\n", s.ToString().c_str());
    };

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "tables") {
      for (const std::string& t : db->TableNames()) {
        std::printf("  %s (%zu rows)\n", t.c_str(),
                    db->GetTable(t).ValueOrDie()->num_rows());
      }
    } else if (cmd == "sql") {
      std::string sql;
      std::getline(in, sql);
      report(session.ExecuteSql(sql));
      if (session.has_result()) {
        std::printf("%zu groups\n", session.result().num_groups());
      }
    } else if (cmd == "show") {
      if (session.has_result()) {
        std::printf("%s", session.result().rows->ToString(20).c_str());
      } else {
        std::printf("no result\n");
      }
    } else if (cmd == "plot") {
      std::string agg, xcol;
      in >> agg >> xcol;
      if (!session.has_result()) {
        std::printf("no result\n");
        continue;
      }
      auto plot = ScatterPlot::FromResult(session.result(), agg, xcol);
      if (!plot.ok()) {
        report(plot.status());
        continue;
      }
      for (size_t g : session.selected_groups()) {
        plot->Brush(plot->points()[g].x, plot->points()[g].x,
                    plot->points()[g].y, plot->points()[g].y);
      }
      std::printf("%s", plot->Render().c_str());
    } else if (cmd == "brush") {
      std::string agg;
      double lo, hi;
      if (in >> agg >> lo >> hi) {
        report(session.SelectResultsInRange(agg, lo, hi));
        std::printf("%zu groups selected\n",
                    session.selected_groups().size());
      } else {
        std::printf("usage: brush <agg> <lo> <hi>\n");
      }
    } else if (cmd == "zoom") {
      auto zoomed = session.Zoom();
      if (zoomed.ok()) {
        std::printf("%s", zoomed->ToString(15).c_str());
      } else {
        report(zoomed.status());
      }
    } else if (cmd == "inputs") {
      std::string filter;
      std::getline(in, filter);
      report(session.SelectInputsWhere(filter));
      std::printf("%zu inputs selected\n", session.selected_inputs().size());
    } else if (cmd == "metrics") {
      auto suggested = session.SuggestErrorMetrics();
      if (!suggested.ok()) {
        report(suggested.status());
        continue;
      }
      metrics = *suggested;
      for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("  [%zu] %s (default expected %s)\n", i,
                    metrics[i].label.c_str(),
                    FormatDouble(metrics[i].default_expected, 4).c_str());
      }
    } else if (cmd == "metric") {
      size_t idx;
      if (!(in >> idx)) {
        std::printf("usage: metric <i> [expected]\n");
        continue;
      }
      if (metrics.empty()) {
        auto suggested = session.SuggestErrorMetrics();
        if (!suggested.ok()) {
          report(suggested.status());
          continue;
        }
        metrics = *suggested;
      }
      if (idx >= metrics.size()) {
        std::printf("no metric %zu\n", idx);
        continue;
      }
      double expected = metrics[idx].default_expected;
      in >> expected;
      report(session.SetMetric(metrics[idx].make(expected)));
      std::printf("metric set: %s\n",
                  metrics[idx].make(expected)->Describe().c_str());
    } else if (cmd == "debug") {
      auto exp = session.Debug();
      if (!exp.ok()) {
        report(exp.status());
        continue;
      }
      std::printf("%s", dashboard.RenderRankedPredicates().c_str());
      std::printf("(%.0f ms total)\n", exp->profile.total_ms);
    } else if (cmd == "clean") {
      size_t idx;
      if (in >> idx) {
        report(session.ApplyPredicate(idx));
        std::printf("query: %s\n", session.CurrentSql().c_str());
      } else {
        std::printf("usage: clean <i>\n");
      }
    } else if (cmd == "undo") {
      report(session.UndoLastPredicate());
      if (session.has_result()) {
        std::printf("query: %s\n", session.CurrentSql().c_str());
      }
    } else if (cmd == "reset") {
      report(session.ResetCleaning());
    } else if (cmd == "hist") {
      std::string column;
      in >> column;
      if (!session.has_result()) {
        std::printf("no result\n");
        continue;
      }
      auto base = db->GetTable(session.result().query.table_name);
      if (!base.ok()) {
        report(base.status());
        continue;
      }
      // Over the zoomed tuples when a selection exists, else all rows.
      std::vector<RowId> rows;
      if (!session.selected_groups().empty()) {
        auto zoomed = session.Zoom();
        if (zoomed.ok()) {
          const Column& ids = zoomed->column(0);
          for (RowId r = 0; r < zoomed->num_rows(); ++r) {
            rows.push_back(static_cast<RowId>(ids.GetInt64(r)));
          }
        }
      }
      auto hist = Histogram::FromColumn(**base, column, rows);
      if (hist.ok()) {
        std::printf("%s", hist->Render().c_str());
      } else {
        report(hist.status());
      }
    } else if (cmd == "pca") {
      if (!session.has_result()) {
        std::printf("no result\n");
        continue;
      }
      auto plot = ScatterPlot::FromResultPca(session.result());
      if (plot.ok()) {
        std::printf("%s", plot->Render().c_str());
      } else {
        report(plot.status());
      }
    } else if (cmd == "json") {
      if (session.has_explanation()) {
        std::printf("%s", ExplanationToJson(session.explanation()).c_str());
      } else {
        std::printf("run debug first\n");
      }
    } else if (cmd == "profile") {
      std::printf("%s", dashboard.RenderProfile().c_str());
    } else if (cmd == "plan") {
      auto plan = session.DescribePlan();
      if (plan.ok()) {
        std::printf("%s", plan->c_str());
      } else {
        report(plan.status());
      }
    } else if (cmd == "state") {
      auto all = dashboard.RenderAll();
      if (all.ok()) {
        std::printf("%s", all->c_str());
      } else {
        report(all.status());
      }
    } else {
      std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
    }
  }
  return 0;
}
