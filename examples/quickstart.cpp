// Quickstart: the whole DBWipes loop in ~60 lines.
//
// 1. Generate a small dataset with a planted anomaly.
// 2. Run an aggregate query and look at the groups.
// 3. Select the suspicious groups and an error metric.
// 4. Debug: get ranked predicates explaining the anomaly.
// 5. Clean: the query without tuples matching the best predicate,
//    deleted from the result's lineage.

#include <cstdio>

#include "dbwipes/core/session.h"
#include "dbwipes/datagen/synthetic.h"
#include "dbwipes/viz/dashboard.h"

using namespace dbwipes;  // NOLINT — example brevity

int main() {
  // A 20k-row table where rows matching (c0 = 'ANOM' AND a0 >= 2)
  // have their measure shifted up by 40.
  SyntheticOptions gen;
  gen.num_rows = 20000;
  gen.anomaly_selectivity = 0.03;
  LabeledDataset data = GenerateSyntheticDataset(gen).ValueOrDie();
  std::printf("planted anomaly: %s (%zu rows)\n\n",
              data.anomalies[0].description.ToString().c_str(),
              data.anomalies[0].rows.size());

  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);

  Session session(db);
  DBW_CHECK_OK(session.ExecuteSql(
      "SELECT avg(v) AS avg_v FROM synthetic GROUP BY g"));
  std::printf("query: %s\n", session.CurrentSql().c_str());
  std::printf("%s\n", session.result().rows->ToString(5).c_str());

  // Groups whose average exceeds 51 look wrong (baseline is 50).
  DBW_CHECK_OK(session.SelectResultsInRange("avg_v", 51.0, 1e9));
  std::printf("selected %zu suspicious groups\n",
              session.selected_groups().size());

  // Pick the first suggested metric ("values are too high") with its
  // data-derived default expectation.
  auto suggestions = session.SuggestErrorMetrics().ValueOrDie();
  std::printf("metric: %s (expected %.2f)\n", suggestions[0].label.c_str(),
              suggestions[0].default_expected);
  DBW_CHECK_OK(session.SetMetric(
      suggestions[0].make(suggestions[0].default_expected)));

  // Debug!
  Explanation exp = session.Debug().ValueOrDie();
  std::printf("\nbaseline error: %.3f\n", exp.preprocess.baseline_error);
  Dashboard dashboard(&session);
  std::printf("%s\n", dashboard.RenderRankedPredicates().c_str());

  // Clean with the top predicate and compare.
  const double before = session.result().AggValue(0, 0);
  DBW_CHECK_OK(session.ApplyPredicate(0));
  std::printf("after cleaning, query is:\n  %s\n",
              session.CurrentSql().c_str());
  std::printf("group 0 avg(v): %.2f -> %.2f\n", before,
              session.result().AggValue(0, 0));
  return 0;
}
