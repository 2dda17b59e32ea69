#ifndef DBWIPES_CORE_SESSION_H_
#define DBWIPES_CORE_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dbwipes/core/dbwipes.h"

namespace dbwipes {

/// \brief The frontend interaction loop (Figure 1, top): execute query
/// -> visualize -> select suspicious results S -> zoom -> select
/// suspicious inputs D' -> pick an error metric -> debug -> click a
/// predicate to clean -> repeat.
///
/// The Session enforces the loop's ordering (e.g. Debug() before any
/// selection is an error), which is what the demo's UI guarantees by
/// construction.
///
/// Cleaning never re-runs a combined `... AND NOT p1 AND NOT p2` query
/// here: each step goes through DBWipes::Clean, which deletes from the
/// current result's lineage (or re-executes when that result is
/// stale). The session holds two results — the uncleaned one and the
/// current one — however many predicates are applied, and a command
/// that fails leaves it unchanged.
class Session {
 public:
  explicit Session(std::shared_ptr<Database> db, ExplainOptions options = {})
      : engine_(std::move(db), std::move(options)) {}

  // --- Step 1: query ---

  /// Parses, validates, and executes `sql`; resets all selections and
  /// cleaning state. This is the "original" query the cleaning
  /// predicates accumulate onto. The only query the session executes.
  Status ExecuteSql(const std::string& sql);

  bool has_result() const { return result_ != nullptr; }
  const QueryResult& result() const;

  /// The query text as the dashboard's query form shows it: the
  /// original SQL plus every applied cleaning predicate.
  std::string CurrentSql() const;

  // --- Step 2: select suspicious results (S) ---

  /// Selects result rows by index (the brush's output).
  Status SelectResults(const std::vector<size_t>& groups);

  /// Selects result rows whose aggregate `agg_output_name` lies in
  /// [lo, hi] — the programmatic equivalent of a y-axis brush.
  Status SelectResultsInRange(const std::string& agg_output_name, double lo,
                              double hi);

  const std::vector<size_t>& selected_groups() const {
    return selected_groups_;
  }

  // --- Step 3: zoom to the raw tuples ---

  /// The tuples feeding the selected groups (Figure 4, right panel),
  /// with a leading `_rowid` column so the user's input selection can
  /// be mapped back to base-table rows.
  Result<Table> Zoom() const;

  // --- Step 4: select suspicious inputs (D') ---

  Status SelectInputs(const std::vector<RowId>& rows);

  /// Selects inputs among the zoomed tuples with a filter expression,
  /// e.g. "temp > 100" — the highlight-the-outliers gesture.
  Status SelectInputsWhere(const std::string& filter);

  const std::vector<RowId>& selected_inputs() const {
    return selected_inputs_;
  }

  // --- Step 5: error metric ---

  /// Metric choices for the current selection (Figure 5's forms),
  /// with data-derived defaults.
  Result<std::vector<MetricSuggestion>> SuggestErrorMetrics(
      size_t agg_index = 0) const;

  Status SetMetric(ErrorMetricPtr metric, size_t agg_index = 0);

  // --- Step 6: debug ---

  /// Runs the ranked-provenance backend. Requires a result, a
  /// non-empty S, and a metric. The `ctx` overload makes the run
  /// anytime: under a deadline or cancellation the explanation
  /// comes back flagged partial instead of blocking or erroring.
  Result<Explanation> Debug();
  Result<Explanation> Debug(const ExecContext& ctx);

  bool has_explanation() const { return explanation_.has_value(); }
  const Explanation& explanation() const;

  // --- Step 7: clean ---

  /// Applies ranked predicate `index` from the last explanation:
  /// appends AND NOT pred to the query, deletes its matches from the
  /// current result (DBWipes::Clean), clears the selections (the
  /// visualization "automatically updates").
  Status ApplyPredicate(size_t index);

  /// Applies an arbitrary predicate (e.g. hand-written).
  Status ApplyPredicateDirect(const Predicate& predicate);

  const std::vector<Predicate>& applied_predicates() const {
    return applied_predicates_;
  }

  /// Removes the most recently applied cleaning predicate — the
  /// dashboard's undo. Rebuilds from the uncleaned result by cleaning
  /// with the remaining predicates; the original query runs again only
  /// when that result is stale (rows appended since).
  Status UndoLastPredicate();

  /// Drops all cleaning predicates: back to the uncleaned result,
  /// re-running the original query only when that result is stale.
  Status ResetCleaning();

  /// The coarse-grained provenance view (for contrast, per the
  /// paper's introduction).
  Result<std::string> DescribePlan() const;

 private:
  /// Rebuilds the current result as the uncleaned one cleaned by
  /// `predicates`, and commits only if every step succeeds.
  Status Rebuild(std::vector<Predicate> predicates);
  /// Shows `result` as the current one; clears the selections.
  void Show(std::shared_ptr<const QueryResult> result);

  DBWipes engine_;
  /// The original query's result; its `query` is the original query.
  std::shared_ptr<const QueryResult> uncleaned_;
  /// `uncleaned_` cleaned by `applied_predicates_`, in order.
  std::shared_ptr<const QueryResult> result_;
  std::vector<size_t> selected_groups_;
  std::vector<RowId> selected_inputs_;
  ErrorMetricPtr metric_;
  size_t agg_index_ = 0;
  std::optional<Explanation> explanation_;
  std::vector<Predicate> applied_predicates_;
};

}  // namespace dbwipes

#endif  // DBWIPES_CORE_SESSION_H_
