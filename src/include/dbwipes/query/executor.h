#ifndef DBWIPES_QUERY_EXECUTOR_H_
#define DBWIPES_QUERY_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "dbwipes/expr/ast.h"
#include "dbwipes/storage/table.h"

namespace dbwipes {

/// \brief Result of one aggregate query, with fine-grained lineage.
///
/// Each result row corresponds to one group. `lineage[i]` holds the
/// base-table RowIds that contributed to group i (i.e. survived the
/// WHERE filter and hashed into that group) — the fine-grained
/// provenance that backward tracing and the DBWipes Preprocessor
/// consume.
struct QueryResult {
  /// The executed query (after any cleaning rewrites).
  AggregateQuery query;
  /// Result rows: group-by columns first, then one column per
  /// aggregate (count -> int64, others -> double; NULL when the group
  /// had no valid input, e.g. stddev of one value).
  std::shared_ptr<Table> rows;
  /// lineage[i] = sorted base-table RowIds feeding result row i.
  std::vector<std::vector<RowId>> lineage;
  /// Version stamp, set when Database::Execute captures lineage: the
  /// table object the query read and that table's row count. Tables
  /// only grow, so while the catalog still holds `source` under the
  /// query's table name at `source_rows` rows, `lineage` describes it
  /// exactly (DBWipes::IsCurrent).
  std::weak_ptr<const Table> source;
  size_t source_rows = 0;

  size_t num_groups() const { return rows ? rows->num_rows() : 0; }

  /// Index of aggregate `output_name` within the result schema, or
  /// NotFound. (Group-by columns come first.)
  Result<size_t> AggColumnIndex(const std::string& output_name) const;

  /// Numeric value of aggregate column `agg_idx` (0-based among the
  /// aggregates) for group `group`; NaN encodes NULL.
  double AggValue(size_t group, size_t agg_idx) const;

  /// Group-key values for result row `group`.
  std::vector<Value> GroupKey(size_t group) const;
};

/// \brief Executes single-block aggregate queries over one table.
///
/// Deterministic output: groups are sorted ascending by key. Lineage
/// capture can be disabled for benchmarking the raw engine.
struct ExecOptions {
  bool capture_lineage = true;
};

/// Runs `query` against `table` (which must be the query's FROM
/// table). Validates the query against the table schema first.
Result<QueryResult> ExecuteQuery(const AggregateQuery& query,
                                 const Table& table,
                                 const ExecOptions& options = {});

/// Folds `rows` of `table`, in this order, into `out[i]` for each
/// `query.aggregates[i]`: the fold ExecuteQuery gives one group (typed
/// column arrays for plain numeric arguments, ScalarExpr::Eval for the
/// rest, NULL arguments skipped) and its result cells (NaN -> NULL,
/// count -> int64). IncrementalClean re-aggregates a cleaned group
/// through it.
Status AggregateRows(const AggregateQuery& query, const Table& table,
                     const std::vector<RowId>& rows, Value* out);

}  // namespace dbwipes

#endif  // DBWIPES_QUERY_EXECUTOR_H_
