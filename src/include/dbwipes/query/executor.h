#ifndef DBWIPES_QUERY_EXECUTOR_H_
#define DBWIPES_QUERY_EXECUTOR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dbwipes/expr/ast.h"
#include "dbwipes/storage/table.h"

namespace dbwipes {

/// \brief Fine-grained lineage of a result, in one CSR (compressed
/// sparse row) array.
///
/// Group g's base-table rows are `rows[offsets[g], offsets[g + 1])`:
/// the rows that survived the WHERE filter and hashed into that
/// group, ascending. A result executed without lineage capture has no
/// offsets at all, so size() is 0 whatever its number of groups.
struct Lineage {
  /// One entry per group plus one, starting at 0; empty when lineage
  /// was not captured.
  std::vector<size_t> offsets;
  /// Every passing row, grouped by result row.
  std::vector<RowId> rows;

  /// Yields each group's slice in group order.
  struct Iterator {
    const Lineage* lineage;
    size_t group;
    std::span<const RowId> operator*() const { return (*lineage)[group]; }
    Iterator& operator++() {
      ++group;
      return *this;
    }
    bool operator==(const Iterator&) const = default;
  };

  /// Number of groups traced; 0 without lineage.
  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  bool captured() const { return !offsets.empty(); }
  /// OK if captured; otherwise the InvalidArgument that every reader
  /// of a group's lineage returns.
  Status CheckCaptured() const;

  /// Base rows feeding group `group`, ascending.
  std::span<const RowId> operator[](size_t group) const {
    return {rows.data() + offsets[group], offsets[group + 1] - offsets[group]};
  }
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size()}; }

  /// Backward trace of several groups (S -> F): the union of their
  /// rows, sorted and deduplicated.
  std::vector<RowId> BackwardUnion(const std::vector<size_t>& groups) const;

  bool operator==(const Lineage&) const = default;
};

/// \brief Result of one aggregate query, with fine-grained lineage.
///
/// Each result row corresponds to one group; `lineage[i]` holds the
/// base-table RowIds that fed group i — the provenance that backward
/// tracing, the DBWipes Preprocessor and IncrementalClean consume.
struct QueryResult {
  /// The executed query (after any cleaning rewrites).
  AggregateQuery query;
  /// Result rows: group-by columns first, then one column per
  /// aggregate (count -> int64, others -> double; NULL when the group
  /// had no valid input, e.g. stddev of one value).
  std::shared_ptr<Table> rows;
  /// lineage[i] = sorted base-table RowIds feeding result row i.
  Lineage lineage;
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
/// rest, NULL arguments skipped), with the same first error, and its
/// result cells (NaN -> NULL, count -> int64). IncrementalClean
/// re-aggregates a cleaned group through it.
Status AggregateRows(const AggregateQuery& query, const Table& table,
                     std::span<const RowId> rows, Value* out);

}  // namespace dbwipes

#endif  // DBWIPES_QUERY_EXECUTOR_H_
