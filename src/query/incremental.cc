#include "dbwipes/query/incremental.h"

#include "dbwipes/expr/bool_expr.h"

namespace dbwipes {

Result<QueryResult> IncrementalClean(const Table& table,
                                     const QueryResult& result,
                                     const Predicate& predicate) {
  if (!result.rows) return Status::InvalidArgument("empty query result");
  if (predicate.empty()) {
    return Status::InvalidArgument("cannot clean with an empty predicate");
  }
  // Lineage capture is a precondition; an all-empty lineage with a
  // non-empty result means it was disabled.
  bool any_lineage = false;
  for (const auto& rows : result.lineage) {
    if (!rows.empty()) {
      any_lineage = true;
      break;
    }
  }
  if (!any_lineage && result.num_groups() > 0) {
    return Status::InvalidArgument(
        "result was executed without lineage capture");
  }

  // Match the cleaning predicate once over the concatenation of every
  // group's lineage, with the WHERE's clause scans; a group's matches
  // are then bit tests against its slice.
  std::vector<RowId> universe;
  std::vector<size_t> group_offset(result.num_groups(), 0);
  for (size_t g = 0; g < result.num_groups(); ++g) {
    group_offset[g] = universe.size();
    universe.insert(universe.end(), result.lineage[g].begin(),
                    result.lineage[g].end());
  }
  DBW_ASSIGN_OR_RETURN(const Bitmap matched_bits,
                       FilterBitmap(*PredicateToBoolExpr(predicate), table,
                                    ScanUniverse::Of(universe)));

  const AggregateQuery& query = result.query;
  const size_t num_keys = query.group_by.size();
  const size_t num_aggs = query.aggregates.size();

  QueryResult out;
  out.query = query.WithCleaningPredicate(predicate);
  out.rows = std::make_shared<Table>(result.rows->schema(), "result");
  out.source = result.source;
  out.source_rows = result.source_rows;

  std::vector<Value> row(num_keys + num_aggs);
  for (size_t g = 0; g < result.num_groups(); ++g) {
    const std::vector<RowId>& lineage = result.lineage[g];
    const size_t base = group_offset[g];
    std::vector<RowId> survivors;
    survivors.reserve(lineage.size());
    for (size_t p = 0; p < lineage.size(); ++p) {
      if (!matched_bits.Test(base + p)) survivors.push_back(lineage[p]);
    }
    if (survivors.empty()) continue;  // the whole group was cleaned away

    if (survivors.size() == lineage.size()) {
      // Untouched group: copy the result row and lineage verbatim.
      DBW_RETURN_NOT_OK(out.rows->AppendRow(result.rows->GetRow(
          static_cast<RowId>(g))));
      out.lineage.push_back(lineage);
      continue;
    }

    for (size_t k = 0; k < num_keys; ++k) {
      row[k] = result.rows->GetValue(static_cast<RowId>(g), k);
    }
    // Re-aggregate the survivors in lineage (= scan) order with the
    // executor's fold, so every value is bit-identical to
    // re-execution's.
    DBW_RETURN_NOT_OK(
        AggregateRows(query, table, survivors, row.data() + num_keys));
    DBW_RETURN_NOT_OK(out.rows->AppendRow(row));
    out.lineage.push_back(std::move(survivors));
  }
  return out;
}

}  // namespace dbwipes
