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
  DBW_RETURN_NOT_OK(result.lineage.CheckCaptured());

  // Match the cleaning predicate once over every traced row, with the
  // WHERE's clause scans: bit p answers lineage.rows[p], so a group's
  // matches are bit tests against its slice.
  const Lineage& lineage = result.lineage;
  DBW_ASSIGN_OR_RETURN(const Bitmap matched_bits,
                       FilterBitmap(*PredicateToBoolExpr(predicate), table,
                                    ScanUniverse::Of(lineage.rows)));

  const AggregateQuery& query = result.query;
  const size_t num_keys = query.group_by.size();
  const size_t num_aggs = query.aggregates.size();

  QueryResult out;
  out.query = query.WithCleaningPredicate(predicate);
  out.rows = std::make_shared<Table>(result.rows->schema(), "result");
  out.source = result.source;
  out.source_rows = result.source_rows;
  std::vector<RowId>& survivors = out.lineage.rows;
  survivors.reserve(lineage.rows.size());
  out.lineage.offsets.push_back(0);

  std::vector<Value> row(num_keys + num_aggs);
  for (size_t g = 0; g < result.num_groups(); ++g) {
    const size_t begin = lineage.offsets[g];
    const size_t end = lineage.offsets[g + 1];
    const size_t first = survivors.size();
    for (size_t p = begin; p < end; ++p) {
      if (!matched_bits.Test(p)) survivors.push_back(lineage.rows[p]);
    }
    const size_t kept = survivors.size() - first;
    if (kept == 0) continue;  // the whole group was cleaned away

    if (kept == end - begin) {
      // Untouched group: copy the result row verbatim.
      DBW_RETURN_NOT_OK(out.rows->AppendRow(result.rows->GetRow(
          static_cast<RowId>(g))));
    } else {
      for (size_t k = 0; k < num_keys; ++k) {
        row[k] = result.rows->GetValue(static_cast<RowId>(g), k);
      }
      // Re-aggregate the survivors in lineage (= scan) order with the
      // executor's fold, so every value is bit-identical to
      // re-execution's.
      DBW_RETURN_NOT_OK(AggregateRows(
          query, table, std::span<const RowId>(survivors).subspan(first),
          row.data() + num_keys));
      DBW_RETURN_NOT_OK(out.rows->AppendRow(row));
    }
    out.lineage.offsets.push_back(survivors.size());
  }
  return out;
}

}  // namespace dbwipes
