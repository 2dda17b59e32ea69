#include "dbwipes/core/removal.h"

#include <algorithm>

#include "dbwipes/query/aggregate.h"

namespace dbwipes {

Result<std::vector<double>> ValuesAfterRemoval(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, size_t agg_index,
    const std::vector<RowId>& removed_sorted) {
  DBW_RETURN_NOT_OK(result.lineage.CheckCaptured());
  if (agg_index >= result.query.aggregates.size()) {
    return Status::OutOfRange("agg_index out of range");
  }
  // The binary search below silently skips nothing-or-everything on an
  // unsorted vector, so an unsorted caller would get wrong values, not
  // a crash — validate up front. The check is O(|removed|), dwarfed by
  // the per-lineage argument evaluation this function performs.
  if (!std::is_sorted(removed_sorted.begin(), removed_sorted.end())) {
    return Status::InvalidArgument(
        "ValuesAfterRemoval: removed row ids must be sorted ascending");
  }
  const AggSpec& spec = result.query.aggregates[agg_index];

  std::vector<double> values;
  values.reserve(selected_groups.size());
  for (size_t g : selected_groups) {
    if (g >= result.num_groups()) {
      return Status::OutOfRange("selected group out of range");
    }
    AggregatorPtr agg = MakeAggregator(spec.kind);
    for (RowId r : result.lineage[g]) {
      if (std::binary_search(removed_sorted.begin(), removed_sorted.end(),
                             r)) {
        continue;
      }
      if (!spec.argument) {
        agg->Add(0.0);  // count(*)
        continue;
      }
      DBW_ASSIGN_OR_RETURN(Value v, spec.argument->Eval(table, r));
      if (v.is_null()) continue;
      DBW_ASSIGN_OR_RETURN(double d, v.AsDouble());
      agg->Add(d);
    }
    values.push_back(agg->Value());
  }
  return values;
}

double PerGroupError(const ErrorMetric& metric,
                     const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> single(1);
  double total = 0.0;
  for (double v : values) {
    single[0] = v;
    total += metric.Error(single);
  }
  return total / static_cast<double>(values.size());
}

Result<double> PerGroupErrorAfterRemoval(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
    size_t agg_index, const std::vector<RowId>& removed_sorted) {
  DBW_ASSIGN_OR_RETURN(
      std::vector<double> values,
      ValuesAfterRemoval(table, result, selected_groups, agg_index,
                         removed_sorted));
  return PerGroupError(metric, values);
}

Result<double> ErrorAfterRemoval(const Table& table, const QueryResult& result,
                                 const std::vector<size_t>& selected_groups,
                                 const ErrorMetric& metric, size_t agg_index,
                                 const std::vector<RowId>& removed_sorted) {
  DBW_ASSIGN_OR_RETURN(
      std::vector<double> values,
      ValuesAfterRemoval(table, result, selected_groups, agg_index,
                         removed_sorted));
  return metric.Error(values);
}

}  // namespace dbwipes
