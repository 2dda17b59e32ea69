#include "dbwipes/core/preprocessor.h"

#include <algorithm>

#include "dbwipes/common/stats.h"
#include "dbwipes/core/removal.h"
#include "dbwipes/provenance/influence.h"

namespace dbwipes {

Result<PreprocessResult> Preprocessor::Run(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
    size_t agg_index, bool per_group) {
  DBW_RETURN_NOT_OK(result.lineage.CheckCaptured());
  PreprocessResult out;
  out.suspect_inputs = result.lineage.BackwardUnion(selected_groups);

  InfluenceOptions opts;
  opts.agg_index = agg_index;
  opts.per_group = per_group;
  const ErrorFn fn = metric.AsErrorFn();
  DBW_ASSIGN_OR_RETURN(out.baseline_error,
                       SelectionError(result, selected_groups, fn, opts));
  {
    std::vector<double> values;
    values.reserve(selected_groups.size());
    for (size_t g : selected_groups) {
      values.push_back(result.AggValue(g, agg_index));
    }
    out.per_group_baseline_error = PerGroupError(metric, values);
  }
  DBW_ASSIGN_OR_RETURN(
      out.influences,
      LeaveOneOutInfluence(table, result, selected_groups, fn, opts));
  return out;
}

std::vector<RowId> TopInfluenceRows(const PreprocessResult& preprocess,
                                    double quantile) {
  std::vector<double> positive;
  for (const TupleInfluence& ti : preprocess.influences) {
    if (ti.influence > 0.0) positive.push_back(ti.influence);
  }
  std::vector<RowId> out;
  if (positive.empty()) return out;
  const double cutoff = Quantile(positive, quantile);
  for (const TupleInfluence& ti : preprocess.influences) {
    if (ti.influence > 0.0 && ti.influence >= cutoff) out.push_back(ti.row);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dbwipes
