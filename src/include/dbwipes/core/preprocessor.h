#ifndef DBWIPES_CORE_PREPROCESSOR_H_
#define DBWIPES_CORE_PREPROCESSOR_H_

#include <vector>

#include "dbwipes/core/error_metric.h"
#include "dbwipes/provenance/influence.h"

namespace dbwipes {

/// \brief Output of the Preprocessor stage (paper §2.2.2).
struct PreprocessResult {
  /// F: all input tuples feeding the suspicious results S (sorted).
  std::vector<RowId> suspect_inputs;
  /// Leave-one-out influence of every tuple in F, descending.
  std::vector<TupleInfluence> influences;
  /// eps(S) before any cleaning (the user's raw metric).
  double baseline_error = 0.0;
  /// Mean per-group error before cleaning (the search's smoother
  /// internal objective; see PerGroupError in removal.h).
  double per_group_baseline_error = 0.0;
};

/// The rows of F with a positive influence at or above the `quantile`
/// of the positive influences, ascending: the top-influence candidate,
/// and the ranker's accuracy reference when the user gave no examples.
/// The quantile is taken over the positive influences only: with a
/// max-style metric only the worst group's tuples have any influence,
/// so a quantile over all of F would be stuck at zero.
std::vector<RowId> TopInfluenceRows(const PreprocessResult& preprocess,
                                    double quantile);

/// \brief First backend stage: compute F = lineage(S) and rank each
/// tuple by how much it influences the error metric.
class Preprocessor {
 public:
  /// `selected_groups` indexes result rows (S); `agg_index` selects
  /// which aggregate of the query the metric reads. `per_group`
  /// chooses the influence mode (see InfluenceOptions::per_group).
  static Result<PreprocessResult> Run(
      const Table& table, const QueryResult& result,
      const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
      size_t agg_index = 0, bool per_group = true);
};

}  // namespace dbwipes

#endif  // DBWIPES_CORE_PREPROCESSOR_H_
