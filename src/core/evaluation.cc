#include "dbwipes/core/evaluation.h"

#include <algorithm>

#include "dbwipes/expr/bool_expr.h"

namespace dbwipes {

ExplanationQuality ScoreTupleSet(const std::vector<RowId>& predicted_sorted,
                                 const std::vector<RowId>& truth_sorted) {
  ExplanationQuality q;
  q.predicted = predicted_sorted.size();
  q.truth = truth_sorted.size();
  std::vector<RowId> common;
  std::set_intersection(predicted_sorted.begin(), predicted_sorted.end(),
                        truth_sorted.begin(), truth_sorted.end(),
                        std::back_inserter(common));
  q.intersection = common.size();
  if (q.predicted > 0) {
    q.precision = static_cast<double>(q.intersection) /
                  static_cast<double>(q.predicted);
  }
  if (q.truth > 0) {
    q.recall =
        static_cast<double>(q.intersection) / static_cast<double>(q.truth);
  }
  if (q.precision + q.recall > 0.0) {
    q.f1 = 2.0 * q.precision * q.recall / (q.precision + q.recall);
  }
  const size_t uni = q.predicted + q.truth - q.intersection;
  if (uni > 0) {
    q.jaccard = static_cast<double>(q.intersection) / static_cast<double>(uni);
  }
  return q;
}

Result<ExplanationQuality> ScorePredicate(
    const Table& table, const Predicate& predicate,
    const std::vector<RowId>& truth_sorted) {
  DBW_ASSIGN_OR_RETURN(const Bitmap matched,
                       FilterBitmap(*PredicateToBoolExpr(predicate), table,
                                    ScanUniverse::Range(0, table.num_rows())));
  std::vector<RowId> predicted;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (matched.Test(r)) predicted.push_back(r);
  }
  return ScoreTupleSet(predicted, truth_sorted);
}

}  // namespace dbwipes
