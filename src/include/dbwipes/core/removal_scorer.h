#ifndef DBWIPES_CORE_REMOVAL_SCORER_H_
#define DBWIPES_CORE_REMOVAL_SCORER_H_

#include <vector>

#include "dbwipes/common/bitmap.h"
#include "dbwipes/common/exec_context.h"
#include "dbwipes/core/error_metric.h"
#include "dbwipes/query/aggregate.h"
#include "dbwipes/query/executor.h"

namespace dbwipes {

/// \brief Delta-based evaluation of "what do the selected groups'
/// aggregates become if this tuple set is removed?".
///
/// The naive path (removal.h) rebuilds every selected group's
/// aggregate from its full lineage per candidate — O(|lineage|)
/// argument evaluations and a binary search per tuple, repeated for
/// every one of hundreds of predicates. This class does the lineage
/// walk ONCE per Rank call: it snapshots each selected group's
/// Aggregator state and caches each suspect tuple's (group, argument
/// value) contribution. Scoring a candidate then clones only the
/// affected groups' aggregator state and calls Remove(v) per matched
/// tuple — the exact-removal primitive Aggregator already provides —
/// for O(|matched| + |affected groups|) work with zero expression
/// evaluations.
///
/// Exactness: count/sum/avg removal is a float subtraction (bitwise
/// results can differ from a fresh fold in the last ulps);
/// min/max/median removal is exact (multiset-backed); stddev/var use
/// Welford removal (same tolerance class as sum). Group values for
/// *unaffected* groups are byte-identical to the from-scratch path by
/// construction (the snapshot folds lineage in the same order).
///
/// Thread safety: all scoring methods are const and allocate only
/// call-local scratch, so one scorer may be shared by any number of
/// concurrent scoring threads (the parallel ranking engine does
/// exactly that).
class RemovalScorer {
 public:
  /// Snapshots aggregator state for `selected_groups` of `result` and
  /// caches the per-suspect contributions. `suspects` must be the
  /// union of the selected groups' lineage (F), strictly ascending (a
  /// list that is not is refused); tuples outside it cannot affect the
  /// selected groups and are ignored by the row-based scoring entry
  /// points. `ctx` lets the lineage walk stop cooperatively (checked
  /// per selected group); fault site "scorer/create".
  static Result<RemovalScorer> Create(
      const Table& table, const QueryResult& result,
      const std::vector<size_t>& selected_groups, size_t agg_index,
      const std::vector<RowId>& suspects,
      const ExecContext& ctx = ExecContext::None());

  size_t num_suspects() const { return entries_.size(); }
  size_t num_groups() const { return base_.size(); }

  /// Aggregate values of the selected groups after removing the
  /// suspects whose bit is set (bit i = suspects[i]); same value
  /// conventions as ValuesAfterRemoval (NaN = group lost its value).
  std::vector<double> ValuesAfterRemoval(const Bitmap& matched) const;

  /// Same, from an arbitrary RowId set (any order, duplicates not
  /// allowed); rows outside the suspect set are ignored — by
  /// definition they feed no selected group.
  std::vector<double> ValuesAfterRemovalRows(
      const std::vector<RowId>& rows) const;

  /// Per-group mean error (see PerGroupError) plus the raw metric in
  /// one pass, sharing the values vector.
  struct Errors {
    double raw = 0.0;        // eps over the group values
    double per_group = 0.0;  // mean of eps({v_g})
  };
  Errors ErrorsAfterRows(const ErrorMetric& metric,
                         const std::vector<RowId>& rows) const;

  /// Errors over a partitioned coverage: parts[p] bit i marks suspect
  /// index offsets[p] + i. Parts must be disjoint slices of the suspect
  /// universe with ascending offsets (the ranker's per-slice bitmaps),
  /// so walking them in order applies removals in ascending suspect
  /// index order, as ValuesAfterRemoval does for one bitmap — keeping
  /// the fold, and hence every last ulp of the result, identical at
  /// every shard count.
  Errors ErrorsAfterParts(const ErrorMetric& metric,
                          const std::vector<Bitmap>& parts,
                          const std::vector<size_t>& offsets) const;

 private:
  /// One suspect tuple's cached contribution.
  struct Entry {
    /// Index into the selected-group arrays; kNoGroup when the tuple
    /// contributes nothing removable (NULL argument value, or not in
    /// any selected group's lineage).
    uint32_t group = kNoGroup;
    /// Value passed to Aggregator::Remove (the evaluated argument, or
    /// 0.0 for count(*)).
    double value = 0.0;
  };
  static constexpr uint32_t kNoGroup = 0xFFFFFFFFu;

  RemovalScorer() = default;

  /// Applies the matched entries to lazily cloned per-group state and
  /// reads out the values.
  template <typename ForEachMatched>
  std::vector<double> ValuesImpl(const ForEachMatched& for_each) const;

  std::vector<AggregatorPtr> base_;   // snapshot per selected group
  std::vector<double> base_values_;   // base_[g]->Value(), cached
  std::vector<RowId> suspects_;       // F, ascending
  std::vector<Entry> entries_;        // per suspect index
};

}  // namespace dbwipes

#endif  // DBWIPES_CORE_REMOVAL_SCORER_H_
