#ifndef DBWIPES_CORE_PREDICATE_ENUMERATOR_H_
#define DBWIPES_CORE_PREDICATE_ENUMERATOR_H_

#include <string>
#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/core/dataset_enumerator.h"
#include "dbwipes/learn/decision_tree.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {

/// \brief A predicate together with the tree strategy and candidate
/// dataset that produced it.
struct EnumeratedPredicate {
  Predicate predicate;
  /// Index into the candidate-dataset list this predicate describes.
  size_t candidate_index = 0;
  /// e.g. "gini/d3" — which splitting/pruning strategy built the tree.
  std::string strategy;
};

struct PredicateEnumeratorOptions {
  /// The strategy matrix: one decision tree is fitted per (candidate
  /// dataset x strategy). Defaults to gini and gain-ratio at depths 3
  /// and 4 with light pruning — the paper's "m standard splitting and
  /// pruning strategies".
  std::vector<DecisionTreeOptions> strategies;

  /// Also emit, per candidate, a "bounding description": the
  /// conjunction of each attribute's value span over the candidate
  /// rows, keeping only attributes whose span is selective against the
  /// whole table. Trees need negative examples inside F; when a
  /// selection's lineage is (almost) entirely anomalous — e.g. groups
  /// are per-sensor and a whole sensor is broken — the bounding
  /// description is what produces the paper's
  /// "sensorid = 15 AND time in [...]"-shaped answers.
  bool add_bounding_predicates = true;

  static PredicateEnumeratorOptions Defaults();
};

/// \brief Third backend stage: for each candidate D*, label it
/// positive against F - D* and fit decision trees under several
/// strategies; root-to-positive-leaf paths become candidate predicates
/// (paper §2.2.2).
class PredicateEnumerator {
 public:
  explicit PredicateEnumerator(PredicateEnumeratorOptions options =
                                   PredicateEnumeratorOptions::Defaults())
      : options_(std::move(options)) {}

  /// `suspects` is F, ascending; `candidates` the Dataset Enumerator's
  /// output, whose rows are read within F.
  /// Returned predicates are deduplicated semantically. `ctx` is
  /// checked between tree fits (fault site "enumerate/predicates").
  ///
  /// `shards` (optional, caller holds the set's ReadLease): bounding-
  /// description selectivity sampling runs against per-shard engines
  /// over the shards' own tables instead of one fused scan; fractions
  /// are sums of per-shard counts, so emitted predicates are identical
  /// at every shard count.
  ///
  /// `columns` is the snapshot of F (FeatureView::Snapshot(suspects)):
  /// every tree fit shares it and its presort.
  Result<std::vector<EnumeratedPredicate>> Enumerate(
      const FeatureColumns& columns, const std::vector<RowId>& suspects,
      const std::vector<CandidateDataset>& candidates,
      const ExecContext& ctx = ExecContext::None(),
      const ShardPlan* shards = nullptr) const;

  /// Enumerate over view.Snapshot(suspects).
  Result<std::vector<EnumeratedPredicate>> Enumerate(
      const FeatureView& view, const std::vector<RowId>& suspects,
      const std::vector<CandidateDataset>& candidates,
      const ExecContext& ctx = ExecContext::None(),
      const ShardPlan* shards = nullptr) const;

 private:
  PredicateEnumeratorOptions options_;
};

}  // namespace dbwipes

#endif  // DBWIPES_CORE_PREDICATE_ENUMERATOR_H_
