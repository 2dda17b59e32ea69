#ifndef DBWIPES_LEARN_DECISION_TREE_H_
#define DBWIPES_LEARN_DECISION_TREE_H_

#include <string>
#include <vector>

#include "dbwipes/expr/predicate.h"
#include "dbwipes/learn/feature.h"

namespace dbwipes {

/// Split quality measure. The Predicate Enumerator fits one tree per
/// (candidate dataset x criterion x pruning config) — the paper's "m
/// standard splitting and pruning strategies (e.g., gini, gain ratio)".
enum class SplitCriterion { kGini, kGainRatio };

const char* SplitCriterionToString(SplitCriterion c);

struct DecisionTreeOptions {
  SplitCriterion criterion = SplitCriterion::kGini;
  /// Depth bound doubles as a predicate-complexity bound: a leaf at
  /// depth d yields a predicate with at most d clauses.
  size_t max_depth = 4;
  double min_samples_leaf = 1.0;
  double min_samples_split = 2.0;
  double min_impurity_decrease = 0.0;
  /// Cost-complexity post-pruning strength (0 = off).
  double ccp_alpha = 0.0;
  /// One-vs-rest candidates per categorical feature are limited to the
  /// most frequent categories.
  size_t max_categories_per_feature = 64;

  bool operator==(const DecisionTreeOptions&) const = default;
};

/// \brief Binary-classification decision tree over a snapshot of a
/// FeatureView.
///
/// Split conventions (which predicate extraction relies on):
///  - numeric feature: left branch = (x <= threshold); rows with NULL
///    or NaN in the split feature go right, in training as in
///    prediction.
///  - categorical feature: one-vs-rest, left branch = (x == category);
///    NULL goes right.
/// Every example weighs 1, so each class mass is an integer count.
class DecisionTree {
 public:
  struct Node {
    bool is_leaf = true;
    // Split description (when !is_leaf).
    size_t feature = 0;
    bool categorical = false;
    double threshold = 0.0;
    int32_t category = -1;
    int left = -1;
    int right = -1;
    // Examples of each class reaching the node.
    double n0 = 0.0;
    double n1 = 0.0;
    int depth = 0;

    double total() const { return n0 + n1; }
    double prob1() const { return total() > 0.0 ? n1 / total() : 0.0; }
  };

  /// Fits a tree on the snapshot's rows with binary labels, aligned
  /// with the snapshot's positions. Fits of one snapshot share its
  /// presort: no node sorts.
  static Result<DecisionTree> Fit(const FeatureColumns& columns,
                                  const std::vector<int>& labels,
                                  const DecisionTreeOptions& options = {});

  /// This tree cut at `max_depth`: nodes at that depth become leaves.
  /// Growth is greedy and max_depth only stops the recursion, so for
  /// ccp_alpha == 0 the result equals (node for node) a fit of the same
  /// problem and options with max_depth set to `max_depth`.
  DecisionTree Truncate(size_t max_depth) const;

  /// P(label = 1) at the leaf that position i of `columns` reaches.
  double PredictProba(const FeatureColumns& columns, size_t i) const;
  int Predict(const FeatureColumns& columns, size_t i) const {
    return PredictProba(columns, i) >= 0.5 ? 1 : 0;
  }

  const std::vector<Node>& nodes() const { return nodes_; }
  size_t num_leaves() const;
  size_t depth() const;

  /// Extracts one conjunctive Predicate per leaf whose positive-class
  /// probability is >= min_precision and which holds at least
  /// min_positive_weight positives. Each predicate is the conjunction of
  /// the split conditions along the root-to-leaf path, simplified.
  std::vector<Predicate> PositiveLeafPredicates(
      const FeatureView& view, double min_precision = 0.5,
      double min_positive_weight = 0.0) const;

  /// Indented multi-line rendering for debugging and the REPL.
  std::string ToString(const FeatureView& view) const;

 private:
  DecisionTree() = default;

  std::vector<Node> nodes_;
};

}  // namespace dbwipes

#endif  // DBWIPES_LEARN_DECISION_TREE_H_
