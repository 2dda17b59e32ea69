#ifndef DBWIPES_LEARN_SUBGROUP_H_
#define DBWIPES_LEARN_SUBGROUP_H_

#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/expr/predicate.h"
#include "dbwipes/learn/feature.h"

namespace dbwipes {

/// Options for CN2-SD-style subgroup discovery (Lavrac et al., JMLR
/// 2004 — reference [4] of the paper).
struct SubgroupOptions {
  /// Rules kept per beam-search level.
  size_t beam_width = 8;
  /// Maximum clauses per subgroup description.
  size_t max_clauses = 3;
  /// Subgroups to return (one per weighted-covering round).
  size_t num_rules = 5;
  /// Candidate thresholds per numeric feature (taken at quantiles).
  size_t max_numeric_thresholds = 8;
  /// One-vs-rest candidates per categorical feature (most frequent).
  size_t max_categories_per_feature = 32;
  /// Multiplicative weight decay applied to covered positive examples
  /// after each round (CN2-SD weighted covering).
  double gamma = 0.5;
  /// Minimum (unweighted) rows a subgroup must cover.
  size_t min_coverage = 2;
};

/// \brief One discovered subgroup: a compact description of a region
/// dense in positive examples.
struct Subgroup {
  Predicate predicate;
  /// Weighted relative accuracy at the time of selection.
  double wracc = 0.0;
  /// Unweighted counts over the training rows.
  size_t coverage = 0;
  size_t positives = 0;
  /// Positions (in the snapshot searched) the subgroup covers.
  std::vector<size_t> covered;
};

/// Finds up to options.num_rules subgroups of the positive class
/// (label 1) among the snapshot's rows, using beam search over
/// conjunctions of attribute conditions scored by WRAcc with CN2-SD
/// weighted covering for diversity. Initial per-example weights may be supplied (e.g.
/// influence-derived); pass empty for uniform.
///
/// DBWipes uses this as the Dataset Enumerator's extension step: the
/// positive class marks high-influence / user-selected tuples, and
/// each subgroup (its covered row set) becomes one candidate D*.
/// Labels and weights align with the snapshot's positions, and
/// Subgroup::covered holds those positions.
///
/// A candidate's two WRAcc weight sums add its covered rows' weights
/// in ascending row order. At the AVX2 tier, a covering round whose
/// weights are all non-negative multiples of some 2^-E, with a total
/// below 2^53 * 2^-E, computes them from popcounts of the weights' bit
/// planes instead: every partial sum is then exact, so the bits are
/// the same. Unit weights with a gamma of 0.5 always qualify.
///
/// `ctx` is checked before the conditions are built and before every
/// beam level; once it asks to stop, the call returns its interrupt
/// Status instead of subgroups.
Result<std::vector<Subgroup>> DiscoverSubgroups(
    const FeatureColumns& columns, const std::vector<int>& labels,
    const std::vector<double>& init_weights,
    const SubgroupOptions& options = {},
    const ExecContext& ctx = ExecContext::None());

/// \brief The atomic conditions over one feature of a snapshot, in
/// the order a search meets them.
struct AtomicConditions {
  /// `name = category` for each of `ranks`, or `name <= t` then
  /// `name > t` for each of `cuts`.
  std::vector<Clause> clauses;
  /// Categorical: ranks into columns.categories(f), most frequent
  /// first.
  std::vector<int32_t> ranks;
  /// Numeric: the cuts, ascending.
  std::vector<double> cuts;
};

/// The atomic conditions that subgroup discovery and the exhaustive
/// baseline search over feature f: for a categorical feature, its
/// `max_categories` most frequent categories (ties in an order fixed by
/// the order the categories are first met in); for a numeric feature,
/// up to `max_thresholds` midpoints between adjacent distinct values at
/// evenly spaced quantiles. NULL and NaN values take no part.
AtomicConditions ChooseAtomicConditions(const FeatureColumns& columns,
                                        size_t f, size_t max_categories,
                                        size_t max_thresholds);

}  // namespace dbwipes

#endif  // DBWIPES_LEARN_SUBGROUP_H_
