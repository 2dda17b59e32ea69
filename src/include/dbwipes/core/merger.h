#ifndef DBWIPES_CORE_MERGER_H_
#define DBWIPES_CORE_MERGER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "dbwipes/core/predicate_ranker.h"

namespace dbwipes {

/// Options for the predicate-merging stage.
struct MergerOptions {
  /// Top predicates considered for pairwise merging.
  size_t max_inputs = 8;
  /// Merged predicates are kept only when their score is at least
  /// max(parents' scores) - tolerance.
  double score_tolerance = 0.02;
};

/// Attempts to generalize two conjunctive predicates into one:
/// both must constrain the same attribute set; numeric ranges widen to
/// the union's hull, equality/IN sets union, and any other clause kind
/// (!=, CONTAINS) must be identical on both sides. Returns nullopt
/// when the predicates are not mergeable.
///
/// This is the MERGER idea from Scorpion (the successor system this
/// demo paper previews): tree leaves fragment a single anomalous
/// region into slivers ("a0 in (2.0, 2.1]", "a0 in (2.1, 2.4]"), and
/// merging reassembles the human-sized description.
std::optional<Predicate> MergePredicates(const Predicate& a,
                                         const Predicate& b);

/// Combines partial rankings into one final ranking: stable-sorts by
/// score (ties keep input order), collapses entries whose removal sets
/// are equal — interchangeable repairs; only the best-scoring
/// description survives — and caps the result at `top_k`.
/// `set_hash`/`set_equal` describe entry i's matched tuple set in
/// whatever representation the caller scored with (a fused bitmap, a
/// vector of per-shard bitmap parts, a RowId list): hashes bucket, but
/// survival is decided by real set equality, so two distinct repairs
/// can never be collapsed by a hash collision.
///
/// This is the shard-merge contract's combiner: per-shard partial
/// scores arrive already folded into each entry, input order is
/// enumeration order, and the sort is stable — so the output is a
/// deterministic function of (scores, enumeration order) alone,
/// independent of shard count and thread count. Under an anytime cut
/// the caller passes the done-prefix only, and the combined ranking
/// equals a full run restricted to that prefix.
std::vector<RankedPredicate> CombinePartialRankings(
    std::vector<RankedPredicate>* scored,
    const std::function<uint64_t(size_t)>& set_hash,
    const std::function<bool(size_t, size_t)>& set_equal, size_t top_k);

/// Post-ranking pass: tries all pairs among the top ranked predicates,
/// scores every successful merge with the same ranker, and returns the
/// re-ranked union of originals and worthwhile merges. `ranked` must be
/// a PredicateRanker's output under `ranker_options` and these inputs:
/// when no pair merges it is returned as it is, without a re-rank.
/// `shards` (may be null) is forwarded to the re-ranking Rank call, so
/// a sharded explain's merge stage scores through the same warm
/// per-shard engines as the main ranking.
Result<std::vector<RankedPredicate>> MergeAndRerank(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
    size_t agg_index, const std::vector<RowId>& suspects,
    const std::vector<RowId>& reference_positive, double per_group_baseline,
    const std::vector<RankedPredicate>& ranked,
    const RankerOptions& ranker_options, const MergerOptions& options = {},
    const ShardPlan* shards = nullptr);

}  // namespace dbwipes

#endif  // DBWIPES_CORE_MERGER_H_
