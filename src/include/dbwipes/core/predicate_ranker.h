#ifndef DBWIPES_CORE_PREDICATE_RANKER_H_
#define DBWIPES_CORE_PREDICATE_RANKER_H_

#include <string>
#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/core/predicate_enumerator.h"
#include "dbwipes/core/profile.h"
#include "dbwipes/core/removal.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {

/// \brief A scored predicate, ready for the dashboard's ranked list
/// (Figure 6).
struct RankedPredicate {
  Predicate predicate;
  /// Combined score (higher is better).
  double score = 0.0;
  /// Relative reduction of the per-group mean error when tuples
  /// matching the predicate are removed, clamped to [0, 1]. (The
  /// per-group mean is used rather than the raw metric so that a
  /// max-style eps still rewards partial repairs; see PerGroupError.)
  double error_improvement = 0.0;
  /// Agreement with the user's (cleaned) example tuples within F.
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  /// Tuples of F the predicate matches.
  size_t matched_in_suspects = 0;
  /// eps after cleaning with this predicate.
  double error_after = 0.0;
  /// Strategy that produced the predicate (diagnostics).
  std::string strategy;
};

struct RankerOptions {
  /// score = w_error * error_improvement + w_accuracy * F1
  ///         - w_complexity * clauses/max_clauses.
  double w_error = 0.6;
  double w_accuracy = 0.3;
  double w_complexity = 0.1;
  /// Clause count treated as "maximally complex".
  size_t max_clauses = 5;
  /// Ranked predicates returned.
  size_t top_k = 10;

  /// Which scoring engine Rank uses. Both produce identical orderings
  /// (a law checked by tests); the delta engine is the fast path.
  enum class Engine {
    /// Snapshot + Aggregator::Remove deltas (RemovalScorer), bitmap
    /// matching, and chunked multi-threaded scoring.
    kDeltaParallel,
    /// From-scratch per-predicate recomputation with boxed
    /// Clause::Matches per cell, single-threaded — the original
    /// implementation, kept as the differential-testing reference.
    kReferenceSerial,
  };
  Engine engine = Engine::kDeltaParallel;
  /// Scoring threads for the delta engine; 0 = DefaultParallelism(),
  /// 1 = single-threaded delta scoring. Output is identical at every
  /// thread count.
  size_t num_threads = 0;
};

/// \brief Result of an anytime ranking run.
///
/// A complete run has partial == false and scored_prefix ==
/// total_candidates. When the ExecContext interrupts the run
/// (cancellation or deadline), the ranker returns the best ranking
/// over a *deterministic* cut: the longest prefix of the input
/// predicate list whose fixed-size scoring blocks all completed.
/// Because the cut is a prefix of enumeration order, the partial
/// ranking equals a full run restricted to predicates[0,
/// scored_prefix) at any thread count — degraded, never wrong.
struct RankOutcome {
  std::vector<RankedPredicate> predicates;
  bool partial = false;
  /// Why the run stopped early ("" when complete), e.g. "Cancelled:
  /// user hit stop" or "Deadline exceeded: deadline expired".
  std::string reason;
  /// Input predicates the ranking considered (prefix length).
  size_t scored_prefix = 0;
  size_t total_candidates = 0;
  /// What the run measured, up to where it stopped (profile.h).
  RankStats stats;
};

/// \brief Final backend stage: score each enumerated predicate by
/// error-metric improvement, accuracy at matching the user's examples,
/// and description complexity (paper §2.1, sub-problem 3).
class PredicateRanker {
 public:
  explicit PredicateRanker(RankerOptions options = {})
      : options_(options) {}

  /// `suspects` is F (sorted, unique); `reference_positive` is the
  /// cleaned D' (accuracy ground truth within F, sorted); may be
  /// empty, in which case accuracy weight shifts to error improvement.
  /// `per_group_baseline` is
  /// PreprocessResult::per_group_baseline_error.
  ///
  /// With the delta engine, predicates are scored concurrently; the
  /// metric's Error() must therefore be safe to call from multiple
  /// threads (all built-in metrics are pure). Output order is
  /// deterministic: by score, ties broken by enumeration order,
  /// independent of the thread count.
  ///
  /// `shards` (optional) partitions the suspect universe by a
  /// ShardSet's boundaries: matching and materialization then run
  /// per shard against cached per-shard MatchEngines (warm bitmaps
  /// survive appends to other shards), per-shard partial scores are
  /// folded in ascending-offset order, and the final ranking is
  /// combined by the merger's CombinePartialRankings. Results are
  /// bit-identical to the unsharded run at every shard count — a law the
  /// equivalence suite checks. The caller must hold the set's
  /// ReadLease() across the call.
  Result<std::vector<RankedPredicate>> Rank(
      const Table& table, const QueryResult& result,
      const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
      size_t agg_index, const std::vector<RowId>& suspects,
      const std::vector<RowId>& reference_positive,
      double per_group_baseline,
      const std::vector<EnumeratedPredicate>& predicates,
      const ShardPlan* shards = nullptr) const;

  /// Anytime entry point: like Rank, but wound down cooperatively by
  /// `ctx` (token/deadline checked per predicate). Interrupts yield a
  /// partial RankOutcome instead of an error; real failures (bad
  /// predicates, injected faults) are still returned as error Status.
  /// Fault sites: "ranker/rank" at entry, "ranker/score" per scoring
  /// block. With `shards`, every outcome reports the set's shard count
  /// and the plan's skew, whichever engine ran and wherever it stopped.
  Result<RankOutcome> RankAnytime(
      const Table& table, const QueryResult& result,
      const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
      size_t agg_index, const std::vector<RowId>& suspects,
      const std::vector<RowId>& reference_positive,
      double per_group_baseline,
      const std::vector<EnumeratedPredicate>& predicates,
      const ExecContext& ctx, const ShardPlan* shards = nullptr) const;

  /// Predicates per scoring block — the anytime cut's granularity.
  /// Fixed (never derived from the thread count) so partial prefixes
  /// are comparable across machines.
  static constexpr size_t kScoreBlock = 32;

 private:
  Result<RankOutcome> RankDelta(
      const Table& table, const QueryResult& result,
      const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
      size_t agg_index, const std::vector<RowId>& suspects,
      const std::vector<RowId>& reference_positive,
      double per_group_baseline,
      const std::vector<EnumeratedPredicate>& predicates,
      const ExecContext& ctx, const ShardPlan* shards) const;

  Result<RankOutcome> RankReference(
      const Table& table, const QueryResult& result,
      const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
      size_t agg_index, const std::vector<RowId>& suspects,
      const std::vector<RowId>& reference_positive,
      double per_group_baseline,
      const std::vector<EnumeratedPredicate>& predicates,
      const ExecContext& ctx) const;

  RankerOptions options_;
};

}  // namespace dbwipes

#endif  // DBWIPES_CORE_PREDICATE_RANKER_H_
