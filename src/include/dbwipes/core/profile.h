#ifndef DBWIPES_CORE_PROFILE_H_
#define DBWIPES_CORE_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dbwipes {

/// \brief The ranking's part of the per-Explain profile: what one
/// PredicateRanker run measures. The ranker fills every field, and
/// ExplainProfile derives from it, so a run's stats are the record
/// Explain returns.
struct RankStats {
  /// MatchEngine::Materialize wall time, all slices.
  double materialize_ms = 0.0;
  /// Wall time of the scoring phase (all blocks).
  double score_ms = 0.0;

  // --- Scoring blocks (the anytime cut's granularity) ---
  size_t scoring_blocks_total = 0;
  /// Contiguous done-prefix of blocks (the anytime cut).
  size_t scoring_blocks_done = 0;
  /// Wall ms per scoring block, index-aligned with the candidate
  /// prefix; blocks past the anytime cut stay 0, so a partial ranking
  /// shows exactly where the deadline landed.
  std::vector<double> block_ms;

  // --- MatchEngine (vectorized matching) ---
  size_t clause_lookups = 0;  // == cache_hits + cache_misses
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t bitmaps_materialized = 0;

  /// SIMD tier the run dispatched to: "avx2", "scalar", or "" when
  /// no match engine was built.
  std::string simd_tier;

  // --- Shards (sharded tables only; num_shards == 0 otherwise) ---
  /// One lane per shard of the target ShardSet, in shard order.
  /// Counter fields are per-run deltas (reused engines accumulate
  /// across explains), so the hits + misses == lookups law holds per
  /// lane as well as for the totals above (which are the lane sums),
  /// and a shard untouched by appends re-ranks with cache_misses == 0.
  struct ShardLane {
    size_t shard_index = 0;
    size_t rows = 0;      // shard table rows at ranking time
    size_t suspects = 0;  // suspect-universe members the shard owns
    bool engine_reused = false;   // came out of the per-set cache warm
    double materialize_ms = 0.0;  // this shard's slice of Materialize
    size_t clause_lookups = 0;
    size_t cache_hits = 0;
    size_t cache_misses = 0;
    size_t bitmaps_materialized = 0;
    size_t cached_clauses = 0;  // clause bitmaps retained after the run
  };
  size_t num_shards = 0;
  /// Empty when the reference engine ranked or the run stopped before
  /// matching.
  std::vector<ShardLane> shards;
  /// Engines that came back warm from the per-set cache this run.
  size_t shard_engines_reused = 0;
  /// Suspect-distribution skew: max over shards of (shard suspects /
  /// mean suspects per shard); 1.0 = perfectly even, meaningless when
  /// num_shards == 0.
  double shard_skew = 0.0;
};

/// \brief Per-Explain telemetry summary, attached to every
/// Explanation.
///
/// Where the Tracer answers "what happened when" across the process,
/// the profile answers "where did THIS request's time go": per-stage
/// wall time, work counts per stage, MatchEngine cache behavior,
/// ThreadPool utilization over the run, and the anytime events
/// (cancellation / deadline) that cut it short. Collection is
/// always on — the fields are filled from measurements the pipeline
/// already takes (stage clocks, engine counters, pool counter deltas),
/// so there is no separate profiling mode to forget to enable. The
/// ranker fills the RankStats part; DBWipes::Explain fills the rest.
/// Serialized by ExplainProfileToJson (export.h) and surfaced by the
/// Service's `profile on` mode.
struct ExplainProfile : RankStats {
  /// Request id of the Service request that ran this explain (0 when
  /// the pipeline ran outside the Service). The same id appears in the
  /// JSON response, every trace span the request recorded, its log
  /// lines, and any WAL frames it wrote.
  uint64_t rid = 0;

  /// Attempts the Service made to produce this explanation: 1 plus the
  /// number of transient failures its retry policy recovered from.
  /// Always 1 outside the Service (the pipeline itself never retries).
  size_t attempts = 1;

  // --- Stage wall clock (ms); kStageClocks lists them, with the
  // ranker's materialize_ms and score_ms ---
  double preprocess_ms = 0.0;
  double enumerate_ms = 0.0;    // dataset enumeration incl. D' cleaning
  double predicates_ms = 0.0;   // predicate enumeration
  double rank_ms = 0.0;         // whole ranking stage (incl. merge)
  double total_ms = 0.0;

  // --- Work processed ---
  size_t table_rows = 0;
  size_t suspect_rows = 0;
  size_t candidate_datasets = 0;
  size_t predicates_enumerated = 0;
  size_t predicates_scored = 0;

  // --- ThreadPool utilization (deltas over this Explain) ---
  size_t pool_threads = 0;  // workers + the calling thread
  uint64_t pool_regions = 0;
  uint64_t pool_chunks = 0;
  double pool_busy_ms = 0.0;
  /// The pool's peak queue depth over its lifetime, not this Explain's.
  uint64_t pool_peak_queue_depth = 0;
  /// pool_busy_ms / (total_ms * pool_threads), clamped to [0, 1]:
  /// the fraction of available thread-time spent inside chunk bodies.
  double pool_utilization = 0.0;

  // --- Anytime events (ExecContext) ---
  bool partial = false;
  std::string partial_reason;
  bool cancelled = false;
  bool deadline_expired = false;
  bool has_deadline = false;
  /// ms left on the deadline when the run returned (negative once
  /// past); meaningless unless has_deadline.
  double deadline_remaining_ms = 0.0;
};

/// One stage clock of the profile: its name and its field.
struct StageClock {
  const char* name;
  double ExplainProfile::*ms;
};

/// Every stage clock, in the order the profile JSON's `stage_ms`
/// writes them; the wall total comes last. The JSON export, the
/// `explain.<name>_ms` histograms, the slow log's `stages` and the
/// dashboard's bars all read this list.
inline constexpr StageClock kStageClocks[] = {
    {"preprocess", &ExplainProfile::preprocess_ms},
    {"enumerate", &ExplainProfile::enumerate_ms},
    {"predicates", &ExplainProfile::predicates_ms},
    {"materialize", &ExplainProfile::materialize_ms},
    {"score", &ExplainProfile::score_ms},
    {"rank", &ExplainProfile::rank_ms},
    {"total", &ExplainProfile::total_ms},
};

}  // namespace dbwipes

#endif  // DBWIPES_CORE_PROFILE_H_
