#include "dbwipes/core/predicate_ranker.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/parallel.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/core/merger.h"
#include "dbwipes/core/removal_scorer.h"
#include "dbwipes/expr/match_kernels.h"
#include "dbwipes/expr/shard_cache.h"

namespace dbwipes {

namespace {

double MillisBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Global ranking counters; incremented once per run / per block, so
/// the write path never lands inside the per-predicate loop.
struct RankerMetrics {
  MetricCounter* runs;
  MetricCounter* partial_runs;
  MetricCounter* blocks_scored;
  MetricCounter* predicates_scored;
};

const RankerMetrics& Metrics() {
  static const RankerMetrics m = {
      MetricsRegistry::Global().GetCounter("ranker.runs"),
      MetricsRegistry::Global().GetCounter("ranker.partial_runs"),
      MetricsRegistry::Global().GetCounter("ranker.blocks_scored"),
      MetricsRegistry::Global().GetCounter("ranker.predicates_scored"),
  };
  return m;
}

/// Shared scoring arithmetic: fills the score-derived fields of `rp`
/// from the raw measurements.
void FinishScore(const RankerOptions& options, bool have_reference,
                 double w_error, double w_acc, double per_group_baseline,
                 double per_group_after, size_t tp, size_t reference_size,
                 RankedPredicate* rp) {
  if (per_group_baseline > 0.0) {
    rp->error_improvement = std::clamp(
        (per_group_baseline - per_group_after) / per_group_baseline, 0.0,
        1.0);
  }
  if (have_reference) {
    rp->precision = rp->matched_in_suspects == 0
                        ? 0.0
                        : static_cast<double>(tp) /
                              static_cast<double>(rp->matched_in_suspects);
    rp->recall = static_cast<double>(tp) /
                 static_cast<double>(reference_size);
    rp->f1 = (rp->precision + rp->recall) > 0.0
                 ? 2.0 * rp->precision * rp->recall /
                       (rp->precision + rp->recall)
                 : 0.0;
  }
  const double complexity =
      std::min(1.0, static_cast<double>(rp->predicate.num_clauses()) /
                        static_cast<double>(options.max_clauses));
  rp->score = w_error * rp->error_improvement + w_acc * rp->f1 -
              options.w_complexity * complexity;
}

/// FNV-1a fold of per-slice bitmap part hashes: with a fixed slice
/// plan every predicate's parts have identical shapes, so part-vector
/// equality is global-bitmap equality.
uint64_t HashParts(const std::vector<Bitmap>& parts) {
  uint64_t h = 1469598103934665603ULL;
  for (const Bitmap& b : parts) {
    h ^= b.Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

/// Why an anytime run wound down, as a human-readable reason. Explicit
/// cancellation wins over the deadline, so a user-initiated stop is
/// never misreported as a timeout.
std::string StopReason(const ExecContext& ctx) {
  const Status why = ctx.CheckContinue();
  if (!why.ok()) return why.ToString();
  return "interrupted";
}

/// Fills the outcome for a run cut at `prefix` input predicates, with
/// whatever the run measured before the cut.
RankOutcome MakeOutcome(std::vector<RankedPredicate> ranked, size_t prefix,
                        size_t total, const ExecContext& ctx,
                        RankStats stats = {}) {
  RankOutcome out;
  out.predicates = std::move(ranked);
  out.stats = std::move(stats);
  out.scored_prefix = prefix;
  out.total_candidates = total;
  out.partial = prefix < total;
  if (out.partial) out.reason = StopReason(ctx);
  return out;
}

}  // namespace

Result<std::vector<RankedPredicate>> PredicateRanker::Rank(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
    size_t agg_index, const std::vector<RowId>& suspects,
    const std::vector<RowId>& reference_positive, double per_group_baseline,
    const std::vector<EnumeratedPredicate>& predicates,
    const ShardPlan* shards) const {
  DBW_ASSIGN_OR_RETURN(
      RankOutcome outcome,
      RankAnytime(table, result, selected_groups, metric, agg_index, suspects,
                  reference_positive, per_group_baseline, predicates,
                  ExecContext::None(), shards));
  // The null context never interrupts, so the outcome is complete.
  return std::move(outcome.predicates);
}

Result<RankOutcome> PredicateRanker::RankAnytime(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
    size_t agg_index, const std::vector<RowId>& suspects,
    const std::vector<RowId>& reference_positive, double per_group_baseline,
    const std::vector<EnumeratedPredicate>& predicates,
    const ExecContext& ctx, const ShardPlan* shards) const {
  if (predicates.empty()) {
    return Status::InvalidArgument("no predicates to rank");
  }
  DBW_FAULT(ctx, "ranker/rank");
  DBW_TRACE_SPAN("ranker/rank");
  Metrics().runs->Increment();
  // The reference engine always scores the fused view; it exists to
  // differential-test the fast paths (sharded included) against one
  // canonical serial fold.
  Result<RankOutcome> out =
      options_.engine == RankerOptions::Engine::kReferenceSerial
          ? RankReference(table, result, selected_groups, metric, agg_index,
                          suspects, reference_positive, per_group_baseline,
                          predicates, ctx)
          : RankDelta(table, result, selected_groups, metric, agg_index,
                      suspects, reference_positive, per_group_baseline,
                      predicates, ctx, shards);
  if (out.ok() && shards != nullptr && shards->set != nullptr) {
    RankStats& stats = out->stats;
    stats.num_shards = shards->set->num_shards();
    // Skew from the plan: max shard suspect share over the even share.
    if (!suspects.empty() && !shards->slices.empty()) {
      size_t biggest = 0;
      for (const ShardSlice& s : shards->slices) {
        biggest = std::max(biggest, s.local_rows.size());
      }
      const double mean = static_cast<double>(suspects.size()) /
                          static_cast<double>(shards->slices.size());
      stats.shard_skew = static_cast<double>(biggest) / mean;
    }
  }
  return out;
}

Result<RankOutcome> PredicateRanker::RankDelta(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
    size_t agg_index, const std::vector<RowId>& suspects,
    const std::vector<RowId>& reference_positive, double per_group_baseline,
    const std::vector<EnumeratedPredicate>& predicates,
    const ExecContext& ctx, const ShardPlan* shards) const {
  const size_t n = predicates.size();
  const bool have_reference = !reference_positive.empty();
  double w_error = options_.w_error;
  double w_acc = options_.w_accuracy;
  if (!have_reference) {
    // No user examples to agree with: fold the accuracy weight into
    // error improvement.
    w_error += w_acc;
    w_acc = 0.0;
  }

  // One lineage walk for the whole call; scoring below never touches
  // the lineage or evaluates an expression again. An interrupt this
  // early means nothing was scored: empty partial result.
  Result<RemovalScorer> scorer_r = RemovalScorer::Create(
      table, result, selected_groups, agg_index, suspects, ctx);
  if (!scorer_r.ok()) {
    if (scorer_r.status().IsInterrupt()) return MakeOutcome({}, 0, n, ctx);
    return scorer_r.status();
  }
  const RemovalScorer& scorer = scorer_r.ValueUnsafe();

  std::vector<RankedPredicate> scored(n);
  ParallelOptions popts;
  popts.num_threads = options_.num_threads;
  popts.ctx = &ctx;

  // Matching runs per slice: one shard's share of the suspect rows, in
  // that shard's row numbering. A sharded run takes the plan's slices on
  // the set's cached per-shard engines, which is what survives between
  // explains (an append grows only the tail shard's table, so every
  // other shard's engine passes the freshness check and returns warm);
  // an unsharded run is one slice on a fresh engine. Each engine scans
  // every distinct clause ONCE, chunked over the pool, and matches a
  // predicate by an AND of cached words.
  // MatchPrepared is const, so the scoring loop below reads the caches
  // concurrently without synchronization.
  std::shared_ptr<ShardEngineCache> cache;
  std::vector<ShardSlice> whole;
  if (shards != nullptr && shards->set != nullptr && !shards->slices.empty()) {
    cache = ShardEngineCache::For(*shards->set);
  } else {
    whole.push_back({0, &table, suspects, 0});
  }
  const std::vector<ShardSlice>& slices =
      cache != nullptr ? shards->slices : whole;
  const size_t num_slices = slices.size();
  std::vector<std::unique_ptr<MatchEngine>> engines(num_slices);
  std::vector<Bitmap> ref_parts(num_slices);
  std::vector<size_t> offsets(num_slices, 0);
  std::vector<RankStats::ShardLane> lanes(num_slices);
  RankStats stats;
  for (size_t s = 0; s < num_slices; ++s) {
    const ShardSlice& slice = slices[s];
    offsets[s] = slice.offset;
    lanes[s].shard_index = slice.shard_index;
    lanes[s].rows = slice.table->num_rows();
    lanes[s].suspects = slice.local_rows.size();
    // The reference set as a positional bitmap over the slice: tp of a
    // predicate is then a popcount of the AND.
    ref_parts[s] = Bitmap(slice.local_rows.size());
    for (size_t i = 0; have_reference && i < slice.local_rows.size(); ++i) {
      if (std::binary_search(reference_positive.begin(),
                             reference_positive.end(),
                             suspects[slice.offset + i])) {
        ref_parts[s].Set(i);
      }
    }
  }

  // Reused engines carry cumulative counters across explains; per-run
  // stats are deltas from these checkout-time snapshots.
  struct CounterBase {
    size_t lookups = 0, hits = 0, misses = 0, mats = 0;
  };
  std::vector<CounterBase> bases(num_slices);
  // Fills the stat lanes from the counter deltas, folds them into the
  // totals and returns shard engines to the cache warm; safe to call at
  // most once.
  auto finish = [&]() {
    for (size_t s = 0; s < num_slices; ++s) {
      if (engines[s] == nullptr) continue;
      RankStats::ShardLane& ss = lanes[s];
      const MatchEngine& se = *engines[s];
      ss.clause_lookups = se.clause_lookups() - bases[s].lookups;
      ss.cache_hits = se.cache_hits() - bases[s].hits;
      ss.cache_misses = se.cache_misses() - bases[s].misses;
      ss.bitmaps_materialized = se.bitmaps_materialized() - bases[s].mats;
      ss.cached_clauses = se.num_cached_clauses();
      stats.clause_lookups += ss.clause_lookups;
      stats.cache_hits += ss.cache_hits;
      stats.cache_misses += ss.cache_misses;
      stats.bitmaps_materialized += ss.bitmaps_materialized;
      stats.shard_engines_reused += ss.engine_reused;
      if (stats.simd_tier.empty()) stats.simd_tier = SimdTierName(se.simd_tier());
      if (cache != nullptr) {
        cache->Checkin(ss.shard_index, std::move(engines[s]));
      }
    }
    if (cache != nullptr) stats.shards = std::move(lanes);
  };

  std::vector<const Predicate*> preds;
  preds.reserve(n);
  for (const EnumeratedPredicate& ep : predicates) {
    preds.push_back(&ep.predicate);
  }
  const auto t_mat = std::chrono::steady_clock::now();
  Status materialized = Status::OK();
  // Slices materialize serially (each internally chunked over the
  // pool), so per-slice wall times are honest.
  for (size_t s = 0; s < num_slices && materialized.ok(); ++s) {
    const ShardSlice& slice = slices[s];
    if (cache != nullptr) {
      if (ctx.faults != nullptr) materialized = ctx.faults->Hit("ranker/shard");
      if (!materialized.ok()) break;
      ShardEngineCache::Checkout co = cache->CheckoutEngine(
          slice.shard_index, *slice.table, slice.local_rows);
      lanes[s].engine_reused = co.reused;
      engines[s] = std::move(co.engine);
    } else {
      engines[s] =
          std::make_unique<MatchEngine>(*slice.table, slice.local_rows);
    }
    const MatchEngine& e = *engines[s];
    bases[s] = {e.clause_lookups(), e.cache_hits(), e.cache_misses(),
                e.bitmaps_materialized()};
    const auto t_slice = std::chrono::steady_clock::now();
    materialized = engines[s]->Materialize(preds, popts);
    lanes[s].materialize_ms =
        MillisBetween(t_slice, std::chrono::steady_clock::now());
  }
  stats.materialize_ms = MillisBetween(t_mat, std::chrono::steady_clock::now());
  // A failed slice rolled its fresh entries back; the other engines stay
  // warm for the next run either way.
  if (!materialized.ok()) {
    finish();
    if (materialized.IsInterrupt()) {
      return MakeOutcome({}, 0, n, ctx, std::move(stats));
    }
    return materialized;
  }
  std::vector<std::vector<Bitmap>> matched_parts(n);

  // Anytime scoring: predicates are processed in fixed-size blocks and
  // a block marks itself done only after scoring every member. On an
  // interrupt the run keeps the longest done-prefix of blocks — a cut
  // that is prefix-consistent with the full run at any thread count.
  const size_t num_blocks = (n + kScoreBlock - 1) / kScoreBlock;
  std::vector<unsigned char> block_done(num_blocks, 0);
  // Slot-per-block wall times: each block writes only its own slot, so
  // the vector needs no synchronization beyond the pool's own joins.
  std::vector<double> block_ms(num_blocks, 0.0);
  const auto t_score = std::chrono::steady_clock::now();

  Status scan = ParallelForStatus(
      num_blocks,
      [&](size_t b) -> Status {
        if (ctx.StopRequested()) return Status::OK();
        DBW_FAULT(ctx, "ranker/score");
        const auto t_block = std::chrono::steady_clock::now();
        const size_t lo = b * kScoreBlock;
        const size_t hi = std::min(n, lo + kScoreBlock);
        for (size_t i = lo; i < hi; ++i) {
          // Per-predicate stop check: one steady-clock read against a
          // full removal-set scoring — the block is abandoned (not
          // marked done), bounding overrun to a single predicate.
          if (ctx.StopRequested()) return Status::OK();
          const EnumeratedPredicate& ep = predicates[i];
          RankedPredicate& rp = scored[i];
          rp.predicate = ep.predicate;
          rp.strategy = ep.strategy;
          std::vector<Bitmap>& parts = matched_parts[i];
          parts.resize(num_slices);
          size_t tp = 0;
          for (size_t s = 0; s < num_slices; ++s) {
            DBW_ASSIGN_OR_RETURN(parts[s],
                                 engines[s]->MatchPrepared(ep.predicate));
            rp.matched_in_suspects += parts[s].CountOnes();
            if (have_reference) tp += parts[s].CountAnd(ref_parts[s]);
          }
          // Parts fold in slice order: offsets ascend, so removals apply
          // in ascending suspect order at every shard count.
          const RemovalScorer::Errors errors =
              scorer.ErrorsAfterParts(metric, parts, offsets);
          rp.error_after = errors.raw;
          FinishScore(options_, have_reference, w_error, w_acc,
                      per_group_baseline, errors.per_group, tp,
                      reference_positive.size(), &rp);
        }
        block_ms[b] = MillisBetween(t_block, std::chrono::steady_clock::now());
        block_done[b] = 1;
        return Status::OK();
      },
      popts);
  stats.score_ms = MillisBetween(t_score, std::chrono::steady_clock::now());
  if (!scan.ok() && !scan.IsInterrupt()) {
    finish();  // hand engines back warm
    return scan;
  }

  // The deterministic cut: contiguous completed blocks from the front.
  size_t done_blocks = 0;
  while (done_blocks < num_blocks && block_done[done_blocks]) ++done_blocks;
  const size_t prefix = std::min(n, done_blocks * kScoreBlock);
  scored.resize(prefix);
  matched_parts.resize(prefix);
  std::vector<RankedPredicate> ranked = CombinePartialRankings(
      &scored, [&](size_t i) { return HashParts(matched_parts[i]); },
      [&](size_t a, size_t b) { return matched_parts[a] == matched_parts[b]; },
      options_.top_k);

  stats.scoring_blocks_total = num_blocks;
  stats.scoring_blocks_done = done_blocks;
  stats.block_ms = std::move(block_ms);
  finish();  // top-level counters become the lane sums
  Metrics().blocks_scored->Increment(done_blocks);
  Metrics().predicates_scored->Increment(prefix);

  RankOutcome out =
      MakeOutcome(std::move(ranked), prefix, n, ctx, std::move(stats));
  if (out.partial) Metrics().partial_runs->Increment();
  return out;
}

Result<RankOutcome> PredicateRanker::RankReference(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
    size_t agg_index, const std::vector<RowId>& suspects,
    const std::vector<RowId>& reference_positive, double per_group_baseline,
    const std::vector<EnumeratedPredicate>& predicates,
    const ExecContext& ctx) const {
  const size_t n = predicates.size();
  const bool have_reference = !reference_positive.empty();
  double w_error = options_.w_error;
  double w_acc = options_.w_accuracy;
  if (!have_reference) {
    w_error += w_acc;
    w_acc = 0.0;
  }

  std::vector<RankedPredicate> scored;
  std::vector<std::vector<RowId>> matched_sets;
  scored.reserve(n);
  matched_sets.reserve(n);
  RankStats stats;
  stats.scoring_blocks_total = (n + kScoreBlock - 1) / kScoreBlock;
  stats.block_ms.assign(stats.scoring_blocks_total, 0.0);
  const auto t_score = std::chrono::steady_clock::now();
  auto t_block = t_score;
  // Serial loop; the anytime cut is simply how far it got, rounded
  // down to a whole block so both engines report identical prefixes.
  for (const EnumeratedPredicate& ep : predicates) {
    if (ctx.StopRequested()) break;
    if (scored.size() % kScoreBlock == 0) {
      const auto now = std::chrono::steady_clock::now();
      if (!scored.empty()) {
        stats.block_ms[scored.size() / kScoreBlock - 1] =
            MillisBetween(t_block, now);
      }
      t_block = now;
      DBW_FAULT(ctx, "ranker/score");
    }
    // Tuples of F the predicate matches = the tuples cleaning removes
    // from the selected groups, by boxed Clause::Matches per cell.
    const std::vector<Clause>& clauses = ep.predicate.clauses();
    std::vector<const Column*> columns;
    for (const Clause& c : clauses) {
      DBW_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(c.attribute));
      columns.push_back(col);
    }
    std::vector<RowId> matched;
    for (RowId r : suspects) {
      bool all = true;
      for (size_t k = 0; all && k < clauses.size(); ++k) {
        all = clauses[k].Matches(columns[k]->GetValue(r));
      }
      if (all) matched.push_back(r);
    }

    RankedPredicate rp;
    rp.predicate = ep.predicate;
    rp.strategy = ep.strategy;
    rp.matched_in_suspects = matched.size();

    // Raw metric for display; per-group mean for the improvement term.
    DBW_ASSIGN_OR_RETURN(
        rp.error_after,
        ErrorAfterRemoval(table, result, selected_groups, metric, agg_index,
                          matched));
    DBW_ASSIGN_OR_RETURN(
        const double per_group_after,
        PerGroupErrorAfterRemoval(table, result, selected_groups, metric,
                                  agg_index, matched));
    size_t tp = 0;
    if (have_reference) {
      for (RowId r : matched) {
        if (std::binary_search(reference_positive.begin(),
                               reference_positive.end(), r)) {
          ++tp;
        }
      }
    }
    FinishScore(options_, have_reference, w_error, w_acc, per_group_baseline,
                per_group_after, tp, reference_positive.size(), &rp);
    scored.push_back(std::move(rp));
    matched_sets.push_back(std::move(matched));
  }

  stats.score_ms = MillisBetween(t_score, std::chrono::steady_clock::now());
  // Close the final block's slot if the loop finished it.
  if (!scored.empty() &&
      (scored.size() == n || scored.size() % kScoreBlock == 0)) {
    stats.block_ms[(scored.size() - 1) / kScoreBlock] =
        MillisBetween(t_block, std::chrono::steady_clock::now());
  }

  size_t prefix = scored.size();
  if (prefix < n) {
    prefix -= prefix % kScoreBlock;  // whole blocks only, like the
                                     // parallel engine's cut
    scored.resize(prefix);
    matched_sets.resize(prefix);
  }
  stats.scoring_blocks_done = (prefix + kScoreBlock - 1) / kScoreBlock;
  Metrics().blocks_scored->Increment(stats.scoring_blocks_done);
  Metrics().predicates_scored->Increment(prefix);

  auto hash_of = [&](size_t i) {
    uint64_t hash = 0x9E3779B97F4A7C15ULL;
    for (RowId r : matched_sets[i]) {
      hash ^= std::hash<RowId>{}(r) + 0x9E3779B9u + (hash << 6) +
              (hash >> 2);
    }
    return hash;
  };
  std::vector<RankedPredicate> ranked = CombinePartialRankings(
      &scored, hash_of,
      [&](size_t a, size_t b) { return matched_sets[a] == matched_sets[b]; },
      options_.top_k);
  RankOutcome out =
      MakeOutcome(std::move(ranked), prefix, n, ctx, std::move(stats));
  if (out.partial) Metrics().partial_runs->Increment();
  return out;
}

}  // namespace dbwipes
