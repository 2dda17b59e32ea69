// Sharded-storage tests: ShardSet construction/append/layout rules,
// ShardPlan universe partitioning, the per-shard MatchEngine cache,
// and the cache-retention regression the sharding exists to win —
// an append to the tail shard must leave every other shard's clause
// bitmaps warm, asserted through the per-lane cache-law counters in
// the ExplainProfile (hits + misses == lookups, misses == 0 on warm
// lanes).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dbwipes/common/random.h"
#include "dbwipes/core/dbwipes.h"
#include "dbwipes/expr/shard_cache.h"
#include "dbwipes/query/executor.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {
namespace {

/// Rows interleave groups (g = r % 4) so every contiguous range shard
/// owns suspects from the selected groups; g >= 2 rows are spoiled
/// with tag='bad' high readings.
std::shared_ptr<Table> MakeInterleavedTable(size_t rows = 200) {
  Rng rng(7);
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"knob", DataType::kDouble},
                                          {"v", DataType::kDouble}},
                                   "w");
  for (size_t r = 0; r < rows; ++r) {
    const int64_t g = static_cast<int64_t>(r % 4);
    const bool bad = g >= 2 && rng.Bernoulli(0.2);
    DBW_CHECK_OK(t->AppendRow({Value(g), Value(bad ? "bad" : "fine"),
                               Value(rng.Normal(0, 1)),
                               Value(bad ? rng.Normal(100, 2)
                                         : rng.Normal(10, 2))}));
  }
  return t;
}

// ---------- ShardSet ----------

TEST(ShardSetTest, CreateSplitsEvenlyAndPreservesContent) {
  auto t = MakeInterleavedTable(10);
  auto set = *ShardSet::Create(*t, 4);
  EXPECT_EQ(set->name(), "w");
  EXPECT_EQ(set->num_shards(), 4u);
  EXPECT_EQ(set->num_rows(), 10u);
  // First rows % S shards get the extra row.
  EXPECT_EQ(set->ShardRowCounts(), (std::vector<size_t>{3, 3, 2, 2}));
  EXPECT_EQ(set->shard_begin(0), 0u);
  EXPECT_EQ(set->shard_begin(1), 3u);
  EXPECT_EQ(set->shard_begin(2), 6u);
  EXPECT_EQ(set->shard_begin(3), 8u);
  EXPECT_EQ(set->ShardOfRow(0), 0u);
  EXPECT_EQ(set->ShardOfRow(2), 0u);
  EXPECT_EQ(set->ShardOfRow(3), 1u);
  EXPECT_EQ(set->ShardOfRow(7), 2u);
  EXPECT_EQ(set->ShardOfRow(9), 3u);

  // The fused view is a deep copy with identical content, and each
  // shard's table holds its range (strings re-encoded per shard, so
  // values — not codes — are what must agree).
  for (RowId r = 0; r < t->num_rows(); ++r) {
    const size_t s = set->ShardOfRow(r);
    const RowId local = r - set->shard_begin(s);
    for (size_t c = 0; c < t->num_columns(); ++c) {
      EXPECT_EQ(set->fused()->GetValue(r, c), t->GetValue(r, c));
      EXPECT_EQ(set->shard_table(s).GetValue(local, c), t->GetValue(r, c));
    }
  }
}

TEST(ShardSetTest, FusedViewKeepsTheSourceCodesAndDictionaries) {
  // The fused view copies the source whole, so clause bitmaps and
  // snapshots built on either see the same dictionary codes.
  auto t = MakeInterleavedTable(40);
  DBW_CHECK_OK(t->AppendRow({Value(int64_t{1}), Value(), Value(0.5),
                             Value(1.0)}));
  DBW_CHECK_OK(t->AppendRow({Value(int64_t{2}), Value("late"), Value(),
                             Value(2.0)}));
  auto set = *ShardSet::Create(*t, 3);
  const Table& fused = *set->fused();
  ASSERT_EQ(fused.num_rows(), t->num_rows());
  const Column& src = t->column(1);
  const Column& copy = fused.column(1);
  EXPECT_EQ(copy.code_data(), src.code_data());
  ASSERT_EQ(copy.dictionary_size(), src.dictionary_size());
  for (int32_t c = 0; c < static_cast<int32_t>(src.dictionary_size()); ++c) {
    EXPECT_EQ(copy.DictionaryValue(c), src.DictionaryValue(c));
  }
  for (RowId r = 0; r < t->num_rows(); ++r) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      EXPECT_EQ(fused.column(c).IsNull(r), t->column(c).IsNull(r));
      EXPECT_EQ(fused.GetValue(r, c), t->GetValue(r, c));
    }
  }
}

TEST(ShardSetTest, CreateValidatesShardCount) {
  auto t = MakeInterleavedTable(10);
  EXPECT_FALSE(ShardSet::Create(*t, 0).ok());
  EXPECT_FALSE(ShardSet::Create(*t, ShardSet::kMaxShards + 1).ok());
  EXPECT_TRUE(ShardSet::Create(*t, ShardSet::kMaxShards).ok());

  EXPECT_FALSE(ShardSet::CreateWithRows(*t, {}).ok());
  EXPECT_FALSE(ShardSet::CreateWithRows(*t, {5, 4}).ok());  // sum != 10
  auto uneven = *ShardSet::CreateWithRows(*t, {1, 5, 4});
  EXPECT_EQ(uneven->ShardRowCounts(), (std::vector<size_t>{1, 5, 4}));
}

TEST(ShardSetTest, SameBoundariesReproduceShardsByteForByte) {
  // The snapshot contract: re-partitioning the same fused rows at the
  // same boundaries must reproduce every per-shard string code, not
  // just every value — clause bitmaps hang off the codes.
  auto t = MakeInterleavedTable(50);
  auto a = *ShardSet::Create(*t, 3);
  auto b = *ShardSet::CreateWithRows(*t, a->ShardRowCounts());
  for (size_t s = 0; s < a->num_shards(); ++s) {
    const Table& ta = a->shard_table(s);
    const Table& tb = b->shard_table(s);
    ASSERT_EQ(ta.num_rows(), tb.num_rows());
    for (RowId r = 0; r < ta.num_rows(); ++r) {
      for (size_t c = 0; c < ta.num_columns(); ++c) {
        EXPECT_EQ(ta.GetValue(r, c), tb.GetValue(r, c));
      }
    }
  }
}

TEST(ShardSetTest, AppendRoutesToTailShardOnly) {
  auto t = MakeInterleavedTable(10);
  auto set = *ShardSet::Create(*t, 3);
  const std::vector<size_t> before = set->ShardRowCounts();

  ASSERT_TRUE(
      set->Append({Value(int64_t{1}), Value("fine"), Value(0.5), Value(9.0)})
          .ok());
  EXPECT_EQ(set->num_rows(), 11u);
  EXPECT_EQ(set->appends(), 1u);
  std::vector<size_t> after = set->ShardRowCounts();
  EXPECT_EQ(after.back(), before.back() + 1);
  for (size_t s = 0; s + 1 < after.size(); ++s) {
    EXPECT_EQ(after[s], before[s]) << "non-tail shard " << s << " grew";
  }
  // Fused view and tail shard agree on the new row.
  EXPECT_EQ(set->fused()->GetValue(10, 1), Value("fine"));
  EXPECT_EQ(set->shard_table(2).GetValue(after.back() - 1, 3), Value(9.0));

  // A malformed row (wrong arity) fails and leaves both views alone.
  EXPECT_FALSE(set->Append({Value(int64_t{1})}).ok());
  EXPECT_EQ(set->num_rows(), 11u);
  EXPECT_EQ(set->ShardRowCounts(), after);
}

// ---------- ShardPlan ----------

TEST(ShardPlanTest, BuildPartitionsSortedUniverse) {
  auto t = MakeInterleavedTable(10);
  auto set = *ShardSet::Create(*t, 4);  // rows {3, 3, 2, 2}
  const std::vector<RowId> universe = {0, 2, 3, 7, 9};
  ShardPlan plan = ShardPlan::Build(*set, universe);
  ASSERT_EQ(plan.slices.size(), 4u);
  EXPECT_EQ(plan.set, set.get());

  EXPECT_EQ(plan.slices[0].local_rows, (std::vector<RowId>{0, 2}));
  EXPECT_EQ(plan.slices[0].offset, 0u);
  EXPECT_EQ(plan.slices[1].local_rows, (std::vector<RowId>{0}));  // global 3
  EXPECT_EQ(plan.slices[1].offset, 2u);
  EXPECT_EQ(plan.slices[2].local_rows, (std::vector<RowId>{1}));  // global 7
  EXPECT_EQ(plan.slices[2].offset, 3u);
  EXPECT_EQ(plan.slices[3].local_rows, (std::vector<RowId>{1}));  // global 9
  EXPECT_EQ(plan.slices[3].offset, 4u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(plan.slices[s].shard_index, s);
    EXPECT_EQ(plan.slices[s].table, &set->shard_table(s));
  }

  // An empty universe still yields one (empty) slice per shard.
  ShardPlan empty = ShardPlan::Build(*set, {});
  ASSERT_EQ(empty.slices.size(), 4u);
  for (const ShardSlice& slice : empty.slices) {
    EXPECT_TRUE(slice.local_rows.empty());
  }
}

// ---------- ShardEngineCache ----------

TEST(ShardEngineCacheTest, CheckoutBuildsReusesAndDetectsStaleness) {
  auto t = MakeInterleavedTable(30);
  auto set = *ShardSet::Create(*t, 2);
  auto cache = ShardEngineCache::For(*set);
  ASSERT_NE(cache, nullptr);
  // One cache per set, shared by every caller.
  EXPECT_EQ(cache.get(), ShardEngineCache::For(*set).get());
  EXPECT_EQ(cache->num_shards(), 2u);

  const std::vector<RowId> rows = {0, 3, 5};
  auto cold = cache->CheckoutEngine(0, set->shard_table(0), rows);
  EXPECT_FALSE(cold.reused);
  const Predicate pred({Clause::Make("tag", CompareOp::kEq, Value("bad"))});
  ASSERT_TRUE(cold.engine->Materialize({&pred}, {}).ok());
  EXPECT_EQ(cold.engine->num_cached_clauses(), 1u);
  cache->Checkin(0, std::move(cold.engine));
  EXPECT_EQ(cache->CachedClausesPerShard(), (std::vector<size_t>{1, 0}));

  // Same shard table + same universe: warm, bitmaps intact.
  auto warm = cache->CheckoutEngine(0, set->shard_table(0), rows);
  EXPECT_TRUE(warm.reused);
  EXPECT_EQ(warm.engine->num_cached_clauses(), 1u);

  // Checkout empties the slot, so an overlapping run builds fresh
  // instead of sharing a live engine.
  auto concurrent = cache->CheckoutEngine(0, set->shard_table(0), rows);
  EXPECT_FALSE(concurrent.reused);
  cache->Checkin(0, std::move(warm.engine));
  cache->Checkin(0, std::move(concurrent.engine));

  // A different universe (new suspect set) must not reuse the engine.
  auto other =
      cache->CheckoutEngine(0, set->shard_table(0), {1, 2});
  EXPECT_FALSE(other.reused);
}

// ---------- the cache-retention regression (the point of sharding) ----

struct ExplainWorld {
  std::shared_ptr<Table> table;
  std::shared_ptr<Database> db;
  std::shared_ptr<ShardSet> set;
  std::unique_ptr<DBWipes> engine;
  QueryResult result;
  ExplanationRequest request;
};

ExplainWorld MakeShardedWorld(size_t num_shards) {
  ExplainWorld w;
  w.table = MakeInterleavedTable(200);
  w.db = std::make_shared<Database>();
  w.db->RegisterTable(w.table);
  w.set = *ShardSet::Create(*w.table, num_shards);
  w.db->RegisterShardSet("w", w.set);
  w.engine = std::make_unique<DBWipes>(w.db);
  w.result = *w.engine->Query("SELECT g, avg(v) AS a FROM w GROUP BY g");
  w.request.selected_groups = {2, 3};
  w.request.metric = TooHigh(15.0);
  return w;
}

void CheckLaneLaws(const ExplainProfile& p, size_t num_shards) {
  ASSERT_EQ(p.num_shards, num_shards);
  ASSERT_EQ(p.shards.size(), num_shards);
  size_t lookups = 0, hits = 0, misses = 0, mats = 0;
  for (const ExplainProfile::ShardLane& lane : p.shards) {
    EXPECT_EQ(lane.cache_hits + lane.cache_misses, lane.clause_lookups)
        << "lane " << lane.shard_index;
    EXPECT_GT(lane.suspects, 0u) << "lane " << lane.shard_index;
    lookups += lane.clause_lookups;
    hits += lane.cache_hits;
    misses += lane.cache_misses;
    mats += lane.bitmaps_materialized;
  }
  // Top-level engine counters are the lane sums.
  EXPECT_EQ(p.clause_lookups, lookups);
  EXPECT_EQ(p.cache_hits, hits);
  EXPECT_EQ(p.cache_misses, misses);
  EXPECT_EQ(p.bitmaps_materialized, mats);
}

/// The plan's skew, in the profile's arithmetic: the biggest shard's
/// suspects over the even share.
double PlanSkew(ShardSet& set, const std::vector<RowId>& suspects) {
  const auto lease = set.ReadLease();
  const ShardPlan plan = ShardPlan::Build(set, suspects);
  size_t biggest = 0;
  for (const ShardSlice& s : plan.slices) {
    biggest = std::max(biggest, s.local_rows.size());
  }
  const double mean = static_cast<double>(suspects.size()) /
                      static_cast<double>(plan.slices.size());
  return static_cast<double>(biggest) / mean;
}

/// The shard count and the plan's skew describe the table, so a ranking
/// on a sharded table reports them however it ran: on the reference
/// engine, which builds no lanes, and when cut before it matched.
TEST(ShardProfileTest, EveryRankingReportsShardCountAndSkew) {
  constexpr size_t kShards = 3;
  ExplainWorld w = MakeShardedWorld(kShards);
  const double skew = PlanSkew(
      *w.set, w.result.lineage.BackwardUnion(w.request.selected_groups));
  ASSERT_GE(skew, 1.0);

  ExplainOptions reference;
  reference.ranker.engine = RankerOptions::Engine::kReferenceSerial;
  const Explanation serial =
      *DBWipes(w.db, reference).Explain(w.result, w.request);
  ASSERT_FALSE(serial.predicates.empty());
  EXPECT_EQ(serial.profile.num_shards, kShards);
  EXPECT_EQ(serial.profile.shard_skew, skew);
  EXPECT_TRUE(serial.profile.shards.empty());

  // The Dataset Enumerator's scorer passes; the ranker's trips the
  // token before it reads a group.
  auto source = std::make_shared<CancellationSource>();
  FaultInjector faults;
  FaultInjector::Fault cancel;
  cancel.trip = source;
  cancel.skip = 1;
  faults.Arm("scorer/create", cancel);
  ExecContext ctx;
  ctx.token = source->token();
  ctx.faults = &faults;
  const Explanation cut = *w.engine->Explain(w.result, w.request, ctx);
  ASSERT_EQ(faults.hits("scorer/create"), 2u);
  ASSERT_TRUE(cut.partial);
  EXPECT_EQ(cut.ranked_considered, 0u);
  EXPECT_EQ(cut.profile.num_shards, kShards);
  EXPECT_EQ(cut.profile.shard_skew, skew);
}

TEST(ShardWarmCacheTest, AppendInvalidatesOnlyTheTailShard) {
  constexpr size_t kShards = 4;
  ExplainWorld w = MakeShardedWorld(kShards);

  // Run 1 (cold): every lane builds its engine and materializes.
  Explanation first = *w.engine->Explain(w.result, w.request);
  ASSERT_FALSE(first.predicates.empty());
  EXPECT_NE(first.predicates[0].predicate.ToString().find("tag = 'bad'"),
            std::string::npos)
      << first.predicates[0].predicate.ToString();
  CheckLaneLaws(first.profile, kShards);
  for (const ExplainProfile::ShardLane& lane : first.profile.shards) {
    EXPECT_FALSE(lane.engine_reused) << "lane " << lane.shard_index;
    EXPECT_GT(lane.cache_misses, 0u) << "lane " << lane.shard_index;
  }
  EXPECT_EQ(first.profile.shard_engines_reused, 0u);
  EXPECT_GE(first.profile.shard_skew, 1.0);

  // Run 2 (no append): every lane comes back warm — zero misses, zero
  // re-materialization, every lookup a hit.
  Explanation second = *w.engine->Explain(w.result, w.request);
  CheckLaneLaws(second.profile, kShards);
  for (const ExplainProfile::ShardLane& lane : second.profile.shards) {
    EXPECT_TRUE(lane.engine_reused) << "lane " << lane.shard_index;
    EXPECT_EQ(lane.cache_misses, 0u) << "lane " << lane.shard_index;
    EXPECT_EQ(lane.bitmaps_materialized, 0u) << "lane " << lane.shard_index;
    EXPECT_EQ(lane.cache_hits, lane.clause_lookups)
        << "lane " << lane.shard_index;
    EXPECT_GT(lane.clause_lookups, 0u) << "lane " << lane.shard_index;
    EXPECT_GT(lane.cached_clauses, 0u) << "lane " << lane.shard_index;
  }
  EXPECT_EQ(second.profile.shard_engines_reused, kShards);

  // Append one row: it routes to the tail shard, so ONLY that shard's
  // engine may go cold on the next run.
  ASSERT_TRUE(w.set->Append({Value(int64_t{0}), Value("fine"), Value(0.0),
                             Value(10.0)})
                  .ok());

  Explanation third = *w.engine->Explain(w.result, w.request);
  CheckLaneLaws(third.profile, kShards);
  for (const ExplainProfile::ShardLane& lane : third.profile.shards) {
    if (lane.shard_index == kShards - 1) {
      // Tail: table grew, engine rebuilt from scratch.
      EXPECT_FALSE(lane.engine_reused);
      EXPECT_GT(lane.cache_misses, 0u);
    } else {
      // Everyone else: warm. This is the (S-1)/S retention claim.
      EXPECT_TRUE(lane.engine_reused) << "lane " << lane.shard_index;
      EXPECT_EQ(lane.cache_misses, 0u) << "lane " << lane.shard_index;
      EXPECT_EQ(lane.cache_hits, lane.clause_lookups)
          << "lane " << lane.shard_index;
      EXPECT_GT(lane.clause_lookups, 0u) << "lane " << lane.shard_index;
      EXPECT_GT(lane.cached_clauses, 0u) << "lane " << lane.shard_index;
    }
  }
  EXPECT_EQ(third.profile.shard_engines_reused, kShards - 1);

  // The ranking itself never changed across the three runs.
  ASSERT_EQ(third.predicates.size(), first.predicates.size());
  for (size_t i = 0; i < first.predicates.size(); ++i) {
    EXPECT_EQ(third.predicates[i].predicate.CanonicalString(),
              first.predicates[i].predicate.CanonicalString());
    EXPECT_DOUBLE_EQ(third.predicates[i].score, first.predicates[i].score);
  }
}

}  // namespace
}  // namespace dbwipes
