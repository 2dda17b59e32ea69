// Shard-equivalence property tests: explaining over a sharded table
// must be BIT-identical to the unsharded run — same predicates, same
// order, same scores to the last ulp — at every shard count, on random
// datasets, under anytime cuts (cancellation, deadlines), and across the
// whole fault matrix. Sharding is an execution strategy, never a
// semantics change. Runs under the asan and tsan presets via the
// `faults` ctest label.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dbwipes/common/random.h"
#include "dbwipes/core/dbwipes.h"
#include "dbwipes/core/predicate_ranker.h"
#include "dbwipes/core/preprocessor.h"
#include "dbwipes/core/session.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/query/executor.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {
namespace {

/// Random planted-anomaly world: interleaved groups (so every range
/// shard owns suspects), a mix of int/string/double attributes with
/// NULLs, and 'bad'-tagged rows in groups >= 2 carrying high readings.
std::shared_ptr<Table> RandomWorld(uint64_t seed, size_t rows) {
  Rng rng(seed);
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"knob", DataType::kDouble},
                                          {"hue", DataType::kString},
                                          {"v", DataType::kDouble}},
                                   "w");
  const char* hues[] = {"red", "green", "blue"};
  for (size_t r = 0; r < rows; ++r) {
    const int64_t g = static_cast<int64_t>(r % 4);
    const bool bad = g >= 2 && rng.Bernoulli(0.15);
    std::vector<Value> row(5);
    row[0] = Value(g);
    row[1] = Value(bad ? "bad" : "fine");
    row[2] = rng.Bernoulli(0.1) ? Value::Null() : Value(rng.Normal(0, 2));
    row[3] = rng.Bernoulli(0.1) ? Value::Null()
                                : Value(std::string(hues[rng.UniformInt(3u)]));
    row[4] = Value(bad ? rng.Normal(100, 3) : rng.Normal(10, 3));
    DBW_CHECK_OK(t->AppendRow(row));
  }
  return t;
}

struct Scenario {
  std::shared_ptr<Table> table;
  std::shared_ptr<Database> db;
  std::unique_ptr<DBWipes> engine;
  QueryResult result;
  ExplanationRequest request;
};

/// Builds the same world sharded `num_shards` ways; 0 = unsharded.
Scenario MakeScenario(uint64_t seed, size_t rows, size_t num_shards) {
  Scenario sc;
  sc.table = RandomWorld(seed, rows);
  sc.db = std::make_shared<Database>();
  sc.db->RegisterTable(sc.table);
  if (num_shards > 0) {
    sc.db->RegisterShardSet("w", *ShardSet::Create(*sc.table, num_shards));
  }
  sc.engine = std::make_unique<DBWipes>(sc.db);
  sc.result = *sc.engine->Query("SELECT g, avg(v) AS a FROM w GROUP BY g");
  sc.request.selected_groups = {2, 3};
  sc.request.metric = TooHigh(15.0);
  return sc;
}

void ExpectIdentical(const Explanation& got, const Explanation& want,
                     const std::string& what) {
  EXPECT_EQ(got.partial, want.partial) << what;
  EXPECT_EQ(got.ranked_considered, want.ranked_considered) << what;
  EXPECT_EQ(got.total_enumerated, want.total_enumerated) << what;
  EXPECT_EQ(got.preprocess.suspect_inputs, want.preprocess.suspect_inputs)
      << what;
  ASSERT_EQ(got.predicates.size(), want.predicates.size()) << what;
  for (size_t i = 0; i < want.predicates.size(); ++i) {
    const RankedPredicate& a = got.predicates[i];
    const RankedPredicate& b = want.predicates[i];
    EXPECT_EQ(a.predicate.CanonicalString(), b.predicate.CanonicalString())
        << what << " rank " << i;
    // Bit-identical, not approximately equal: the sharded fold visits
    // the same operands in the same order as the fused one.
    EXPECT_EQ(a.score, b.score) << what << " rank " << i;
    EXPECT_EQ(a.error_after, b.error_after) << what << " rank " << i;
    EXPECT_EQ(a.error_improvement, b.error_improvement)
        << what << " rank " << i;
    EXPECT_EQ(a.precision, b.precision) << what << " rank " << i;
    EXPECT_EQ(a.recall, b.recall) << what << " rank " << i;
    EXPECT_EQ(a.f1, b.f1) << what << " rank " << i;
    EXPECT_EQ(a.matched_in_suspects, b.matched_in_suspects)
        << what << " rank " << i;
  }
}

class ShardEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardEquivalence, ExplainIsBitIdenticalAtEveryShardCount) {
  const uint64_t seed = GetParam();
  const size_t rows = 150 + static_cast<size_t>(seed % 5) * 97;
  Scenario fused = MakeScenario(seed, rows, 0);
  Explanation want = *fused.engine->Explain(fused.result, fused.request);
  ASSERT_FALSE(want.predicates.empty());

  for (size_t num_shards : {1u, 2u, 3u, 7u}) {
    Scenario sharded = MakeScenario(seed, rows, num_shards);
    // Twice per shard count: cold engines, then warm ones — cache
    // reuse must not perturb a single bit either.
    for (int run = 0; run < 2; ++run) {
      Explanation got =
          *sharded.engine->Explain(sharded.result, sharded.request);
      ExpectIdentical(got, want,
                      "seed " + std::to_string(seed) + " shards " +
                          std::to_string(num_shards) + " run " +
                          std::to_string(run));
      EXPECT_EQ(got.profile.num_shards, num_shards);
    }
  }
}

TEST_P(ShardEquivalence, BudgetCutIsBitIdenticalAtEveryShardCount) {
  // A cut after a deterministic block prefix must leave even the
  // PARTIAL result identical across shard counts. The cut comes from a
  // token tripped at the third "ranker/score" hit: the three blocks of
  // 80 candidates are too few for the pool, so they score serially and
  // the third block always stops, at every shard count. This goes
  // through RankAnytime with a wide manual candidate family — the full
  // Explain pipeline merges candidates down to a handful, too few to
  // fill more than one block.
  const uint64_t seed = GetParam();
  auto table = RandomWorld(seed, 300);
  QueryResult result =
      *ExecuteQuery(*ParseQuery("SELECT g, avg(v) AS a FROM w GROUP BY g"),
                    *table);
  auto metric = TooHigh(15.0);
  PreprocessResult pre = *Preprocessor::Run(*table, result, {2, 3}, *metric);
  std::vector<EnumeratedPredicate> candidates;
  for (int i = -40; i < 40; ++i) {
    EnumeratedPredicate ep;
    ep.predicate =
        Predicate({Clause::Make("knob", CompareOp::kGe, Value(i * 0.05))});
    candidates.push_back(std::move(ep));
  }

  auto run = [&](size_t num_shards) {
    auto source = std::make_shared<CancellationSource>();
    FaultInjector faults;
    FaultInjector::Fault trip;
    trip.trip = source;
    trip.skip = 2;
    faults.Arm("ranker/score", trip);
    ExecContext ctx;
    ctx.token = source->token();
    ctx.faults = &faults;
    std::shared_ptr<ShardSet> set;
    ShardPlan plan;
    const ShardPlan* plan_ptr = nullptr;
    if (num_shards > 0) {
      set = *ShardSet::Create(*table, num_shards);
      plan = ShardPlan::Build(*set, pre.suspect_inputs);
      plan_ptr = &plan;
    }
    PredicateRanker ranker;
    auto outcome = ranker.RankAnytime(*table, result, {2, 3}, *metric, 0,
                                      pre.suspect_inputs, {},
                                      pre.per_group_baseline_error, candidates,
                                      ctx, plan_ptr);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->partial) << "the tripped token did not cut";
    EXPECT_EQ(faults.hits("ranker/score"), 3u);
    return *outcome;
  };

  RankOutcome want = run(0);
  EXPECT_EQ(want.scored_prefix, 2 * PredicateRanker::kScoreBlock);
  for (size_t num_shards : {1u, 3u, 7u}) {
    RankOutcome got = run(num_shards);
    const std::string what =
        "seed " + std::to_string(seed) + " shards " +
        std::to_string(num_shards);
    EXPECT_EQ(got.partial, want.partial) << what;
    EXPECT_EQ(got.scored_prefix, want.scored_prefix) << what;
    ASSERT_EQ(got.predicates.size(), want.predicates.size()) << what;
    for (size_t i = 0; i < want.predicates.size(); ++i) {
      EXPECT_EQ(got.predicates[i].predicate.CanonicalString(),
                want.predicates[i].predicate.CanonicalString())
          << what << " rank " << i;
      EXPECT_EQ(got.predicates[i].score, want.predicates[i].score)
          << what << " rank " << i;
      EXPECT_EQ(got.predicates[i].error_after, want.predicates[i].error_after)
          << what << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardEquivalence,
                         ::testing::Values(11u, 12u, 13u));

// ---------- deadline cuts ----------

/// A deadline expiring mid-ranking on a sharded world must keep the
/// prefix-consistency contract: the partial ranking equals a full
/// (fused, unsharded) run restricted to the same candidate prefix.
TEST(ShardDeadlineTest, DeadlineCutStaysPrefixConsistent) {
  auto table = RandomWorld(21, 400);
  auto db = std::make_shared<Database>();
  db->RegisterTable(table);
  auto set = *ShardSet::Create(*table, 3);
  db->RegisterShardSet("w", set);

  QueryResult result =
      *ExecuteQuery(*ParseQuery("SELECT g, avg(v) AS a FROM w GROUP BY g"),
                    *table);
  auto metric = TooHigh(15.0);
  PreprocessResult pre =
      *Preprocessor::Run(*table, result, {2, 3}, *metric);

  // A wide threshold family: enough candidates for several blocks.
  std::vector<EnumeratedPredicate> candidates;
  for (int i = -40; i < 40; ++i) {
    EnumeratedPredicate ep;
    ep.predicate = Predicate(
        {Clause::Make("knob", CompareOp::kGe, Value(i * 0.05))});
    candidates.push_back(std::move(ep));
  }
  ShardPlan plan = ShardPlan::Build(*set, pre.suspect_inputs);

  PredicateRanker ranker;
  // Latency at each scoring block makes a short deadline bite between
  // blocks rather than before the first one.
  FaultInjector faults;
  FaultInjector::Fault slow;
  slow.latency_ms = 5.0;
  faults.Arm("ranker/score", slow);
  ExecContext ctx;
  ctx.deadline = Deadline::After(12.0);
  ctx.faults = &faults;
  auto got = ranker.RankAnytime(*table, result, {2, 3}, *metric, 0,
                                pre.suspect_inputs, {},
                                pre.per_group_baseline_error, candidates, ctx,
                                &plan);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got->partial);
  ASSERT_LT(got->scored_prefix, candidates.size());

  std::vector<EnumeratedPredicate> prefix(
      candidates.begin(),
      candidates.begin() + static_cast<ptrdiff_t>(got->scored_prefix));
  if (prefix.empty()) {
    EXPECT_TRUE(got->predicates.empty());
    return;
  }
  auto full = ranker.Rank(*table, result, {2, 3}, *metric, 0,
                          pre.suspect_inputs, {},
                          pre.per_group_baseline_error, prefix);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(got->predicates.size(), full->size());
  for (size_t i = 0; i < full->size(); ++i) {
    EXPECT_EQ(got->predicates[i].predicate.CanonicalString(),
              (*full)[i].predicate.CanonicalString())
        << "rank " << i;
    EXPECT_EQ(got->predicates[i].score, (*full)[i].score) << "rank " << i;
  }
}

// ---------- fault injection, per shard ----------

std::shared_ptr<Database> ShardedSmallDb(size_t num_shards) {
  auto table = RandomWorld(31, 160);
  auto db = std::make_shared<Database>();
  db->RegisterTable(table);
  db->RegisterShardSet("w", *ShardSet::Create(*table, num_shards));
  return db;
}

void PrepareSession(Session& session) {
  ASSERT_TRUE(
      session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
  ASSERT_TRUE(session.SelectResults({2, 3}).ok());
  ASSERT_TRUE(session.SetMetric(TooHigh(15.0)).ok());
}

/// Every registered fault site — the per-shard "ranker/shard" site
/// included — must surface an injected error as a clean Status on a
/// sharded world, at more than one shard count.
TEST(ShardFaultMatrixTest, EverySiteErrorsCleanlyOnShardedWorlds) {
  for (size_t num_shards : {1u, 3u}) {
    auto db = ShardedSmallDb(num_shards);
    for (const std::string& site : AllFaultSites()) {
      Session session(db);
      PrepareSession(session);
      FaultInjector faults;
      faults.ArmError(site, Status::IoError("injected at " + site));
      ExecContext ctx;
      ctx.faults = &faults;
      auto exp = session.Debug(ctx);
      ASSERT_FALSE(exp.ok())
          << site << " swallowed the injected fault at S=" << num_shards;
      EXPECT_TRUE(exp.status().IsIoError()) << site;
      EXPECT_GE(faults.hits(site), 1u)
          << site << " never hit at S=" << num_shards << " — dead site?";
    }
  }
}

/// The per-shard site fires once per shard: a complete explain on an
/// S-shard world trips an armed latency fault exactly S times.
TEST(ShardFaultMatrixTest, ShardSiteFiresOncePerShard) {
  for (size_t num_shards : {1u, 2u, 5u}) {
    auto db = ShardedSmallDb(num_shards);
    Session session(db);
    PrepareSession(session);
    FaultInjector faults;
    FaultInjector::Fault slow;
    slow.latency_ms = 0.01;
    faults.Arm("ranker/shard", slow);
    ExecContext ctx;
    ctx.faults = &faults;
    auto exp = session.Debug(ctx);
    ASSERT_TRUE(exp.ok()) << exp.status().ToString();
    EXPECT_FALSE(exp->partial);
    EXPECT_EQ(faults.hits("ranker/shard"), num_shards);
  }
}

/// Tripping the per-shard site into a cancellation must degrade to a
/// clean PARTIAL explanation (the anytime contract), with every
/// checked-in engine still usable on the next run.
TEST(ShardFaultMatrixTest, ShardSiteCancelDegradesToPartialThenRecovers) {
  auto db = ShardedSmallDb(3);
  Session session(db);
  PrepareSession(session);

  auto source = std::make_shared<CancellationSource>();
  FaultInjector faults;
  FaultInjector::Fault fault;
  fault.trip = source;
  faults.Arm("ranker/shard", fault);
  ExecContext ctx;
  ctx.token = source->token();
  ctx.faults = &faults;
  auto cancelled = session.Debug(ctx);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_TRUE(cancelled->partial);

  // The next (fault-free) run completes and finds the anomaly.
  auto clean = session.Debug();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_FALSE(clean->partial);
  ASSERT_FALSE(clean->predicates.empty());
  EXPECT_NE(clean->predicates[0].predicate.ToString().find("tag = 'bad'"),
            std::string::npos)
      << clean->predicates[0].predicate.ToString();
}

}  // namespace
}  // namespace dbwipes
