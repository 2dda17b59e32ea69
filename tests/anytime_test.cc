// Anytime-engine tests: the fault matrix (every DBW_FAULT site in the
// pipeline degrades cleanly), deadline and cancellation wind-down with
// the deterministic prefix-cut guarantee, stage clocks of an
// interrupted run, and the Service's set_deadline/cancel commands. Runs
// under the asan and tsan presets via the `faults` ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "dbwipes/common/random.h"
#include "dbwipes/core/predicate_ranker.h"
#include "dbwipes/core/preprocessor.h"
#include "dbwipes/core/service.h"
#include "dbwipes/datagen/synthetic.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/query/executor.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {
namespace {

// ---------- shared scenarios ----------

/// Small end-to-end scenario (the service_test dataset): 4 groups, two
/// of them spoiled by 'bad'-tagged high readings.
std::shared_ptr<Database> MakeSmallDb() {
  Rng rng(41);
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"v", DataType::kDouble}},
                                   "w");
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 40; ++i) {
      const bool bad = g >= 2 && i < 8;
      DBW_CHECK_OK(t->AppendRow({Value(static_cast<int64_t>(g)),
                                 Value(bad ? "bad" : "fine"),
                                 Value(bad ? rng.Normal(100, 2)
                                           : rng.Normal(10, 2))}));
    }
  }
  auto db = std::make_shared<Database>();
  db->RegisterTable(t);
  // Shard the world: the fault matrix and the deadline/cancel tests
  // then exercise the shard-parallel ranking path (which is where the
  // "ranker/shard" site lives) on top of everything they already cover
  // — the sharded pipeline is bit-identical to the fused one, so no
  // expectation changes.
  db->RegisterShardSet("w", *ShardSet::Create(*t, 3));
  return db;
}

/// Everything RankAnytime consumes on the acceptance-scale scenario
/// (100k rows, 8 attributes, ~1600 candidate predicates). Built once.
struct RankProblem {
  LabeledDataset data;
  QueryResult result;
  std::vector<size_t> selected_groups;
  ErrorMetricPtr metric;
  std::vector<RowId> suspects;
  std::vector<RowId> reference;
  double per_group_baseline = 0.0;
  std::vector<EnumeratedPredicate> predicates;
};

const RankProblem& BigProblem() {
  static const RankProblem* problem = [] {
    SyntheticOptions gen;
    gen.num_rows = 100000;
    gen.num_numeric_attrs = 4;
    gen.num_categorical_attrs = 4;
    gen.anomaly_selectivity = 0.03;

    auto* p = new RankProblem();
    p->data = *GenerateSyntheticDataset(gen);
    AggregateQuery query =
        *ParseQuery("SELECT g, avg(v) AS a FROM synthetic GROUP BY g");
    p->result = *ExecuteQuery(query, *p->data.table);
    for (size_t g = 0; g < p->result.num_groups(); ++g) {
      if (p->result.AggValue(g, 0) >= 50.8) p->selected_groups.push_back(g);
    }
    p->metric = TooHigh(50.0);
    PreprocessResult pre = *Preprocessor::Run(*p->data.table, p->result,
                                              p->selected_groups, *p->metric);
    p->suspects = pre.suspect_inputs;
    p->per_group_baseline = pre.per_group_baseline_error;
    std::vector<const TupleInfluence*> positive;
    for (const TupleInfluence& ti : pre.influences) {
      if (ti.influence > 0.0) positive.push_back(&ti);
    }
    for (size_t i = 0; i < positive.size() / 4; ++i) {
      p->reference.push_back(positive[i]->row);
    }
    std::sort(p->reference.begin(), p->reference.end());

    // Candidate predicates: threshold sweeps + categorical equalities
    // + two-clause conjunctions, as a real Debug() enumerates.
    std::vector<Clause> numeric, categorical;
    for (size_t a = 0; a < gen.num_numeric_attrs; ++a) {
      const std::string col = "a" + std::to_string(a);
      for (int t = -12; t <= 12; ++t) {
        const double cut = t / 6.0;
        numeric.push_back(Clause::Make(col, CompareOp::kGe, Value(cut)));
        numeric.push_back(Clause::Make(col, CompareOp::kLe, Value(cut)));
      }
    }
    for (size_t c = 0; c < gen.num_categorical_attrs; ++c) {
      const std::string col = "c" + std::to_string(c);
      for (size_t k = 0; k < gen.categorical_cardinality; ++k) {
        categorical.push_back(Clause::Make(
            col, CompareOp::kEq, Value("cat_" + std::to_string(k))));
      }
    }
    auto add = [p](Predicate pred) {
      EnumeratedPredicate ep;
      ep.predicate = std::move(pred);
      ep.strategy = "test";
      p->predicates.push_back(std::move(ep));
    };
    for (const Clause& c : numeric) add(Predicate({c}));
    for (const Clause& c : categorical) add(Predicate({c}));
    for (size_t i = 0; i < categorical.size(); ++i) {
      for (size_t j = i % 7; j < numeric.size(); j += 7) {
        add(Predicate({categorical[i], numeric[j]}));
      }
    }
    return p;
  }();
  return *problem;
}

Result<RankOutcome> RunAnytime(const RankProblem& p, const ExecContext& ctx,
                               size_t threads = 0) {
  RankerOptions opts;
  opts.num_threads = threads;
  PredicateRanker ranker(opts);
  return ranker.RankAnytime(*p.data.table, p.result, p.selected_groups,
                            *p.metric, /*agg_index=*/0, p.suspects,
                            p.reference, p.per_group_baseline, p.predicates,
                            ctx);
}

/// The prefix-consistency oracle: a partial ranking must equal a full
/// (uninterrupted) run restricted to the first `scored_prefix`
/// candidates — same predicates, same order, same scores.
void ExpectPrefixConsistent(const RankProblem& p, const RankOutcome& got,
                            size_t threads) {
  ASSERT_LE(got.scored_prefix, p.predicates.size());
  std::vector<EnumeratedPredicate> prefix(
      p.predicates.begin(),
      p.predicates.begin() + static_cast<ptrdiff_t>(got.scored_prefix));
  if (prefix.empty()) {
    EXPECT_TRUE(got.predicates.empty());
    return;
  }
  RankerOptions opts;
  opts.num_threads = threads;
  PredicateRanker ranker(opts);
  auto full = ranker.Rank(*p.data.table, p.result, p.selected_groups,
                          *p.metric, /*agg_index=*/0, p.suspects, p.reference,
                          p.per_group_baseline, prefix);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(got.predicates.size(), full->size());
  for (size_t i = 0; i < full->size(); ++i) {
    EXPECT_EQ(got.predicates[i].predicate.CanonicalString(),
              (*full)[i].predicate.CanonicalString())
        << "rank " << i;
    EXPECT_DOUBLE_EQ(got.predicates[i].score, (*full)[i].score) << i;
  }
}

// ---------- fault matrix ----------

/// Arming any registered site with an error must surface as a clean
/// error Status from the full pipeline — never a crash, never a
/// silently wrong result.
TEST(FaultMatrixTest, EverySiteErrorsCleanly) {
  auto db = MakeSmallDb();
  for (const std::string& site : AllFaultSites()) {
    Session session(db);
    ASSERT_TRUE(
        session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
    ASSERT_TRUE(session.SelectResultsInRange("a", 20, 1e9).ok());
    ASSERT_TRUE(session.SetMetric(TooHigh(12.0)).ok());

    FaultInjector faults;
    faults.ArmError(site, Status::IoError("injected at " + site));
    ExecContext ctx;
    ctx.faults = &faults;
    auto exp = session.Debug(ctx);
    ASSERT_FALSE(exp.ok()) << site << " swallowed the injected fault";
    EXPECT_TRUE(exp.status().IsIoError()) << site << ": "
                                          << exp.status().ToString();
    EXPECT_NE(exp.status().ToString().find(site), std::string::npos) << site;
    EXPECT_GE(faults.hits(site), 1u) << site << " never hit — dead site?";
  }
}

/// Arming any site to trip the run's own cancellation source must
/// yield a *partial* explanation (ok, flagged) — the anytime contract.
TEST(FaultMatrixTest, EverySiteCancelsToPartial) {
  auto db = MakeSmallDb();
  for (const std::string& site : AllFaultSites()) {
    Session session(db);
    ASSERT_TRUE(
        session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
    ASSERT_TRUE(session.SelectResultsInRange("a", 20, 1e9).ok());
    ASSERT_TRUE(session.SetMetric(TooHigh(12.0)).ok());

    auto source = std::make_shared<CancellationSource>();
    FaultInjector faults;
    FaultInjector::Fault fault;
    fault.trip = source;
    faults.Arm(site, fault);
    ExecContext ctx;
    ctx.token = source->token();
    ctx.faults = &faults;
    auto exp = session.Debug(ctx);
    ASSERT_TRUE(exp.ok()) << site << ": " << exp.status().ToString();
    EXPECT_TRUE(exp->partial) << site << " completed despite cancellation";
    EXPECT_TRUE(exp->partial_reason.starts_with("Cancelled: "))
        << site << ": " << exp->partial_reason;
    EXPECT_GE(faults.hits(site), 1u) << site << " never hit — dead site?";
  }
}

/// Latency faults exercise the sites' pass-through path: the pipeline
/// must still complete (and completely) when a site merely stalls.
TEST(FaultMatrixTest, LatencyFaultsDoNotChangeResults) {
  auto db = MakeSmallDb();
  Session session(db);
  ASSERT_TRUE(
      session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
  ASSERT_TRUE(session.SelectResultsInRange("a", 20, 1e9).ok());
  ASSERT_TRUE(session.SetMetric(TooHigh(12.0)).ok());
  Explanation baseline = *session.Debug();

  FaultInjector faults;
  FaultInjector::Fault slow;
  slow.latency_ms = 1.0;
  slow.count = 3;  // keep the test fast: per-block sites hit often
  for (const std::string& site : AllFaultSites()) faults.Arm(site, slow);
  ExecContext ctx;
  ctx.faults = &faults;
  auto exp = session.Debug(ctx);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  EXPECT_FALSE(exp->partial);
  ASSERT_EQ(exp->predicates.size(), baseline.predicates.size());
  for (size_t i = 0; i < baseline.predicates.size(); ++i) {
    EXPECT_EQ(exp->predicates[i].predicate.CanonicalString(),
              baseline.predicates[i].predicate.CanonicalString());
  }
}

// ---------- deadline ----------

TEST(AnytimeDeadlineTest, TenMsDeadlineReturnsPartialWithinFiveX) {
  const RankProblem& p = BigProblem();
  const double deadline_ms = 10.0;
  for (size_t threads : {size_t{1}, size_t{0}}) {
    ExecContext ctx;
    ctx.deadline = Deadline::After(deadline_ms);
    const auto t0 = std::chrono::steady_clock::now();
    auto outcome = RunAnytime(p, ctx, threads);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    // The full run takes on the order of seconds, so a 10 ms deadline
    // must cut it short...
    EXPECT_TRUE(outcome->partial) << "threads=" << threads;
    EXPECT_NE(outcome->reason.find("Deadline"), std::string::npos)
        << outcome->reason;
    EXPECT_LT(outcome->scored_prefix, p.predicates.size());
    // ...and wind-down is bounded: well within 5x the deadline.
    EXPECT_LT(elapsed_ms, 5.0 * deadline_ms) << "threads=" << threads;
    ExpectPrefixConsistent(p, *outcome, threads);
  }
}

TEST(AnytimeDeadlineTest, InfiniteDeadlineCompletes) {
  const RankProblem& p = BigProblem();
  ExecContext ctx;  // no deadline, no token
  auto outcome = RunAnytime(p, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->partial);
  EXPECT_EQ(outcome->scored_prefix, p.predicates.size());
  EXPECT_EQ(outcome->total_candidates, p.predicates.size());
}

// ---------- cancellation ----------

TEST(AnytimeCancelTest, MidRunCancelYieldsConsistentPrefix) {
  const RankProblem& p = BigProblem();
  CancellationSource source;
  ExecContext ctx;
  ctx.token = source.token();
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.Cancel("user hit stop");
  });
  auto outcome = RunAnytime(p, ctx);
  canceller.join();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->partial);
  EXPECT_NE(outcome->reason.find("user hit stop"), std::string::npos)
      << outcome->reason;
  ExpectPrefixConsistent(p, *outcome, 0);
}

// ---------- stage clocks ----------

/// A stage that an interrupt winds down still reports its wall time:
/// the stage clocks of a partial run include the stage that was cut
/// and stay within the run's wall total.
TEST(AnytimeStageClockTest, InterruptedStageKeepsItsClock) {
  struct Stage {
    const char* site;
    double ExplainProfile::*ms;
  };
  for (const Stage& stage :
       {Stage{"enumerate/datasets", &ExplainProfile::enumerate_ms},
        Stage{"enumerate/predicates", &ExplainProfile::predicates_ms}}) {
    auto db = MakeSmallDb();
    Session session(db);
    ASSERT_TRUE(
        session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
    ASSERT_TRUE(session.SelectResultsInRange("a", 20, 1e9).ok());
    ASSERT_TRUE(session.SetMetric(TooHigh(12.0)).ok());

    // The stage stalls 30 ms at its entry, then its token trips.
    auto source = std::make_shared<CancellationSource>();
    FaultInjector faults;
    FaultInjector::Fault stall;
    stall.latency_ms = 30.0;
    stall.trip = source;
    faults.Arm(stage.site, stall);
    ExecContext ctx;
    ctx.token = source->token();
    ctx.faults = &faults;
    auto exp = session.Debug(ctx);
    ASSERT_TRUE(exp.ok()) << stage.site << ": " << exp.status().ToString();
    ASSERT_TRUE(exp->partial) << stage.site;

    const ExplainProfile& p = exp->profile;
    EXPECT_GE(p.*stage.ms, 30.0) << stage.site;
    const double stages =
        p.preprocess_ms + p.enumerate_ms + p.predicates_ms + p.rank_ms;
    EXPECT_GE(stages, 30.0) << stage.site;
    EXPECT_LE(stages, p.total_ms) << stage.site;
  }
}

/// A run cut while the ranker matches still reports what matching did,
/// and reads as the cancel it was: the stall lands inside Materialize,
/// so its clock covers it.
TEST(AnytimeStageClockTest, CancelDuringMatchingKeepsRankStats) {
  auto db = MakeSmallDb();
  Session session(db);
  ASSERT_TRUE(
      session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
  ASSERT_TRUE(session.SelectResultsInRange("a", 20, 1e9).ok());
  ASSERT_TRUE(session.SetMetric(TooHigh(12.0)).ok());

  auto source = std::make_shared<CancellationSource>();
  FaultInjector faults;
  FaultInjector::Fault stall;
  stall.latency_ms = 20.0;
  stall.trip = source;
  faults.Arm("match/materialize", stall);
  ExecContext ctx;
  ctx.token = source->token();
  ctx.faults = &faults;
  auto exp = session.Debug(ctx);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  ASSERT_TRUE(exp->partial);
  EXPECT_TRUE(exp->partial_reason.starts_with("Cancelled: "))
      << exp->partial_reason;
  const ExplainProfile& p = exp->profile;
  EXPECT_GE(p.materialize_ms, 20.0);
  EXPECT_LE(p.materialize_ms, p.rank_ms);
  EXPECT_FALSE(p.simd_tier.empty());
}

// ---------- service protocol ----------

TEST(ServiceAnytimeTest, SetDeadlineProducesPartialResponse) {
  Service service(MakeSmallDb());
  ASSERT_NE(service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")
                .find("\"ok\": true"),
            std::string::npos);
  ASSERT_NE(service.Execute("select_range a 20 1e9").find("\"ok\": true"),
            std::string::npos);
  ASSERT_NE(service.Execute("metric too_high 12").find("\"ok\": true"),
            std::string::npos);

  // An already-expired deadline guarantees a partial debug regardless
  // of machine speed.
  EXPECT_NE(service.Execute("set_deadline 0.000001").find("\"ok\": true"),
            std::string::npos);
  const std::string partial = service.Execute("debug");
  EXPECT_NE(partial.find("\"ok\": true"), std::string::npos) << partial;
  EXPECT_NE(partial.find("\"partial\": true"), std::string::npos) << partial;
  EXPECT_NE(partial.find("\"reason\""), std::string::npos) << partial;

  // Clearing the deadline restores complete runs.
  EXPECT_NE(service.Execute("set_deadline 0").find("\"deadline_ms\": null"),
            std::string::npos);
  const std::string complete = service.Execute("debug");
  EXPECT_NE(complete.find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(complete.find("\"partial\": true,"), std::string::npos)
      << complete;
}

TEST(ServiceAnytimeTest, PendingCancelHitsNextDebug) {
  Service service(MakeSmallDb());
  ASSERT_NE(service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")
                .find("\"ok\": true"),
            std::string::npos);
  ASSERT_NE(service.Execute("select_range a 20 1e9").find("\"ok\": true"),
            std::string::npos);
  ASSERT_NE(service.Execute("metric too_high 12").find("\"ok\": true"),
            std::string::npos);

  EXPECT_NE(service.Execute("cancel").find("\"cancelled\": \"pending\""),
            std::string::npos);
  const std::string out = service.Execute("debug");
  EXPECT_NE(out.find("\"partial\": true"), std::string::npos) << out;
  EXPECT_NE(out.find("\"reason\": \"Cancelled: "), std::string::npos) << out;

  // The pending flag is one-shot: the following debug completes.
  const std::string again = service.Execute("debug");
  EXPECT_EQ(again.find("\"partial\": true,"), std::string::npos) << again;
}

}  // namespace
}  // namespace dbwipes
