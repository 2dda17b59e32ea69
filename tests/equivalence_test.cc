// Differential/property tests: the predicate-evaluation paths (boxed
// row-at-a-time Predicate::Matches, the BoolExpr tree through the
// reference evaluator and through the FilterBitmap lowering, and the
// MatchEngine's cached clause bitmaps) must agree on random tables,
// also for literals of the other type or NULL, which every path
// answers by Clause::Matches' rule; the executor's WHERE handling must
// match a manual filter-then-aggregate oracle; cleaning (the rewrite,
// and IncrementalClean on captured lineage) must equal deleting the
// matching rows; and the delta-based scoring engine (RemovalScorer,
// bitmap matching, parallel ranking) must reproduce the serial
// from-scratch reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dbwipes/common/random.h"
#include "dbwipes/core/export.h"
#include "dbwipes/core/predicate_ranker.h"
#include "dbwipes/core/removal.h"
#include "dbwipes/core/removal_scorer.h"
#include "dbwipes/core/session.h"
#include "dbwipes/datagen/fec_generator.h"
#include "dbwipes/datagen/intel_generator.h"
#include "dbwipes/expr/bool_expr.h"
#include "dbwipes/expr/match_kernels.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/query/executor.h"
#include "dbwipes/query/incremental.h"
#include "dbwipes/storage/shard.h"
#include "reference_executor.h"

namespace dbwipes {
namespace {

Table RandomTable(Rng* rng, size_t rows) {
  Table t(Schema{{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString}},
          "t");
  const char* cats[] = {"red", "green", "blue", "red-ish"};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row(3);
    row[0] = rng->Bernoulli(0.1)
                 ? Value::Null()
                 : Value(rng->UniformInt(-5, 5));
    row[1] = rng->Bernoulli(0.1) ? Value::Null()
                                 : Value(rng->Normal(0, 2));
    row[2] = rng->Bernoulli(0.1)
                 ? Value::Null()
                 : Value(std::string(cats[rng->UniformInt(4u)]));
    DBW_CHECK_OK(t.AppendRow(row));
  }
  return t;
}

Clause RandomClause(Rng* rng) {
  switch (rng->UniformInt(6u)) {
    case 0:
      return Clause::Make("i",
                          rng->Bernoulli(0.5) ? CompareOp::kLe
                                              : CompareOp::kGt,
                          Value(rng->UniformInt(-5, 5)));
    case 1:
      return Clause::Make("d",
                          rng->Bernoulli(0.5) ? CompareOp::kGe
                                              : CompareOp::kLt,
                          Value(rng->Normal(0, 2)));
    case 2:
      return Clause::Make("s",
                          rng->Bernoulli(0.5) ? CompareOp::kEq
                                              : CompareOp::kNe,
                          Value(rng->Bernoulli(0.8) ? "red" : "missing"));
    case 3:
      return Clause::In("s", {Value("green"), Value("blue")});
    case 4:
      return Clause::In("i", {Value(int64_t{0}), Value(int64_t{2}),
                              Value(int64_t{-3})});
    default:
      return Clause::Make("s", CompareOp::kContains, Value("red"));
  }
}

/// A clause whose literal is not of its column's type, or NULL:
/// `s > 'c'`, `s = 5`, `d = 'x'`,
/// `i IN ('a', NULL, 1)`, CONTAINS on a numeric column, `d >= NULL`.
Clause IllTypedClause(Rng* rng) {
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  const CompareOp op = ops[rng->UniformInt(6u)];
  switch (rng->UniformInt(6u)) {
    case 0:
      return Clause::Make("s", op, Value("c"));
    case 1:
      return Clause::Make("s", op, Value(int64_t{5}));
    case 2:
      return Clause::Make("d", op, Value("x"));
    case 3:
      return Clause::In("i", {Value("a"), Value::Null(), Value(int64_t{1})});
    case 4:
      return Clause::Make(rng->Bernoulli(0.5) ? "i" : "d",
                          CompareOp::kContains, Value("1"));
    default:
      return Clause::Make(rng->Bernoulli(0.5) ? "d" : "s", op, Value::Null());
  }
}

/// RandomClause, or (one time in four) an IllTypedClause.
Clause AnyClause(Rng* rng) {
  return rng->UniformInt(4u) == 0 ? IllTypedClause(rng) : RandomClause(rng);
}

class PredicatePathEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredicatePathEquivalence, AllThreePathsAgree) {
  Rng rng(GetParam());
  Table t = RandomTable(&rng, 300);
  std::vector<RowId> all;
  for (RowId r = 0; r < t.num_rows(); ++r) all.push_back(r);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Clause> clauses;
    const size_t n = 1 + rng.UniformInt(3u);
    for (size_t i = 0; i < n; ++i) clauses.push_back(AnyClause(&rng));
    Predicate pred(clauses);
    BoolExprPtr expr = PredicateToBoolExpr(pred);
    const Bitmap lowered =
        *FilterBitmap(*expr, t, ScanUniverse::Range(0, t.num_rows()));
    MatchEngine engine(t, all);
    const Bitmap kernel = *engine.Match(pred);

    for (RowId r = 0; r < t.num_rows(); ++r) {
      const bool slow = *pred.Matches(t, r);
      const bool tree = *reference::Eval(*expr, t, r);
      ASSERT_EQ(slow, tree) << pred.ToString() << " row " << r;
      ASSERT_EQ(slow, lowered.Test(r)) << pred.ToString() << " row " << r;
      ASSERT_EQ(slow, kernel.Test(r)) << pred.ToString() << " row " << r;
    }

    // Parsing the rendered predicate gives the same matches.
    auto reparsed = ParsePredicate(pred.ToString());
    ASSERT_TRUE(reparsed.ok()) << pred.ToString();
    for (RowId r = 0; r < t.num_rows(); ++r) {
      ASSERT_EQ(*pred.Matches(t, r), *reparsed->Matches(t, r))
          << pred.ToString();
    }

    // Simplify() must preserve semantics.
    Predicate simplified = pred.Simplify();
    for (RowId r = 0; r < t.num_rows(); ++r) {
      ASSERT_EQ(*pred.Matches(t, r), *simplified.Matches(t, r))
          << pred.ToString() << " vs " << simplified.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicatePathEquivalence,
                         ::testing::Values(101, 202, 303, 404, 505));

class ExecutorWhereOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorWhereOracle, WhereMatchesManualFilter) {
  Rng rng(GetParam());
  Table t = RandomTable(&rng, 400);
  for (int trial = 0; trial < 10; ++trial) {
    Predicate pred({RandomClause(&rng)});
    const std::string sql =
        "SELECT i, sum(d) AS s, count(*) AS n FROM t WHERE " +
        pred.ToString() + " GROUP BY i";
    auto parsed = ParseQuery(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    QueryResult r = *ExecuteQuery(*parsed, t);

    // Oracle: filter manually, then aggregate per key.
    std::map<Value, std::pair<double, int64_t>> expect;  // key -> (sum, n)
    std::map<Value, bool> has_d;
    for (RowId row = 0; row < t.num_rows(); ++row) {
      if (!*pred.Matches(t, row)) continue;
      const Value key = t.GetValue(row, 0);
      auto& acc = expect[key];
      ++acc.second;
      if (!t.column(1).IsNull(row)) {
        acc.first += t.column(1).GetDouble(row);
        has_d[key] = true;
      }
    }
    ASSERT_EQ(r.num_groups(), expect.size()) << sql;
    size_t gi = 0;
    for (const auto& [key, acc] : expect) {
      ASSERT_EQ(r.GroupKey(gi)[0], key) << sql;
      if (has_d.count(key)) {
        ASSERT_NEAR(r.AggValue(gi, 0), acc.first, 1e-9) << sql;
      } else {
        ASSERT_TRUE(std::isnan(r.AggValue(gi, 0))) << sql;
      }
      ASSERT_EQ(r.rows->GetValue(gi, 2), Value(acc.second)) << sql;
      ++gi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorWhereOracle,
                         ::testing::Values(7, 14, 21));

// Cleaning-rewrite law: result(query AND NOT P) over any table equals
// result(query) computed over the table with P-matching rows deleted.
class CleaningRewriteLaw : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CleaningRewriteLaw, RewriteEqualsPhysicalDeletion) {
  Rng rng(GetParam());
  Table t = RandomTable(&rng, 400);
  AggregateQuery base = *ParseQuery(
      "SELECT s, avg(d) AS a, count(*) AS n FROM t GROUP BY s");
  for (int trial = 0; trial < 10; ++trial) {
    Predicate pred({AnyClause(&rng)});
    // Path 1: the session's rewrite.
    QueryResult rewritten =
        *ExecuteQuery(base.WithCleaningPredicate(pred), t);
    // Path 2: physically delete matching rows, run the base query.
    std::vector<bool> keep(t.num_rows());
    for (RowId r = 0; r < t.num_rows(); ++r) keep[r] = !*pred.Matches(t, r);
    Table physical = t.Filter(keep);
    QueryResult direct = *ExecuteQuery(base, physical);

    ASSERT_EQ(rewritten.num_groups(), direct.num_groups())
        << pred.ToString();
    for (size_t g = 0; g < direct.num_groups(); ++g) {
      ASSERT_EQ(rewritten.GroupKey(g)[0], direct.GroupKey(g)[0]);
      const double a1 = rewritten.AggValue(g, 0);
      const double a2 = direct.AggValue(g, 0);
      if (std::isnan(a1) || std::isnan(a2)) {
        ASSERT_TRUE(std::isnan(a1) && std::isnan(a2));
      } else {
        ASSERT_NEAR(a1, a2, 1e-9);
      }
      ASSERT_EQ(rewritten.rows->GetValue(g, 2), direct.rows->GetValue(g, 2));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CleaningRewriteLaw,
                         ::testing::Values(31, 62, 93));

// Incremental-clean law: IncrementalClean(result, P) over a
// lineage-captured result is byte-identical to re-executing
// `query AND NOT P` — the result JSON (group order, keys, every
// aggregate kind, NULL cells) and the lineage alike. Covered: one- and
// two-column keys, one- and two-clause predicates, NULL and NaN cells,
// chains of cleans, on a plain table and on a 4-shard set's fused view.

/// RandomTable plus `x`, a double column with NULL and NaN cells.
/// (min/max/median read `d`: their ordered containers need NaN-free
/// input.)
Table RandomTableWithNaN(Rng* rng, size_t rows) {
  Table base = RandomTable(rng, rows);
  Table t(Schema{{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"x", DataType::kDouble}},
          "t");
  for (RowId r = 0; r < base.num_rows(); ++r) {
    std::vector<Value> row = base.GetRow(r);
    row.push_back(rng->Bernoulli(0.1)   ? Value::Null()
                  : rng->Bernoulli(0.1) ? Value(std::nan(""))
                                        : Value(rng->Normal(0, 2)));
    DBW_CHECK_OK(t.AppendRow(row));
  }
  return t;
}

/// AnyClause, or (one time in three) a clause on the NaN column.
Clause RandomCleaningClause(Rng* rng) {
  if (rng->UniformInt(3u) != 0) return AnyClause(rng);
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  if (rng->Bernoulli(0.2)) {
    return Clause::In("x", {Value(0.5), Value(std::nan("")), Value(-1.0)});
  }
  return Clause::Make("x", ops[rng->UniformInt(6u)],
                      Value(rng->Bernoulli(0.3) ? 0.5 : rng->Normal(0, 2)));
}

void ExpectSameResult(const QueryResult& fast, const QueryResult& slow,
                      const std::string& context) {
  EXPECT_EQ(QueryResultToJson(fast, /*pretty=*/false),
            QueryResultToJson(slow, /*pretty=*/false))
      << context;
  EXPECT_EQ(fast.lineage, slow.lineage) << context;
}

class IncrementalCleanLaw : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalCleanLaw, MatchesFullReexecution) {
  Rng rng(GetParam());
  const Table plain = RandomTableWithNaN(&rng, 600);
  std::shared_ptr<ShardSet> shards = *ShardSet::Create(plain, 4);
  const std::vector<AggregateQuery> queries = {
      *ParseQuery("SELECT i, count(*) AS n, sum(x) AS sx, avg(x) AS ax, "
                  "stddev(x) AS sdx, var(x) AS vx, min(d) AS lo, "
                  "max(d) AS hi, median(d) AS m FROM t GROUP BY i"),
      *ParseQuery("SELECT s, i, count(*) AS n, sum(d) AS sd, avg(x) AS ax, "
                  "var(d) AS vd, min(d) AS lo, max(d) AS hi FROM t "
                  "WHERE i > -4 GROUP BY s, i"),
      // NaN keys: one group, after the numbers.
      *ParseQuery("SELECT x, count(*) AS n, sum(d) AS sd, max(d) AS hi "
                  "FROM t GROUP BY x"),
  };
  for (const Table* t : {&plain, shards->fused().get()}) {
    for (const AggregateQuery& query : queries) {
      const QueryResult original = *ExecuteQuery(query, *t);
      QueryResult chained = original;
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<Clause> clauses = {RandomCleaningClause(&rng)};
        if (rng.Bernoulli(0.5)) clauses.push_back(RandomCleaningClause(&rng));
        const Predicate pred(clauses);
        const std::string context =
            query.ToSql() + " / " + pred.ToString() +
            (t == &plain ? " (plain)" : " (fused)");

        auto fast = IncrementalClean(*t, original, pred);
        ASSERT_TRUE(fast.ok()) << context << ": " << fast.status().ToString();
        ExpectSameResult(
            *fast, *ExecuteQuery(query.WithCleaningPredicate(pred), *t),
            context);

        // The next link of a chain of cleans, against the whole chain
        // re-executed.
        auto next = IncrementalClean(*t, chained, pred);
        ASSERT_TRUE(next.ok()) << context << ": " << next.status().ToString();
        ExpectSameResult(
            *next,
            *ExecuteQuery(chained.query.WithCleaningPredicate(pred), *t),
            context + " (chained)");
        chained = *std::move(next);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalCleanLaw,
                         ::testing::Values(41, 82, 123));

TEST(IncrementalCleanTest, Validation) {
  Rng rng(1);
  Table t = RandomTable(&rng, 50);
  AggregateQuery base = *ParseQuery("SELECT i, sum(d) AS s FROM t GROUP BY i");
  QueryResult result = *ExecuteQuery(base, t);
  EXPECT_TRUE(IncrementalClean(t, result, Predicate::True()).status()
                  .IsInvalidArgument());
  ExecOptions no_lineage;
  no_lineage.capture_lineage = false;
  QueryResult bare = *ExecuteQuery(base, t, no_lineage);
  Predicate pred({Clause::Make("d", CompareOp::kGt, Value(0.0))});
  EXPECT_TRUE(IncrementalClean(t, bare, pred).status().IsInvalidArgument());
}

// ---------- delta scoring engine ----------

// Regression (sortedness hazard): ValuesAfterRemoval binary-searches
// the removed set, so unsorted input used to return silently wrong
// values; it must be rejected instead.
TEST(RemovalSortednessTest, UnsortedRemovedSetRejected) {
  Rng rng(9);
  Table t = RandomTable(&rng, 100);
  AggregateQuery q = *ParseQuery("SELECT i, sum(d) AS s FROM t GROUP BY i");
  QueryResult result = *ExecuteQuery(q, t);
  std::vector<size_t> groups(result.num_groups());
  for (size_t g = 0; g < groups.size(); ++g) groups[g] = g;
  auto metric = TooHigh(0.0);

  const std::vector<RowId> unsorted = {40, 7, 23};
  EXPECT_TRUE(ValuesAfterRemoval(t, result, groups, 0, unsorted)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ErrorAfterRemoval(t, result, groups, *metric, 0, unsorted)
                  .status()
                  .IsInvalidArgument());

  std::vector<RowId> sorted = unsorted;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(ValuesAfterRemoval(t, result, groups, 0, sorted).ok());
}

// RemovalScorer finds each lineage row's position in F by a search, so
// an F that does not strictly ascend is refused rather than misread.
TEST(RemovalSortednessTest, ScorerRefusesUnsortedOrDuplicatedSuspects) {
  Rng rng(9);
  Table t = RandomTable(&rng, 100);
  AggregateQuery q = *ParseQuery("SELECT i, sum(d) AS s FROM t GROUP BY i");
  QueryResult result = *ExecuteQuery(q, t);
  std::vector<size_t> groups(result.num_groups());
  for (size_t g = 0; g < groups.size(); ++g) groups[g] = g;
  const std::vector<RowId> suspects = result.lineage.BackwardUnion(groups);
  ASSERT_GE(suspects.size(), 3u);
  EXPECT_TRUE(RemovalScorer::Create(t, result, groups, 0, suspects).ok());

  std::vector<RowId> unsorted = suspects;
  std::swap(unsorted[0], unsorted[1]);
  EXPECT_TRUE(RemovalScorer::Create(t, result, groups, 0, unsorted)
                  .status()
                  .IsInvalidArgument());

  std::vector<RowId> duplicated = suspects;
  duplicated.insert(duplicated.begin() + 1, suspects[1]);
  EXPECT_TRUE(RemovalScorer::Create(t, result, groups, 0, duplicated)
                  .status()
                  .IsInvalidArgument());
}

// RemovalScorer must agree with the from-scratch recomputation for
// every aggregate kind and arbitrary removal subsets — whichever of
// its entry points (bitmap, row ids) is used.
class RemovalScorerEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RemovalScorerEquivalence, MatchesFromScratchRecomputation) {
  Rng rng(GetParam());
  Table t = RandomTable(&rng, 400);
  for (const char* agg :
       {"count(*)", "sum(d)", "avg(d)", "min(d)", "max(d)", "stddev(d)",
        "var(d)", "median(d)"}) {
    const std::string sql =
        "SELECT i, " + std::string(agg) + " AS x FROM t GROUP BY i";
    QueryResult result = *ExecuteQuery(*ParseQuery(sql), t);
    ASSERT_GT(result.num_groups(), 2u) << sql;
    // Select a subset of groups, as the pipeline does.
    std::vector<size_t> selected;
    for (size_t g = 0; g < result.num_groups(); g += 2) selected.push_back(g);
    const std::vector<RowId> suspects = result.lineage.BackwardUnion(selected);
    if (suspects.empty()) continue;

    auto scorer_or =
        RemovalScorer::Create(t, result, selected, 0, suspects);
    ASSERT_TRUE(scorer_or.ok()) << sql;
    const RemovalScorer& scorer = *scorer_or;

    for (int trial = 0; trial < 15; ++trial) {
      Bitmap bm(suspects.size());
      std::vector<RowId> removed;
      const double p = trial < 5 ? 0.1 : (trial < 10 ? 0.5 : 0.95);
      for (size_t i = 0; i < suspects.size(); ++i) {
        if (rng.Bernoulli(p)) {
          bm.Set(i);
          removed.push_back(suspects[i]);
        }
      }
      const std::vector<double> want =
          *ValuesAfterRemoval(t, result, selected, 0, removed);
      const std::vector<double> via_bitmap = scorer.ValuesAfterRemoval(bm);
      const std::vector<double> via_rows =
          scorer.ValuesAfterRemovalRows(removed);
      ASSERT_EQ(want.size(), via_bitmap.size());
      for (size_t g = 0; g < want.size(); ++g) {
        if (std::isnan(want[g])) {
          ASSERT_TRUE(std::isnan(via_bitmap[g])) << sql << " group " << g;
          ASSERT_TRUE(std::isnan(via_rows[g])) << sql << " group " << g;
          continue;
        }
        const double tol =
            1e-9 * std::max(1.0, std::abs(want[g]));
        ASSERT_NEAR(via_bitmap[g], want[g], tol) << sql << " group " << g;
        ASSERT_NEAR(via_rows[g], want[g], tol) << sql << " group " << g;
      }
      // Rows outside the suspect set cannot affect selected groups and
      // must be ignored by the row-based entry point.
      std::vector<RowId> with_foreign = removed;
      for (RowId r = 0; r < t.num_rows(); ++r) {
        if (!std::binary_search(suspects.begin(), suspects.end(), r)) {
          with_foreign.push_back(r);
          break;
        }
      }
      const std::vector<double> via_foreign =
          scorer.ValuesAfterRemovalRows(with_foreign);
      for (size_t g = 0; g < want.size(); ++g) {
        if (std::isnan(via_rows[g])) {
          ASSERT_TRUE(std::isnan(via_foreign[g]));
        } else {
          ASSERT_DOUBLE_EQ(via_foreign[g], via_rows[g]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RemovalScorerEquivalence,
                         ::testing::Values(61, 122, 183));

// Tuple-set dedup must be exact: predicates removing the same tuples
// collapse to the best description, predicates removing different
// tuples never do (a hash alone could collapse them by collision).
TEST(RankerDedupTest, EqualSetsCollapseDistinctSetsSurvive) {
  // Columns a and b are identical, so `a <= k` and `b <= k` describe
  // the same repair; `a <= 1` is a different repair.
  Table t(Schema{{"g", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"a", DataType::kInt64},
                 {"b", DataType::kInt64}},
          "t");
  for (int i = 0; i < 40; ++i) {
    const int64_t code = i % 4;
    DBW_CHECK_OK(t.AppendRow({Value(int64_t{i % 2}),
                              Value(100.0 + code * 10.0), Value(code),
                              Value(code)}));
  }
  QueryResult result =
      *ExecuteQuery(*ParseQuery("SELECT g, avg(v) AS x FROM t GROUP BY g"), t);
  std::vector<size_t> selected = {0, 1};
  const std::vector<RowId> suspects = result.lineage.BackwardUnion(selected);

  auto make = [](Clause c) {
    EnumeratedPredicate ep;
    ep.predicate = Predicate({std::move(c)});
    ep.strategy = "test";
    return ep;
  };
  std::vector<EnumeratedPredicate> predicates;
  predicates.push_back(make(Clause::Make("a", CompareOp::kLe,
                                         Value(int64_t{2}))));
  predicates.push_back(make(Clause::Make("b", CompareOp::kLe,
                                         Value(int64_t{2}))));
  predicates.push_back(make(Clause::Make("a", CompareOp::kLe,
                                         Value(int64_t{1}))));

  auto metric = TooHigh(100.0);
  for (auto engine : {RankerOptions::Engine::kDeltaParallel,
                      RankerOptions::Engine::kReferenceSerial}) {
    RankerOptions opts;
    opts.engine = engine;
    PredicateRanker ranker(opts);
    auto ranked = ranker.Rank(t, result, selected, *metric, 0, suspects,
                              /*reference_positive=*/{},
                              /*per_group_baseline=*/20.0, predicates);
    ASSERT_TRUE(ranked.ok());
    // The a/b twins collapsed; the tighter predicate survives.
    ASSERT_EQ(ranked->size(), 2u);
    EXPECT_NE((*ranked)[0].predicate.CanonicalString(),
              (*ranked)[1].predicate.CanonicalString());
  }
}

// ---------- ranking engine equivalence on the demo scenarios ----------

struct RankSignature {
  std::vector<std::string> order;  // canonical predicate + strategy
  std::vector<double> scores;
  std::vector<size_t> matched;
};

RankSignature SignatureOf(const Explanation& exp) {
  RankSignature sig;
  for (const RankedPredicate& rp : exp.predicates) {
    sig.order.push_back(rp.predicate.CanonicalString() + " | " + rp.strategy);
    sig.scores.push_back(rp.score);
    sig.matched.push_back(rp.matched_in_suspects);
  }
  return sig;
}

/// Runs a full demo-scenario pipeline under the given ranker engine /
/// thread count and returns the ranked output's signature.
template <typename SessionSetup>
RankSignature RunScenario(const LabeledDataset& data,
                          const SessionSetup& setup,
                          RankerOptions::Engine engine, size_t threads) {
  ExplainOptions options;
  options.ranker.engine = engine;
  options.ranker.num_threads = threads;
  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);
  Session session(db, options);
  setup(&session);
  auto exp = session.Debug();
  DBW_CHECK_OK(exp.status());
  return SignatureOf(*exp);
}

/// The delta+parallel engine must produce byte-identical orderings to
/// the serial reference, and identical output at every thread count.
template <typename SessionSetup>
void CheckEngineEquivalence(const LabeledDataset& data,
                            const SessionSetup& setup) {
  const RankSignature reference = RunScenario(
      data, setup, RankerOptions::Engine::kReferenceSerial, 1);
  ASSERT_FALSE(reference.order.empty());
  for (size_t threads : {1u, 2u, 8u}) {
    const RankSignature delta = RunScenario(
        data, setup, RankerOptions::Engine::kDeltaParallel, threads);
    ASSERT_EQ(delta.order, reference.order) << threads << " threads";
    ASSERT_EQ(delta.matched, reference.matched);
    ASSERT_EQ(delta.scores.size(), reference.scores.size());
    for (size_t i = 0; i < reference.scores.size(); ++i) {
      // Delta removal may differ from a fresh fold in the last ulps.
      EXPECT_NEAR(delta.scores[i], reference.scores[i], 1e-9);
    }
  }
  // Determinism across runs at the same thread count.
  const RankSignature again = RunScenario(
      data, setup, RankerOptions::Engine::kDeltaParallel, 8);
  const RankSignature once = RunScenario(
      data, setup, RankerOptions::Engine::kDeltaParallel, 8);
  ASSERT_EQ(again.order, once.order);
  ASSERT_EQ(again.scores, once.scores);  // bitwise: same FP operations
}

TEST(RankerEngineEquivalence, IntelScenario) {
  IntelOptions gen;
  gen.duration_days = 3;
  gen.reading_interval_minutes = 10.0;
  gen.faults = {{15, 1 * 1440, 600, 122.0}, {18, 2 * 1440, 600, 110.0}};
  LabeledDataset data = *GenerateIntelDataset(gen);
  CheckEngineEquivalence(data, [](Session* session) {
    DBW_CHECK_OK(session->ExecuteSql(
        "SELECT window, avg(temp) AS t, stddev(temp) AS sd "
        "FROM readings GROUP BY window"));
    DBW_CHECK_OK(session->SelectResultsInRange("sd", 8.0, 1e9));
    DBW_CHECK_OK(session->SelectInputsWhere("temp > 100"));
    DBW_CHECK_OK(session->SetMetric(TooHigh(2.0), /*agg_index=*/1));
  });
}

TEST(RankerEngineEquivalence, FecScenario) {
  FecOptions gen;
  gen.num_donations = 12000;
  gen.num_reattributions = 120;
  LabeledDataset data = *GenerateFecDataset(gen);
  CheckEngineEquivalence(data, [](Session* session) {
    DBW_CHECK_OK(session->ExecuteSql(
        "SELECT day, sum(amount) AS total FROM donations "
        "WHERE candidate = 'MCCAIN' GROUP BY day"));
    DBW_CHECK_OK(session->SelectResultsInRange("total", -1e15, -1.0));
    DBW_CHECK_OK(session->SelectInputsWhere("amount < 0"));
    DBW_CHECK_OK(session->SetMetric(TooLow(0.0)));
  });
}

}  // namespace
}  // namespace dbwipes
