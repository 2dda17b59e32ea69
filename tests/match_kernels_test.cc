// Property tests for the vectorized match kernels: on randomized
// tables (nulls, NaN doubles, int64 columns probed with double
// literals, string literals absent from the dictionary, literals of
// the other type) the kernel path (CompileClause/MatchEngine) must
// agree bit-for-bit with boxed Predicate::Matches, at every thread
// count; only a clause on an unknown column fails, with NotFound.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "dbwipes/common/random.h"
#include "dbwipes/expr/match_kernels.h"
#include "dbwipes/expr/predicate.h"

namespace dbwipes {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// int64 (10% null), double (10% null, 10% NaN among non-nulls),
/// string from a small dictionary (10% null).
Table RandomTable(Rng* rng, size_t rows) {
  Table t(Schema{{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString}},
          "t");
  const char* cats[] = {"red", "green", "blue", "red-ish"};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row(3);
    row[0] = rng->Bernoulli(0.1) ? Value::Null()
                                 : Value(rng->UniformInt(-5, 5));
    if (rng->Bernoulli(0.1)) {
      row[1] = Value::Null();
    } else {
      row[1] = Value(rng->Bernoulli(0.1) ? kNaN : rng->Normal(0, 2));
    }
    row[2] = rng->Bernoulli(0.1)
                 ? Value::Null()
                 : Value(std::string(cats[rng->UniformInt(4u)]));
    DBW_CHECK_OK(t.AppendRow(row));
  }
  return t;
}

constexpr CompareOp kBinaryOps[] = {CompareOp::kEq, CompareOp::kNe,
                                    CompareOp::kLt, CompareOp::kLe,
                                    CompareOp::kGt, CompareOp::kGe};

/// A clause whose literal is not of its column's type, or NULL:
/// Clause::Matches answers each by Value's type order.
Clause IllTypedClause(Rng* rng) {
  const CompareOp op = kBinaryOps[rng->UniformInt(6u)];
  switch (rng->UniformInt(6u)) {
    case 0:  // ordered comparison on a string column
      return Clause::Make("s", op, Value("c"));
    case 1:
      return Clause::Make("s", op, Value(int64_t{5}));
    case 2:
      return Clause::Make("d", op, Value("x"));
    case 3:
      return Clause::In(rng->Bernoulli(0.5) ? "i" : "s",
                        {Value("red"), Value(int64_t{1}), Value::Null()});
    case 4:
      return Clause::Make(rng->Bernoulli(0.5) ? "i" : "d",
                          CompareOp::kContains, Value("1"));
    default:
      return Clause::Make(rng->Bernoulli(0.5) ? "i" : "s", op, Value::Null());
  }
}

/// Every CompareOp appears: the six binary comparisons on both numeric
/// columns (the int64 column is probed with both int64 and double
/// literals to exercise the widening path), string eq/ne with literals
/// both present in and absent from the dictionary, IN over numbers and
/// strings (with an absent member), CONTAINS, and IllTypedClause.
Clause RandomClause(Rng* rng) {
  switch (rng->UniformInt(8u)) {
    case 0:
      return Clause::Make("i", kBinaryOps[rng->UniformInt(6u)],
                          Value(rng->UniformInt(-5, 5)));
    case 1:  // double literal against the int64 column
      return Clause::Make("i", kBinaryOps[rng->UniformInt(6u)],
                          Value(rng->UniformDouble(-5.5, 5.5)));
    case 2:
      return Clause::Make("d", kBinaryOps[rng->UniformInt(6u)],
                          Value(rng->Normal(0, 2)));
    case 3:
      return Clause::Make("s", rng->Bernoulli(0.5) ? CompareOp::kEq
                                                   : CompareOp::kNe,
                          Value(rng->Bernoulli(0.7) ? "red" : "missing"));
    case 4:
      return Clause::In("s", {Value("green"), Value("blue"),
                              Value("missing")});
    case 5:
      return Clause::In("i", {Value(int64_t{0}), Value(2.0),
                              Value(int64_t{-3})});
    case 6:
      return Clause::Make("s", CompareOp::kContains,
                          Value(rng->Bernoulli(0.5) ? "red" : "ee"));
    default:
      return IllTypedClause(rng);
  }
}

/// Boxed Predicate::Matches over `rows`: bit i answers rows[i].
Bitmap BoxedBits(const Predicate& pred, const Table& t,
                 const std::vector<RowId>& rows) {
  Bitmap out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (*pred.Matches(t, rows[i])) out.Set(i);
  }
  return out;
}

/// Random strict subset of the table's rows (sorted, may repeat across
/// trials); sometimes the full table.
std::vector<RowId> RandomUniverse(Rng* rng, size_t num_rows) {
  std::vector<RowId> rows;
  if (rng->Bernoulli(0.3)) {
    for (RowId r = 0; r < num_rows; ++r) rows.push_back(r);
    return rows;
  }
  for (RowId r = 0; r < num_rows; ++r) {
    if (rng->Bernoulli(0.6)) rows.push_back(r);
  }
  return rows;
}

class KernelBoxedEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelBoxedEquivalence, AgreesWithBoxedPaths) {
  Rng rng(GetParam());
  Table t = RandomTable(&rng, 500);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Clause> clauses;
    const size_t n = 1 + rng.UniformInt(3u);
    for (size_t i = 0; i < n; ++i) clauses.push_back(RandomClause(&rng));
    Predicate pred(clauses);
    std::vector<RowId> rows = RandomUniverse(&rng, t.num_rows());

    MatchEngine engine(t, rows);
    auto kernel = engine.Match(pred);
    ASSERT_TRUE(kernel.ok()) << pred.ToString() << ": "
                             << kernel.status().ToString();

    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(kernel->Test(i), *pred.Matches(t, rows[i]))
          << pred.ToString() << " row " << rows[i];
    }
  }
}

TEST_P(KernelBoxedEquivalence, DeterministicAtAnyThreadCount) {
  Rng rng(GetParam() ^ 0xABCDEF);
  Table t = RandomTable(&rng, 2000);
  std::vector<const Predicate*> preds;
  std::vector<Predicate> storage;
  for (int i = 0; i < 10; ++i) {
    storage.push_back(Predicate({RandomClause(&rng), RandomClause(&rng)}));
  }
  for (const Predicate& p : storage) preds.push_back(&p);

  std::vector<RowId> rows;
  for (RowId r = 0; r < t.num_rows(); ++r) rows.push_back(r);

  ParallelOptions serial;
  serial.num_threads = 1;
  ParallelOptions parallel;
  parallel.num_threads = 4;
  parallel.min_items_for_threading = 1;

  MatchEngine e1(t, rows);
  MatchEngine e4(t, rows);
  DBW_CHECK_OK(e1.Materialize(preds, serial));
  DBW_CHECK_OK(e4.Materialize(preds, parallel));
  for (const Predicate* p : preds) {
    ASSERT_TRUE(*e1.MatchPrepared(*p) == *e4.MatchPrepared(*p))
        << p->ToString();
  }
}

// Numeric IN sets holding no comparable value — empty, or only NaN
// (NaN is IN nothing) — leave an op with no IN data. Over full 64-row
// blocks they must still take the scalar IN body at every tier and
// match nothing, alone and in a conjunction, exactly like the boxed
// oracle.
TEST_P(KernelBoxedEquivalence, EmptyAndNaNInSetsAgreeWithBoxedPaths) {
  Rng rng(GetParam() ^ 0x1Eu);
  Table t = RandomTable(&rng, 500);
  std::vector<RowId> all;
  for (RowId r = 0; r < t.num_rows(); ++r) all.push_back(r);
  const std::vector<Clause> empty_sets = {
      Clause::In("i", {}), Clause::In("i", {Value(kNaN)}),
      Clause::In("d", {}), Clause::In("d", {Value(kNaN)})};
  for (const Clause& in : empty_sets) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<RowId> rows =
          trial == 0 ? all : RandomUniverse(&rng, t.num_rows());
      for (const Predicate& pred :
           {Predicate({in}), Predicate({RandomClause(&rng), in})}) {
        MatchEngine engine(t, rows);
        auto kernel = engine.Match(pred);
        ASSERT_TRUE(kernel.ok()) << pred.ToString() << ": "
                                 << kernel.status().ToString();
        EXPECT_EQ(kernel->CountOnes(), 0u) << pred.ToString();
        ASSERT_TRUE(*kernel == BoxedBits(pred, t, rows)) << pred.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelBoxedEquivalence,
                         ::testing::Values(7u, 41u, 1234u));

TEST(MatchEngine, AbsentStringLiteralNeverMatchesNulls) {
  Table t(Schema{{"s", DataType::kString}}, "t");
  DBW_CHECK_OK(t.AppendRow({Value("red")}));
  DBW_CHECK_OK(t.AppendRow({Value::Null()}));
  DBW_CHECK_OK(t.AppendRow({Value("blue")}));
  MatchEngine engine(t, {0, 1, 2});

  auto eq = engine.Match(
      Predicate({Clause::Make("s", CompareOp::kEq, Value("missing"))}));
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->CountOnes(), 0u);  // not the null row either

  auto ne = engine.Match(
      Predicate({Clause::Make("s", CompareOp::kNe, Value("missing"))}));
  ASSERT_TRUE(ne.ok());
  EXPECT_TRUE(ne->Test(0));
  EXPECT_FALSE(ne->Test(1));  // NULL never matches
  EXPECT_TRUE(ne->Test(2));
}

TEST(MatchEngine, SharedClausesAreCachedOnce) {
  Rng rng(99);
  Table t = RandomTable(&rng, 200);
  std::vector<RowId> rows;
  for (RowId r = 0; r < t.num_rows(); ++r) rows.push_back(r);

  const Clause shared = Clause::Make("i", CompareOp::kLe, Value(int64_t{2}));
  Predicate p1({shared, Clause::Make("d", CompareOp::kGt, Value(0.0))});
  Predicate p2({shared, Clause::Make("s", CompareOp::kEq, Value("red"))});

  MatchEngine engine(t, rows);
  DBW_CHECK_OK(engine.Materialize({&p1, &p2}));
  // One bitmap per distinct clause and one lookup per clause
  // occurrence: the shared clause misses once, then hits once.
  EXPECT_EQ(engine.num_cached_clauses(), 3u);
  EXPECT_EQ(engine.bitmaps_materialized(), 3u);
  EXPECT_EQ(engine.cache_misses(), 3u);
  EXPECT_EQ(engine.cache_hits(), 1u);

  // Re-materializing the batch is all hits.
  DBW_CHECK_OK(engine.Materialize({&p1, &p2}));
  EXPECT_EQ(engine.num_cached_clauses(), 3u);
  EXPECT_EQ(engine.cache_misses(), 3u);
  EXPECT_EQ(engine.cache_hits(), 5u);

  // ClauseBitmap obeys the same law clause by clause.
  MatchEngine plain(t, rows);
  for (const Predicate* p : {&p1, &p2}) {
    for (const Clause& c : p->clauses()) {
      ASSERT_TRUE(plain.ClauseBitmap(c).ok()) << c.ToString();
    }
  }
  EXPECT_EQ(plain.num_cached_clauses(), 3u);  // shared counted once
  EXPECT_EQ(plain.cache_misses(), 3u);
  EXPECT_EQ(plain.cache_hits(), 1u);
}

// Literals of the other type, or NULL, compile like any other clause:
// the engine's bits are boxed Predicate::Matches', alone, in a
// conjunction and through ClauseBitmap.
TEST(MatchEngine, IllTypedClauseGivesBoxedMatches) {
  Rng rng(7);
  Table t = RandomTable(&rng, 300);
  std::vector<RowId> rows;
  for (RowId r = 0; r < t.num_rows(); ++r) rows.push_back(r);
  const std::vector<Clause> clauses = {
      Clause::Make("s", CompareOp::kGt, Value("c")),
      Clause::Make("s", CompareOp::kEq, Value(int64_t{5})),
      Clause::Make("s", CompareOp::kNe, Value(int64_t{5})),
      Clause::Make("d", CompareOp::kEq, Value("x")),
      Clause::Make("d", CompareOp::kLt, Value("x")),
      Clause::In("i", {Value("a"), Value(int64_t{1})}),
      Clause::Make("i", CompareOp::kContains, Value("1")),
      Clause::Make("i", CompareOp::kGe, Value::Null()),
      Clause::Make("s", CompareOp::kNe, Value::Null())};
  for (const Clause& c : clauses) {
    for (const Predicate& pred :
         {Predicate({c}),
          Predicate({Clause::Make("d", CompareOp::kLt, Value(1.0)), c})}) {
      MatchEngine engine(t, rows);
      auto bm = engine.Match(pred);
      ASSERT_TRUE(bm.ok()) << pred.ToString() << ": " << bm.status().ToString();
      EXPECT_TRUE(*bm == BoxedBits(pred, t, rows)) << pred.ToString();
    }
    MatchEngine engine(t, rows);
    auto bits = engine.ClauseBitmap(c);
    ASSERT_TRUE(bits.ok()) << c.ToString();
    EXPECT_TRUE(**bits == BoxedBits(Predicate({c}), t, rows)) << c.ToString();
  }
}

// A clause on an unknown column is the one that fails: it is cached
// with its NotFound, which every entry point returns, also inside a
// conjunction, while the rest of its batch materializes.
TEST(MatchEngine, UnknownColumnIsCachedWithNotFound) {
  Rng rng(7);
  Table t = RandomTable(&rng, 50);
  const Clause unknown = Clause::Make("nosuch", CompareOp::kEq, Value(1.0));
  const std::string not_found =
      t.schema().GetIndex("nosuch").status().ToString();

  MatchEngine engine(t, {0, 1, 2});
  auto bm = engine.Match(Predicate({unknown}));
  ASSERT_FALSE(bm.ok());
  EXPECT_TRUE(bm.status().IsNotFound());
  EXPECT_EQ(bm.status().ToString(), not_found);
  auto clause = engine.ClauseBitmap(unknown);
  ASSERT_FALSE(clause.ok());
  EXPECT_EQ(clause.status().ToString(), not_found);

  Predicate mixed({Clause::Make("i", CompareOp::kGe, Value(int64_t{0})),
                   unknown});
  Predicate good({Clause::Make("d", CompareOp::kLt, Value(1.0))});
  MatchEngine batch(t, {0, 1, 2});
  ASSERT_TRUE(batch.Materialize({&mixed, &good}).ok());
  EXPECT_EQ(batch.num_cached_clauses(), 3u);
  EXPECT_EQ(batch.bitmaps_materialized(), 2u);
  auto mixed_bm = batch.MatchPrepared(mixed);
  ASSERT_FALSE(mixed_bm.ok());
  EXPECT_EQ(mixed_bm.status().ToString(), not_found);
  EXPECT_TRUE(batch.MatchPrepared(good).ok());
}

/// Rows: (1, 10, red), (2, 20, blue), (3, NULL, red), (NULL, 40, green).
Table SmallTable() {
  Table t(Schema{{"x", DataType::kInt64},
                 {"y", DataType::kDouble},
                 {"s", DataType::kString}},
          "t");
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(10.0), Value("red")}));
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value(20.0), Value("blue")}));
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{3}), Value::Null(), Value("red")}));
  DBW_CHECK_OK(t.AppendRow({Value::Null(), Value(40.0), Value("green")}));
  return t;
}

/// Positions of the set bits.
std::vector<RowId> SetBits(const Bitmap& bits) {
  std::vector<RowId> out;
  for (size_t i = 0; i < bits.num_bits(); ++i) {
    if (bits.Test(i)) out.push_back(static_cast<RowId>(i));
  }
  return out;
}

TEST(MatchEngine, StringEqualityForAbsentLiteral) {
  Table t = SmallTable();
  MatchEngine engine(t, {0, 1, 2, 3});
  auto eq = engine.Match(
      Predicate({Clause::Make("s", CompareOp::kEq, Value("missing"))}));
  EXPECT_TRUE(SetBits(*eq).empty());
  auto ne = engine.Match(
      Predicate({Clause::Make("s", CompareOp::kNe, Value("missing"))}));
  EXPECT_EQ(SetBits(*ne).size(), 4u);
}

TEST(MatchEngine, InClause) {
  Table t = SmallTable();
  MatchEngine engine(t, {0, 1, 2, 3});
  auto strings = engine.Match(
      Predicate({Clause::In("s", {Value("red"), Value("green")})}));
  EXPECT_EQ(SetBits(*strings), (std::vector<RowId>{0, 2, 3}));
  auto nums = engine.Match(
      Predicate({Clause::In("x", {Value(int64_t{1}), Value(int64_t{3})})}));
  EXPECT_EQ(SetBits(*nums), (std::vector<RowId>{0, 2}));
}

TEST(MatchEngine, RejectsMatchAfterTableAppend) {
  Table t(Schema{{"i", DataType::kInt64}}, "t");
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1})}));
  MatchEngine engine(t, {0});
  Predicate pred({Clause::Make("i", CompareOp::kEq, Value(int64_t{1}))});
  ASSERT_TRUE(engine.Match(pred).ok());

  DBW_CHECK_OK(t.AppendRow({Value(int64_t{2})}));
  auto stale = engine.Match(pred);
  ASSERT_FALSE(stale.ok());  // snapshot invalidated by append
}

TEST(MatchEngine, EmptyPredicateMatchesEverything) {
  Rng rng(3);
  Table t = RandomTable(&rng, 130);  // not a multiple of 64: tail word
  std::vector<RowId> rows;
  for (RowId r = 0; r < t.num_rows(); ++r) rows.push_back(r);
  MatchEngine engine(t, rows);
  auto bm = engine.Match(Predicate::True());
  ASSERT_TRUE(bm.ok());
  EXPECT_EQ(bm->CountOnes(), rows.size());
}

}  // namespace
}  // namespace dbwipes
