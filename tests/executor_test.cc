// The vectorized executor (bitmap WHERE, typed group keys, one fold
// per aggregate, CSR lineage) against the row-at-a-time reference in
// reference_executor.h: on random tables and queries both must give
// the same result JSON bytes, the same lineage and the same error
// Status, on a plain table and on a 4-shard set's fused view, at the
// tier the environment selects and at the forced scalar tier. Key
// columns are NaN-free there because the reference splits NaN keys;
// the NaN-key rule has its own tests below.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>

#include "dbwipes/common/random.h"
#include "dbwipes/core/export.h"
#include "dbwipes/expr/bool_expr.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/query/executor.h"
#include "dbwipes/query/incremental.h"
#include "dbwipes/storage/shard.h"
#include "reference_executor.h"

namespace dbwipes {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<RowId> LineageOf(const QueryResult& r, size_t group) {
  const std::span<const RowId> rows = r.lineage[group];
  return {rows.begin(), rows.end()};
}

/// i: int64 with NULLs; k: small int64 range, no NULLs; d: double with
/// NULLs, NaN-free; x: double with NULLs and NaNs; z: ±0.0 and a few
/// other keys with NULLs; s, t: strings with NULLs.
Table OracleTable(Rng* rng, size_t rows) {
  Table t(Schema{{"i", DataType::kInt64},
                 {"k", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"x", DataType::kDouble},
                 {"z", DataType::kDouble},
                 {"s", DataType::kString},
                 {"t", DataType::kString}},
          "t");
  const char* colors[] = {"red", "green", "blue", "red-ish", "cyan"};
  const char* sizes[] = {"s", "m", "l"};
  const double zs[] = {0.0, -0.0, 1.5, -2.25};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row(7);
    row[0] = rng->Bernoulli(0.1) ? Value::Null()
                                 : Value(rng->UniformInt(-5, 5));
    row[1] = Value(rng->UniformInt(0, 3));
    row[2] = rng->Bernoulli(0.1) ? Value::Null() : Value(rng->Normal(0, 2));
    row[3] = rng->Bernoulli(0.1)   ? Value::Null()
             : rng->Bernoulli(0.1) ? Value(kNaN)
                                   : Value(rng->Normal(0, 2));
    row[4] = rng->Bernoulli(0.1) ? Value::Null()
                                 : Value(zs[rng->UniformInt(4u)]);
    row[5] = rng->Bernoulli(0.1)
                 ? Value::Null()
                 : Value(std::string(colors[rng->UniformInt(5u)]));
    row[6] = rng->Bernoulli(0.1)
                 ? Value::Null()
                 : Value(std::string(sizes[rng->UniformInt(3u)]));
    DBW_CHECK_OK(t.AppendRow(row));
  }
  return t;
}

CompareOp RandomOp(Rng* rng) {
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  return ops[rng->UniformInt(6u)];
}

/// Every clause form the WHERE accepts, including literals of the
/// other type (`s > 'c'`, `s = 5`, `d = 'x'`, `i IN ('a', 1)`) and
/// their relatives.
Clause RandomLeaf(Rng* rng) {
  switch (rng->UniformInt(14u)) {
    case 0:
      return Clause::Make("i", RandomOp(rng), Value(rng->UniformInt(-5, 5)));
    case 1:
      return Clause::Make("d", RandomOp(rng), Value(rng->Normal(0, 2)));
    case 2:
      return Clause::Make("x", RandomOp(rng),
                          rng->Bernoulli(0.3) ? Value(kNaN)
                                              : Value(rng->Normal(0, 2)));
    case 3:
      return Clause::Make("z", rng->Bernoulli(0.5) ? CompareOp::kEq
                                                   : CompareOp::kNe,
                          Value(rng->Bernoulli(0.5) ? 0.0 : -0.0));
    case 4:
      return Clause::Make("s", rng->Bernoulli(0.5) ? CompareOp::kEq
                                                   : CompareOp::kNe,
                          Value(rng->Bernoulli(0.8) ? "red" : "missing"));
    case 5:
      return Clause::In("s", {Value("green"), Value("blue")});
    case 6:
      return Clause::In("x", {Value(0.5), Value(kNaN), Value(int64_t{1})});
    case 7:
      return Clause::Make("s", CompareOp::kContains, Value("re"));
    // Rejected by the kernels; Clause::Matches decides.
    case 8:
      return Clause::Make("s", RandomOp(rng), Value("c"));  // s > 'c'
    case 9:
      return Clause::Make("t", RandomOp(rng), Value(int64_t{5}));  // t = 5
    case 10:
      return Clause::Make("d", RandomOp(rng),
                          rng->Bernoulli(0.8) ? Value("x") : Value::Null());
    case 11:
      return Clause::In("i", {Value("a"), Value(int64_t{1}), Value::Null(),
                              Value(2.0)});
    case 12:
      return Clause::In("s", {Value("red"), Value(int64_t{1})});
    default:
      return Clause::Make(rng->Bernoulli(0.5) ? "k" : "t",
                          CompareOp::kContains,
                          rng->Bernoulli(0.5) ? Value("m") : Value(int64_t{1}));
  }
}

/// TRUE, leaves, and nested AND / OR / NOT.
BoolExprPtr RandomWhere(Rng* rng, int depth) {
  const uint64_t pick = depth == 0 ? 0 : rng->UniformInt(6u);
  switch (pick) {
    case 1:
    case 2:
      return MakeAnd(RandomWhere(rng, depth - 1), RandomWhere(rng, depth - 1));
    case 3:
      return MakeOr(RandomWhere(rng, depth - 1), RandomWhere(rng, depth - 1));
    case 4:
      return MakeNot(RandomWhere(rng, depth - 1));
    case 5:
      return rng->Bernoulli(0.5) ? MakeTrue() : MakeNot(MakeTrue());
    default:
      return MakeComparison(RandomLeaf(rng));
  }
}

ScalarExprPtr Abs(ScalarExprPtr arg) {
  return std::make_shared<FunctionExpr>(
      "abs", +[](double v) { return std::fabs(v); }, std::move(arg));
}

/// Every aggregate kind over plain, compound and string-column
/// arguments. min/max/median read NaN-free inputs: their ordered
/// containers need them.
AggSpec RandomAgg(Rng* rng, size_t index) {
  AggSpec spec;
  spec.output_name = "a" + std::to_string(index);
  const ScalarExprPtr nan_free[] = {Col("d"), Col("i"), Col("k"),
                                    Mul(Col("d"), Lit(Value(2.0))),
                                    Add(Col("i"), Col("d")), Abs(Col("d"))};
  const ScalarExprPtr any[] = {Col("x"), Col("z"),
                               Div(Col("x"), Col("i")),
                               Sub(Col("k"), Lit(Value(int64_t{1})))};
  switch (rng->UniformInt(10u)) {
    case 0:
      spec.kind = AggKind::kCount;  // count(*)
      return spec;
    case 1:
      spec.kind = AggKind::kCount;
      spec.argument = rng->Bernoulli(0.5) ? Col("x") : Col("s");
      return spec;
    case 2:
      // A string argument fails at the first non-null passing row.
      spec.kind = rng->Bernoulli(0.5) ? AggKind::kSum : AggKind::kAvg;
      spec.argument = Col(rng->Bernoulli(0.5) ? "s" : "t");
      return spec;
    case 3:
    case 4:
    case 5: {
      const AggKind kinds[] = {AggKind::kMin, AggKind::kMax, AggKind::kMedian};
      spec.kind = kinds[rng->UniformInt(3u)];
      spec.argument = nan_free[rng->UniformInt(6u)];
      return spec;
    }
    default: {
      const AggKind kinds[] = {AggKind::kSum, AggKind::kAvg, AggKind::kStddev,
                               AggKind::kVar};
      spec.kind = kinds[rng->UniformInt(4u)];
      spec.argument = rng->Bernoulli(0.5) ? nan_free[rng->UniformInt(6u)]
                                          : any[rng->UniformInt(4u)];
      return spec;
    }
  }
}

/// Zero to three NaN-free key columns, string and NULL keys included.
AggregateQuery RandomQuery(Rng* rng) {
  AggregateQuery q;
  q.table_name = "t";
  q.where = RandomWhere(rng, 3);
  std::vector<std::string> keys = {"i", "k", "z", "s", "t"};
  rng->Shuffle(&keys);
  keys.resize(rng->UniformInt(4u));
  q.group_by = keys;
  const size_t num_aggs = 1 + rng->UniformInt(4u);
  for (size_t a = 0; a < num_aggs; ++a) {
    q.aggregates.push_back(RandomAgg(rng, a));
  }
  return q;
}

/// Calls fn at the tier the environment selects, then at the forced
/// scalar tier, restoring DBWIPES_SIMD afterwards.
void AtBothTiers(const std::function<void(const std::string&)>& fn) {
  fn("dispatched tier");
  const char* prev = std::getenv("DBWIPES_SIMD");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("DBWIPES_SIMD", "off", 1);
  fn("scalar tier");
  if (prev != nullptr) {
    setenv("DBWIPES_SIMD", saved.c_str(), 1);
  } else {
    unsetenv("DBWIPES_SIMD");
  }
}

/// The CSR law of a result's lineage: the offsets start at 0, never
/// decrease and end at the WHERE bitmap's popcount; each slice is
/// ascending; the slices' union is exactly the passing rows. Without
/// capture the result carries no lineage, and IncrementalClean
/// refuses it.
void ExpectLineageLaw(const QueryResult& r, const Table& table,
                      const ExecOptions& options, const std::string& context) {
  const Lineage& lineage = r.lineage;
  if (!options.capture_lineage) {
    EXPECT_FALSE(lineage.captured()) << context;
    EXPECT_EQ(lineage.size(), 0u) << context;
    EXPECT_TRUE(lineage.rows.empty()) << context;
    const Predicate any({Clause::Make("k", CompareOp::kGe, Value(int64_t{0}))});
    EXPECT_EQ(IncrementalClean(table, r, any).status().ToString(),
              Status::InvalidArgument(
                  "result was executed without lineage capture")
                  .ToString())
        << context;
    return;
  }
  const Bitmap pass = *FilterBitmap(*r.query.where, table,
                                    ScanUniverse::Range(0, table.num_rows()));
  ASSERT_EQ(lineage.offsets.size(), r.num_groups() + 1) << context;
  EXPECT_EQ(lineage.offsets.front(), 0u) << context;
  EXPECT_TRUE(std::is_sorted(lineage.offsets.begin(), lineage.offsets.end()))
      << context;
  EXPECT_EQ(lineage.offsets.back(), pass.CountOnes()) << context;
  ASSERT_EQ(lineage.rows.size(), lineage.offsets.back()) << context;
  for (const std::span<const RowId> slice : lineage) {
    EXPECT_TRUE(std::is_sorted(slice.begin(), slice.end())) << context;
  }
  std::vector<RowId> traced = lineage.rows;
  std::sort(traced.begin(), traced.end());
  std::vector<RowId> passing;
  pass.ForEachSet(
      [&](size_t row) { passing.push_back(static_cast<RowId>(row)); });
  EXPECT_EQ(traced, passing) << context;
}

void ExpectSameAnswer(const AggregateQuery& query, const Table& table,
                      const ExecOptions& options, const std::string& context) {
  const Result<QueryResult> fast = ExecuteQuery(query, table, options);
  const Result<QueryResult> slow =
      reference::ExecuteQuery(query, table, options);
  ASSERT_EQ(fast.ok(), slow.ok())
      << context << ": "
      << (fast.ok() ? slow.status().ToString() : fast.status().ToString());
  if (!slow.ok()) {
    EXPECT_EQ(fast.status().ToString(), slow.status().ToString()) << context;
    return;
  }
  EXPECT_EQ(QueryResultToJson(*fast, /*pretty=*/false),
            QueryResultToJson(*slow, /*pretty=*/false))
      << context;
  EXPECT_EQ(fast->lineage, slow->lineage) << context;
  ExpectLineageLaw(*fast, table, options, context);
}

class ExecutorOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorOracle, MatchesTheRowAtATimeReference) {
  Rng rng(GetParam());
  const Table plain = OracleTable(&rng, 300 + rng.UniformInt(200u));
  const std::shared_ptr<ShardSet> shards = *ShardSet::Create(plain, 4);
  size_t errors = 0;
  size_t empty = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const AggregateQuery query = RandomQuery(&rng);
    ExecOptions options;
    options.capture_lineage = !rng.Bernoulli(0.2);
    for (const Table* t : {&plain, shards->fused().get()}) {
      AtBothTiers([&](const std::string& tier) {
        const std::string layout = t == &plain ? "plain" : "fused";
        ExpectSameAnswer(query, *t, options,
                         query.ToSql() + " (" + layout + ", " + tier + ")");
      });
    }
    Result<QueryResult> r = reference::ExecuteQuery(query, plain);
    if (!r.ok()) ++errors;
    if (r.ok() && r->num_groups() == 0) ++empty;
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Both outcomes the oracle must see: errors and empty results.
  EXPECT_GT(errors, 0u);
  EXPECT_GT(empty, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorOracle,
                         ::testing::Values(3, 17, 29, 71, 113));

// The WHERE lowering over a listed (gathered) universe, as
// Session::SelectInputsWhere runs it: bit p answers rows[p].
TEST_P(ExecutorOracle, FilterBitmapOverListedRowsMatchesTheReference) {
  Rng rng(GetParam() + 1000);
  const Table t = OracleTable(&rng, 400);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<RowId> rows;
    for (RowId r = 0; r < t.num_rows(); ++r) {
      if (rng.Bernoulli(0.6)) rows.push_back(r);
    }
    const BoolExprPtr where = RandomWhere(&rng, 3);
    AtBothTiers([&](const std::string& tier) {
      const Bitmap bits = *FilterBitmap(*where, t, ScanUniverse::Of(rows));
      ASSERT_EQ(bits.num_bits(), rows.size());
      for (size_t p = 0; p < rows.size(); ++p) {
        ASSERT_EQ(bits.Test(p), *reference::Eval(*where, t, rows[p]))
            << where->ToString() << " row " << rows[p] << " (" << tier << ")";
      }
    });
  }
}

// ---------- errors ----------

// Each aggregate folds on its own and stops at its first failing row;
// the query fails with the error a row-at-a-time loop meets first, the
// smallest (row position, aggregate index). Here aggregate 1 fails on
// an earlier passing row (row 2, group 2) than aggregate 0 (row 3,
// group 1, which sorts first), and row 0, which would fail aggregate 0
// earliest, does not pass the WHERE.
TEST(ExecutorTest, FirstErrorIsTheEarliestRowThenTheLowestAggregate) {
  Table t(Schema{{"g", DataType::kInt64},
                 {"s", DataType::kString},
                 {"t", DataType::kString}},
          "t");
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{0}), Value("filtered"),
                            Value::Null()}));
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value::Null(), Value::Null()}));
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value::Null(), Value("first")}));
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value("second"),
                            Value("third")}));
  const std::shared_ptr<ShardSet> shards = *ShardSet::Create(t, 2);
  const Table* const tables[] = {&t, shards->fused().get()};
  auto expect_error = [&](const std::string& sql, const std::string& value) {
    const AggregateQuery q = *ParseQuery(sql);
    for (const Table* table : tables) {
      AtBothTiers([&](const std::string& tier) {
        const Result<QueryResult> fast = ExecuteQuery(q, *table);
        const Result<QueryResult> slow = reference::ExecuteQuery(q, *table);
        ASSERT_FALSE(fast.ok()) << sql << " (" << tier << ")";
        ASSERT_FALSE(slow.ok()) << sql << " (" << tier << ")";
        EXPECT_EQ(fast.status().ToString(), slow.status().ToString())
            << sql << " (" << tier << ")";
        EXPECT_EQ(fast.status().ToString(),
                  "Type error: string '" + value + "' has no numeric value")
            << sql << " (" << tier << ")";
      });
    }
  };
  expect_error("SELECT g, sum(s) AS a, avg(t) AS b FROM t WHERE g > 0 "
               "GROUP BY g",
               "first");
  // Row 3 fails both aggregates first; the lower index wins.
  expect_error("SELECT g, sum(s) AS a, avg(t) AS b FROM t WHERE g = 1 "
               "GROUP BY g",
               "second");
}

// ---------- group keys ----------

Table KeyTable(const std::vector<Value>& xs) {
  Table t(Schema{{"x", DataType::kDouble}, {"s", DataType::kString}}, "t");
  for (size_t r = 0; r < xs.size(); ++r) {
    DBW_CHECK_OK(t.AppendRow({xs[r], Value(r % 2 == 0 ? "a" : "b")}));
  }
  return t;
}

// All NaN keys are one group, whatever their sign and payload bits,
// sorted after every number; NULL is its own group and sorts first
// (PostgreSQL's rule).
TEST(ExecutorTest, NaNKeysFormOneGroupAfterTheNumbers) {
  const Table t = KeyTable({Value(kNaN), Value(2.0), Value::Null(),
                            Value(-std::numeric_limits<double>::infinity()),
                            Value(-kNaN), Value(-1.0), Value(std::nan("7")),
                            Value(2.0), Value::Null()});
  const QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT x, count(*) AS n FROM t GROUP BY x"), t);
  ASSERT_EQ(r.num_groups(), 5u);
  EXPECT_TRUE(r.GroupKey(0)[0].is_null());
  EXPECT_EQ(r.GroupKey(1)[0],
            Value(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(r.GroupKey(2)[0], Value(-1.0));
  EXPECT_EQ(r.GroupKey(3)[0], Value(2.0));
  EXPECT_TRUE(std::isnan(r.GroupKey(4)[0].dbl()));
  EXPECT_EQ(r.rows->GetValue(4, 1), Value(int64_t{3}));
  EXPECT_EQ(LineageOf(r, 0), (std::vector<RowId>{2, 8}));
  EXPECT_EQ(LineageOf(r, 4), (std::vector<RowId>{0, 4, 6}));

  // In a two-column key the rule applies per column: ('a', NULL),
  // ('a', NaN), ('b', -inf), ('b', -1), ('b', 2).
  const QueryResult two = *ExecuteQuery(
      *ParseQuery("SELECT s, x, count(*) AS n FROM t GROUP BY s, x"), t);
  ASSERT_EQ(two.num_groups(), 5u);
  EXPECT_TRUE(two.GroupKey(0)[1].is_null());
  EXPECT_EQ(LineageOf(two, 0), (std::vector<RowId>{2, 8}));
  EXPECT_EQ(two.GroupKey(1)[0], Value("a"));
  EXPECT_TRUE(std::isnan(two.GroupKey(1)[1].dbl()));
  EXPECT_EQ(LineageOf(two, 1), (std::vector<RowId>{0, 4, 6}));
  EXPECT_EQ(two.GroupKey(2)[0], Value("b"));
  EXPECT_EQ(two.GroupKey(2)[1],
            Value(-std::numeric_limits<double>::infinity()));
}

// The reported case: 200 rows, 67 of them NaN. The row-at-a-time
// executor returned 74 groups, 67 of them NaN.
TEST(ExecutorTest, ManyNaNRowsAreOneGroup) {
  Rng rng(5);
  std::vector<Value> xs;
  for (int r = 0; r < 200; ++r) {
    xs.emplace_back(r % 3 == 1 ? kNaN
                               : static_cast<double>(rng.UniformInt(8u)));
  }
  const QueryResult r = *ExecuteQuery(
      *ParseQuery("SELECT x, count(*) AS n FROM t GROUP BY x"), KeyTable(xs));
  ASSERT_EQ(r.num_groups(), 9u);  // 0..7, then NaN
  for (size_t g = 0; g + 1 < r.num_groups(); ++g) {
    EXPECT_EQ(r.GroupKey(g)[0], Value(static_cast<double>(g)));
  }
  EXPECT_TRUE(std::isnan(r.GroupKey(8)[0].dbl()));
  EXPECT_EQ(r.rows->GetValue(8, 1), Value(int64_t{67}));
}

// ±0.0 are one group that keeps its first row's key, and int64 keys
// group by Value equality, which compares numerics as doubles.
TEST(ExecutorTest, SignedZeroAndWideIntegerKeysFollowValueEquality) {
  const QueryResult zeros = *ExecuteQuery(
      *ParseQuery("SELECT x, count(*) AS n FROM t GROUP BY x"),
      KeyTable({Value(-0.0), Value(1.0), Value(0.0), Value(-0.0)}));
  ASSERT_EQ(zeros.num_groups(), 2u);
  EXPECT_TRUE(std::signbit(zeros.GroupKey(0)[0].dbl()));
  EXPECT_EQ(LineageOf(zeros, 0), (std::vector<RowId>{0, 2, 3}));

  Table wide(Schema{{"k", DataType::kInt64}}, "t");
  const int64_t big = int64_t{1} << 53;
  for (int64_t k : {big + 1, big, int64_t{7}}) {
    DBW_CHECK_OK(wide.AppendRow({Value(k)}));
  }
  const AggregateQuery q =
      *ParseQuery("SELECT k, count(*) AS n FROM t GROUP BY k");
  ExpectSameAnswer(q, wide, ExecOptions{}, q.ToSql());
  const QueryResult r = *ExecuteQuery(q, wide);
  ASSERT_EQ(r.num_groups(), 2u);
  EXPECT_EQ(r.GroupKey(1)[0].int64(), big + 1);  // the first row's key
}

}  // namespace
}  // namespace dbwipes
