#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dbwipes/expr/bool_expr.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/expr/predicate.h"
#include "dbwipes/expr/scalar_expr.h"
#include "reference_executor.h"

namespace dbwipes {
namespace {

Table MakeTable() {
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

// ---------- scalar expressions ----------

TEST(ScalarExprTest, LiteralAndColumn) {
  Table t = MakeTable();
  EXPECT_EQ(*Lit(Value(5.0))->Eval(t, 0), Value(5.0));
  EXPECT_EQ(*Col("x")->Eval(t, 1), Value(int64_t{2}));
  EXPECT_TRUE(Col("y")->Eval(t, 2)->is_null());
  EXPECT_FALSE(Col("nope")->Eval(t, 0).ok());
}

TEST(ScalarExprTest, ArithmeticAndNullPropagation) {
  Table t = MakeTable();
  auto e = Add(Mul(Col("x"), Lit(Value(2.0))), Col("y"));
  EXPECT_EQ(*e->Eval(t, 0), Value(12.0));   // 1*2 + 10
  EXPECT_TRUE(e->Eval(t, 2)->is_null());    // y NULL propagates
}

TEST(ScalarExprTest, DivisionByZeroIsNull) {
  Table t = MakeTable();
  auto e = Div(Col("y"), Lit(Value(0.0)));
  EXPECT_TRUE(e->Eval(t, 0)->is_null());
}

TEST(ScalarExprTest, ValidateRejectsStringArithmetic) {
  Table t = MakeTable();
  auto e = Add(Col("s"), Lit(Value(1.0)));
  EXPECT_TRUE(e->Validate(t.schema()).IsTypeError());
  EXPECT_TRUE(Add(Col("x"), Col("y"))->Validate(t.schema()).ok());
}

TEST(ScalarExprTest, ToStringRendering) {
  auto e = Sub(Col("a"), Mul(Lit(Value(int64_t{2})), Col("b")));
  EXPECT_EQ(e->ToString(), "(a - (2 * b))");
}

// ---------- clauses ----------

TEST(ClauseTest, ComparisonOps) {
  Clause lt = Clause::Make("x", CompareOp::kLt, Value(5.0));
  EXPECT_TRUE(lt.Matches(Value(4.0)));
  EXPECT_FALSE(lt.Matches(Value(5.0)));
  EXPECT_FALSE(lt.Matches(Value::Null()));

  Clause ge = Clause::Make("x", CompareOp::kGe, Value(int64_t{5}));
  EXPECT_TRUE(ge.Matches(Value(5.0)));
  EXPECT_TRUE(ge.Matches(Value(int64_t{6})));
  EXPECT_FALSE(ge.Matches(Value(4.9)));

  Clause ne = Clause::Make("s", CompareOp::kNe, Value("red"));
  EXPECT_TRUE(ne.Matches(Value("blue")));
  EXPECT_FALSE(ne.Matches(Value("red")));
  EXPECT_FALSE(ne.Matches(Value::Null()));  // NULL never matches
}

TEST(ClauseTest, InAndContains) {
  Clause in = Clause::In("s", {Value("a"), Value("b")});
  EXPECT_TRUE(in.Matches(Value("a")));
  EXPECT_FALSE(in.Matches(Value("c")));

  Clause contains =
      Clause::Make("memo", CompareOp::kContains, Value("SPOUSE"));
  EXPECT_TRUE(contains.Matches(Value("REATTRIBUTION TO SPOUSE")));
  EXPECT_FALSE(contains.Matches(Value("REFUND")));
  EXPECT_FALSE(contains.Matches(Value(1.0)));
}

TEST(ClauseTest, NegateOp) {
  EXPECT_EQ(*NegateOp(CompareOp::kLt), CompareOp::kGe);
  EXPECT_EQ(*NegateOp(CompareOp::kEq), CompareOp::kNe);
  EXPECT_FALSE(NegateOp(CompareOp::kIn).ok());
}

// ---------- predicates ----------

TEST(PredicateTest, MatchesConjunction) {
  Table t = MakeTable();
  Predicate p({Clause::Make("s", CompareOp::kEq, Value("red")),
               Clause::Make("x", CompareOp::kLe, Value(int64_t{2}))});
  EXPECT_TRUE(*p.Matches(t, 0));
  EXPECT_FALSE(*p.Matches(t, 1));  // blue
  EXPECT_FALSE(*p.Matches(t, 2));  // x = 3
  EXPECT_TRUE(Predicate::True().Matches(t, 0).ValueOrDie());
}

TEST(PredicateTest, SimplifyMergesRangeClauses) {
  Predicate p({Clause::Make("x", CompareOp::kGe, Value(1.0)),
               Clause::Make("x", CompareOp::kGe, Value(3.0)),
               Clause::Make("x", CompareOp::kLt, Value(10.0)),
               Clause::Make("x", CompareOp::kLe, Value(8.0))});
  Predicate s = p.Simplify();
  EXPECT_EQ(s.num_clauses(), 2u);
  EXPECT_EQ(s.ToString(), "x >= 3 AND x <= 8");
}

TEST(PredicateTest, SimplifyDeduplicates) {
  Clause c = Clause::Make("s", CompareOp::kEq, Value("a"));
  Predicate p({c, c, c});
  EXPECT_EQ(p.Simplify().num_clauses(), 1u);
}

TEST(PredicateTest, CanonicalEqualityIsOrderIndependent) {
  Predicate a({Clause::Make("x", CompareOp::kEq, Value(1.0)),
               Clause::Make("s", CompareOp::kEq, Value("r"))});
  Predicate b({Clause::Make("s", CompareOp::kEq, Value("r")),
               Clause::Make("x", CompareOp::kEq, Value(1.0))});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.CanonicalString(), b.CanonicalString());
}

TEST(PredicateTest, ToStringFormats) {
  EXPECT_EQ(Predicate::True().ToString(), "TRUE");
  Predicate p({Clause::Make("a", CompareOp::kGt, Value(1.5)),
               Clause::Make("s", CompareOp::kEq, Value("x"))});
  EXPECT_EQ(p.ToString(), "a > 1.5 AND s = 'x'");
}

// ---------- bool expressions ----------

/// The reference evaluator's answer for `row`, checked against the
/// row's bit in the WHERE lowering's bitmap.
bool Eval(const BoolExprPtr& e, const Table& t, RowId row) {
  const bool ref = *reference::Eval(*e, t, row);
  const Bitmap bits =
      *FilterBitmap(*e, t, ScanUniverse::Range(0, t.num_rows()));
  EXPECT_EQ(bits.Test(row), ref) << e->ToString() << " row " << row;
  return ref;
}

TEST(BoolExprTest, AndOrNotEvaluation) {
  Table t = MakeTable();
  auto red = MakeComparison(Clause::Make("s", CompareOp::kEq, Value("red")));
  auto big = MakeComparison(Clause::Make("x", CompareOp::kGe, Value(3.0)));
  EXPECT_FALSE(Eval(MakeAnd(red, big), t, 0));
  EXPECT_TRUE(Eval(MakeAnd(red, big), t, 2));
  EXPECT_TRUE(Eval(MakeOr(red, big), t, 0));
  EXPECT_FALSE(Eval(MakeOr(red, big), t, 1));
  EXPECT_TRUE(Eval(MakeNot(red), t, 1));
  EXPECT_TRUE(Eval(MakeTrue(), t, 3));
}

TEST(BoolExprTest, NullComparisonIsFalseAndNotFlipsIt) {
  Table t = MakeTable();
  // Row 3 has x = NULL: x >= 0 is false, NOT (x >= 0) is true (two-
  // valued semantics, documented in bool_expr.h).
  auto cmp = MakeComparison(Clause::Make("x", CompareOp::kGe, Value(0.0)));
  EXPECT_FALSE(Eval(cmp, t, 3));
  EXPECT_TRUE(Eval(MakeNot(cmp), t, 3));
}

TEST(BoolExprTest, NullLiteralIsTheLeastValueNotUnknown) {
  // A NULL literal does not make a comparison UNKNOWN, as in SQL: the
  // clause is Clause::Matches, where a NULL cell never matches and the
  // NULL literal is the least Value. So `=`, `<`, `<=` and an IN
  // list's NULL member match no row, and `!=`, `<>`, `>`, `>=` match
  // every non-NULL row. x is NULL in row 3, y in row 2; s has none.
  Table t = MakeTable();
  const std::vector<std::pair<std::string, std::vector<bool>>> cases = {
      {"x = NULL", {false, false, false, false}},
      {"x != NULL", {true, true, true, false}},
      {"x <> NULL", {true, true, true, false}},
      {"x < NULL", {false, false, false, false}},
      {"x <= NULL", {false, false, false, false}},
      {"x > NULL", {true, true, true, false}},
      {"x >= NULL", {true, true, true, false}},
      {"NOT x = NULL", {true, true, true, true}},
      {"NOT x != NULL", {false, false, false, true}},
      {"y != NULL", {true, true, false, true}},
      {"y IN (NULL, 20)", {false, true, false, false}},
      {"s = NULL", {false, false, false, false}},
      {"s != NULL", {true, true, true, true}},
      {"s IN (NULL, 'red')", {true, false, true, false}},
  };
  for (const auto& [text, want] : cases) {
    BoolExprPtr e = *ParseFilter(text);
    std::vector<bool> got;
    for (RowId r = 0; r < t.num_rows(); ++r) got.push_back(Eval(e, t, r));
    EXPECT_EQ(got, want) << text;
  }
}

TEST(BoolExprTest, PredicateConversionMatches) {
  Table t = MakeTable();
  Predicate p({Clause::Make("s", CompareOp::kEq, Value("red")),
               Clause::Make("x", CompareOp::kLe, Value(1.0))});
  BoolExprPtr e = PredicateToBoolExpr(p);
  for (RowId r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(Eval(e, t, r), *p.Matches(t, r));
  }
  EXPECT_EQ(PredicateToBoolExpr(Predicate::True())->kind(),
            BoolExpr::Kind::kTrue);
}

TEST(BoolExprTest, EvalFilter) {
  Table t = MakeTable();
  auto e = MakeComparison(Clause::Make("s", CompareOp::kEq, Value("red")));
  const Bitmap all =
      *FilterBitmap(*e, t, ScanUniverse::Range(0, t.num_rows()));
  std::vector<bool> mask;
  for (size_t i = 0; i < all.num_bits(); ++i) mask.push_back(all.Test(i));
  EXPECT_EQ(mask, (std::vector<bool>{true, false, true, false}));
  // The lowering over a listed universe: bit i answers rows[i].
  const std::vector<RowId> rows = {3, 2, 0};
  const Bitmap bits = *FilterBitmap(*e, t, ScanUniverse::Of(rows));
  EXPECT_FALSE(bits.Test(0));
  EXPECT_TRUE(bits.Test(1));
  EXPECT_TRUE(bits.Test(2));
  EXPECT_EQ(bits.CountOnes(), 2u);
}

TEST(BoolExprTest, ValidateCatchesUnknownColumns) {
  Table t = MakeTable();
  auto bad = MakeAnd(
      MakeComparison(Clause::Make("x", CompareOp::kGe, Value(0.0))),
      MakeComparison(Clause::Make("zz", CompareOp::kEq, Value(1.0))));
  EXPECT_TRUE(bad->Validate(t.schema()).IsNotFound());
}

}  // namespace
}  // namespace dbwipes
