#include <gtest/gtest.h>

#include "dbwipes/expr/parser.h"

namespace dbwipes {
namespace {

TEST(ParserTest, MinimalAggregateQuery) {
  AggregateQuery q = *ParseQuery("SELECT avg(temp) FROM readings");
  EXPECT_EQ(q.table_name, "readings");
  ASSERT_EQ(q.aggregates.size(), 1u);
  EXPECT_EQ(q.aggregates[0].kind, AggKind::kAvg);
  EXPECT_EQ(q.aggregates[0].output_name, "avg(temp)");
  EXPECT_TRUE(q.group_by.empty());
  EXPECT_EQ(q.where->kind(), BoolExpr::Kind::kTrue);
}

TEST(ParserTest, FullQueryWithAliasWhereGroupBy) {
  AggregateQuery q = *ParseQuery(
      "SELECT window, avg(temp) AS t, stddev(temp) AS sd FROM readings "
      "WHERE sensorid != 3 AND temp > 0 GROUP BY window");
  EXPECT_EQ(q.aggregates.size(), 2u);
  EXPECT_EQ(q.aggregates[0].output_name, "t");
  EXPECT_EQ(q.aggregates[1].kind, AggKind::kStddev);
  EXPECT_EQ(q.group_by, (std::vector<std::string>{"window"}));
  EXPECT_NE(q.where->kind(), BoolExpr::Kind::kTrue);
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  AggregateQuery q =
      *ParseQuery("select SUM(x) from t where y = 1 group by g");
  EXPECT_EQ(q.aggregates[0].kind, AggKind::kSum);
  EXPECT_EQ(q.group_by, (std::vector<std::string>{"g"}));
}

TEST(ParserTest, CountStar) {
  AggregateQuery q = *ParseQuery("SELECT count(*) FROM t GROUP BY g");
  EXPECT_EQ(q.aggregates[0].kind, AggKind::kCount);
  EXPECT_EQ(q.aggregates[0].argument, nullptr);
  EXPECT_FALSE(ParseQuery("SELECT avg(*) FROM t").ok());
}

TEST(ParserTest, ArithmeticAggregateArgument) {
  AggregateQuery q = *ParseQuery("SELECT avg((temp - 32) * 5 / 9) FROM t");
  EXPECT_NE(q.aggregates[0].argument, nullptr);
  EXPECT_EQ(q.aggregates[0].argument->ToString(),
            "(((temp - 32) * 5) / 9)");
}

TEST(ParserTest, UnaryMinus) {
  AggregateQuery q = *ParseQuery("SELECT sum(0 - x) FROM t");
  EXPECT_EQ(q.aggregates[0].argument->ToString(), "(0 - x)");
  AggregateQuery q2 = *ParseQuery("SELECT sum(-x) FROM t");
  EXPECT_EQ(q2.aggregates[0].argument->ToString(), "(0 - x)");
}

TEST(ParserTest, StringLiteralsWithEscapes) {
  BoolExprPtr e = *ParseFilter("memo = 'it''s fine'");
  // The literal holds one quote; rendering re-escapes it, so the text
  // round-trips through the parser.
  EXPECT_EQ(e->ToString(), "memo = 'it''s fine'");
  BoolExprPtr e2 = *ParseFilter(e->ToString());
  EXPECT_EQ(e2->ToString(), e->ToString());
}

TEST(ParserTest, BetweenExpandsToRange) {
  BoolExprPtr e = *ParseFilter("day BETWEEN 490 AND 510");
  EXPECT_EQ(e->ToString(), "(day >= 490 AND day <= 510)");
}

TEST(ParserTest, InList) {
  BoolExprPtr e = *ParseFilter("state IN ('CA', 'NY')");
  EXPECT_EQ(e->ToString(), "state IN ('CA', 'NY')");
}

TEST(ParserTest, NullLiteralsRoundTrip) {
  // A comparison with NULL, a NULL member of an IN list and a NULL
  // BETWEEN bound render as NULL and parse back to the same clauses.
  for (const char* text : {"d >= NULL", "s IN (NULL, 'a')", "s = null"}) {
    Predicate p = *ParsePredicate(text);
    Predicate again = *ParsePredicate(p.ToString());
    EXPECT_EQ(again.ToString(), p.ToString()) << text;
    EXPECT_TRUE(again == p) << text;
  }
  Predicate ge = *ParsePredicate("d >= NULL");
  EXPECT_EQ(ge.ToString(), "d >= NULL");
  EXPECT_TRUE(ge.clauses()[0].literal.is_null());
  Predicate in = *ParsePredicate("s IN (NULL, 'a')");
  EXPECT_EQ(in.ToString(), "s IN (NULL, 'a')");
  ASSERT_EQ(in.clauses()[0].in_set.size(), 2u);
  EXPECT_TRUE(in.clauses()[0].in_set[0].is_null());
  BoolExprPtr between = *ParseFilter("x BETWEEN NULL AND 3");
  EXPECT_EQ(between->ToString(), "(x >= NULL AND x <= 3)");
}

TEST(ParserTest, ContainsAndLikeWildcards) {
  BoolExprPtr e = *ParseFilter("memo CONTAINS 'SPOUSE'");
  EXPECT_EQ(e->ToString(), "memo CONTAINS 'SPOUSE'");
  BoolExprPtr like = *ParseFilter("memo LIKE '%SPOUSE%'");
  EXPECT_EQ(like->ToString(), "memo CONTAINS 'SPOUSE'");
}

TEST(ParserTest, BooleanPrecedenceAndParens) {
  // AND binds tighter than OR.
  BoolExprPtr e = *ParseFilter("a = 1 OR b = 2 AND c = 3");
  EXPECT_EQ(e->ToString(), "(a = 1 OR (b = 2 AND c = 3))");
  BoolExprPtr p = *ParseFilter("(a = 1 OR b = 2) AND NOT c = 3");
  EXPECT_EQ(p->ToString(), "((a = 1 OR b = 2) AND NOT c = 3)");
}

TEST(ParserTest, AllComparisonOperators) {
  for (const char* op : {"=", "!=", "<>", "<", "<=", ">", ">="}) {
    auto e = ParseFilter(std::string("x ") + op + " 1");
    EXPECT_TRUE(e.ok()) << op;
  }
}

TEST(ParserTest, NumericLiteralForms) {
  EXPECT_TRUE(ParseFilter("x = 1").ok());
  EXPECT_TRUE(ParseFilter("x = 1.5").ok());
  EXPECT_TRUE(ParseFilter("x = .5").ok());
  EXPECT_TRUE(ParseFilter("x = 1e-3").ok());
  EXPECT_TRUE(ParseFilter("x = 2.5E+2").ok());
}

TEST(ParserTest, SelectedColumnMustBeGrouped) {
  EXPECT_TRUE(ParseQuery("SELECT g, avg(v) FROM t GROUP BY g").ok());
  auto bad = ParseQuery("SELECT h, avg(v) FROM t GROUP BY g");
  EXPECT_TRUE(bad.status().IsParseError());
}

TEST(ParserTest, QueryMustHaveAggregate) {
  EXPECT_TRUE(ParseQuery("SELECT g FROM t GROUP BY g").status().IsParseError());
}

TEST(ParserTest, ErrorsCarryPosition) {
  auto r = ParseQuery("SELECT avg(temp FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseQuery("SELECT avg(x) FROM t extra").ok());
  EXPECT_FALSE(ParseFilter("x = 1 )").ok());
}

TEST(ParserTest, RejectsUnterminatedString) {
  EXPECT_TRUE(ParseFilter("s = 'oops").status().IsParseError());
}

TEST(ParserTest, ParsePredicateConjunctionOnly) {
  Predicate p = *ParsePredicate("a = 1 AND b >= 2 AND s CONTAINS 'x'");
  EXPECT_EQ(p.num_clauses(), 3u);
  EXPECT_FALSE(ParsePredicate("a = 1 OR b = 2").ok());
  EXPECT_FALSE(ParsePredicate("NOT a = 1").ok());
  // BETWEEN expands to two conjoined comparisons, which is fine.
  EXPECT_EQ(ParsePredicate("a BETWEEN 1 AND 2")->num_clauses(), 2u);
}

TEST(ParserTest, RoundTripThroughToSql) {
  const std::string sql =
      "SELECT day, sum(amount) AS total FROM donations "
      "WHERE candidate = 'MCCAIN' GROUP BY day";
  AggregateQuery q = *ParseQuery(sql);
  AggregateQuery q2 = *ParseQuery(q.ToSql());
  EXPECT_EQ(q.ToSql(), q2.ToSql());
}

TEST(ParserTest, CleaningRewriteParsesBack) {
  AggregateQuery q = *ParseQuery("SELECT sum(x) FROM t WHERE a = 1");
  Predicate p({Clause::Make("b", CompareOp::kGt, Value(2.0))});
  AggregateQuery cleaned = q.WithCleaningPredicate(p);
  EXPECT_NE(cleaned.ToSql().find("NOT"), std::string::npos);
  EXPECT_TRUE(ParseQuery(cleaned.ToSql()).ok());
}

TEST(ParserTest, DeepButReasonableNestingParses) {
  // Well under the recursion limit: 50 levels of parentheses and a
  // 50-deep NOT chain both parse fine.
  std::string filter = std::string(50, '(') + "x = 1" + std::string(50, ')');
  EXPECT_TRUE(ParseFilter(filter).ok()) << filter.substr(0, 80);

  std::string nots;
  for (int i = 0; i < 50; ++i) nots += "NOT ";
  EXPECT_TRUE(ParseFilter(nots + "x = 1").ok());
}

TEST(ParserTest, PathologicalNestingIsRefusedNotOverflowed) {
  // A hostile client can send 100k opening parens in one line; the
  // recursive-descent parser must refuse with kParseError at its depth
  // limit instead of exhausting the stack.
  const std::string parens(100000, '(');
  auto r = ParseFilter(parens + "x = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("nested"), std::string::npos)
      << r.status().message();

  std::string nots;
  for (int i = 0; i < 100000; ++i) nots += "NOT ";
  auto rn = ParseFilter(nots + "x = 1");
  ASSERT_FALSE(rn.ok());
  EXPECT_TRUE(rn.status().IsParseError());

  // The same guard protects full-query parsing through the WHERE
  // clause, and the parser is reusable after refusing.
  EXPECT_TRUE(
      ParseQuery("SELECT avg(x) FROM t WHERE " + parens + "x = 1 GROUP BY g")
          .status()
          .IsParseError());
  EXPECT_TRUE(ParseFilter("(x = 1)").ok());
}

TEST(ParserTest, AggKindNames) {
  for (const char* name :
       {"count", "sum", "avg", "min", "max", "stddev", "var", "median"}) {
    EXPECT_TRUE(AggKindFromString(name).ok()) << name;
  }
  EXPECT_FALSE(AggKindFromString("mode").ok());
}

}  // namespace
}  // namespace dbwipes
