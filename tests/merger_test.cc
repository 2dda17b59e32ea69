#include <gtest/gtest.h>

#include <cstring>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/random.h"
#include "dbwipes/core/merger.h"
#include "dbwipes/core/preprocessor.h"
#include "dbwipes/expr/parser.h"

namespace dbwipes {
namespace {

Predicate P(const std::string& text) { return *ParsePredicate(text); }

TEST(MergePredicatesTest, AdjacentRangesWidenToHull) {
  auto merged = MergePredicates(P("a0 > 2 AND a0 <= 2.5"),
                                P("a0 > 2.5 AND a0 <= 3"));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->ToString(), "a0 > 2 AND a0 <= 3");
}

TEST(MergePredicatesTest, OpenEndedSideDropsBound) {
  auto merged = MergePredicates(P("a0 > 2 AND a0 <= 2.5"), P("a0 > 2.5"));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->ToString(), "a0 > 2");
}

TEST(MergePredicatesTest, EqualitiesUnionIntoInSet) {
  auto merged = MergePredicates(P("state = 'CA'"), P("state = 'NY'"));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->ToString(), "state IN ('CA', 'NY')");
  // And IN sets union further.
  auto more = MergePredicates(*merged, P("state = 'TX'"));
  ASSERT_TRUE(more.has_value());
  EXPECT_EQ(more->ToString(), "state IN ('CA', 'NY', 'TX')");
}

TEST(MergePredicatesTest, MultiAttributeMergesPerAttribute) {
  auto merged = MergePredicates(P("c = 'x' AND a > 1 AND a <= 2"),
                                P("c = 'x' AND a > 2 AND a <= 3"));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->CanonicalString(), "a <= 3 AND a > 1 AND c = 'x'");
}

TEST(MergePredicatesTest, DifferentAttributeSetsDoNotMerge) {
  EXPECT_FALSE(MergePredicates(P("a > 1"), P("b > 1")).has_value());
  EXPECT_FALSE(MergePredicates(P("a > 1 AND b > 2"), P("a > 1")).has_value());
}

TEST(MergePredicatesTest, MixedShapesDoNotMerge) {
  // Range vs equality on the same attribute.
  EXPECT_FALSE(MergePredicates(P("a > 1"), P("a = 5")).has_value());
}

TEST(MergePredicatesTest, ExactClausesMustMatch) {
  EXPECT_TRUE(MergePredicates(P("memo CONTAINS 'X' AND a > 1 AND a <= 2"),
                              P("memo CONTAINS 'X' AND a > 2 AND a <= 3"))
                  .has_value());
  EXPECT_FALSE(MergePredicates(P("memo CONTAINS 'X' AND a > 1"),
                               P("memo CONTAINS 'Y' AND a > 2"))
                   .has_value());
  EXPECT_FALSE(
      MergePredicates(P("c != 'u' AND a > 1"), P("c != 'w' AND a > 2"))
          .has_value());
}

TEST(MergePredicatesTest, IdenticalOrContainedMergesRejected) {
  // Merging a predicate with itself (or producing a parent) is useless.
  EXPECT_FALSE(MergePredicates(P("a > 1"), P("a > 1")).has_value());
  EXPECT_FALSE(MergePredicates(P("a > 1"), P("a > 2")).has_value());
}

TEST(MergePredicatesTest, EmptyPredicatesRejected) {
  EXPECT_FALSE(MergePredicates(Predicate::True(), P("a > 1")).has_value());
}

// End-to-end: tree slivers over one region reassemble into the whole.
TEST(MergeAndRerankTest, SliversReassemble) {
  Rng rng(11);
  auto t = std::make_shared<Table>(
      Schema{{"g", DataType::kInt64},
             {"a", DataType::kDouble},
             {"v", DataType::kDouble}},
      "w");
  std::vector<RowId> bad;
  for (int g = 0; g < 2; ++g) {
    for (int i = 0; i < 200; ++i) {
      const double a = rng.UniformDouble(0.0, 4.0);
      const bool is_bad = a >= 2.0;
      DBW_CHECK_OK(t->AppendRow({Value(static_cast<int64_t>(g)), Value(a),
                                 Value(is_bad ? rng.Normal(100, 2)
                                              : rng.Normal(10, 2))}));
      if (is_bad) bad.push_back(static_cast<RowId>(t->num_rows() - 1));
    }
  }
  QueryResult result = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS m FROM w GROUP BY g"), *t);
  auto metric = TooHigh(15.0);
  std::vector<size_t> selected = {0, 1};
  PreprocessResult pre =
      *Preprocessor::Run(*t, result, selected, *metric);
  std::sort(bad.begin(), bad.end());

  // Simulate fragmented tree output: three slivers of the true region.
  std::vector<RankedPredicate> ranked(3);
  ranked[0].predicate = P("a > 2 AND a <= 2.7");
  ranked[1].predicate = P("a > 2.7 AND a <= 3.4");
  ranked[2].predicate = P("a > 3.4");
  for (auto& rp : ranked) rp.score = 0.3;

  auto merged = *MergeAndRerank(*t, result, selected, *metric, 0,
                                pre.suspect_inputs, bad,
                                pre.per_group_baseline_error, ranked, {});
  ASSERT_FALSE(merged.empty());
  // The top predicate must now be (close to) the full region a > 2.
  EXPECT_EQ(merged[0].strategy, "merged");
  EXPECT_EQ(merged[0].predicate.ToString(), "a > 2");
  EXPECT_NEAR(merged[0].error_improvement, 1.0, 1e-6);
  EXPECT_GT(merged[0].score, 0.5);
}

TEST(MergeAndRerankTest, BadMergesAreDropped) {
  // Two unrelated predicates whose value-set union matches far too
  // much: the merged candidate must not displace its parents.
  Rng rng(12);
  auto t = std::make_shared<Table>(
      Schema{{"g", DataType::kInt64},
             {"c", DataType::kString},
             {"v", DataType::kDouble}},
      "w");
  std::vector<RowId> bad;
  const char* cats[] = {"bad", "huge", "other"};
  for (int g = 0; g < 2; ++g) {
    for (int i = 0; i < 300; ++i) {
      const size_t ci = i < 20 ? 0 : (i < 200 ? 1 : 2);
      const bool is_bad = ci == 0;
      DBW_CHECK_OK(t->AppendRow({Value(static_cast<int64_t>(g)),
                                 Value(cats[ci]),
                                 Value(is_bad ? rng.Normal(100, 2)
                                              : rng.Normal(10, 2))}));
      if (is_bad) bad.push_back(static_cast<RowId>(t->num_rows() - 1));
    }
  }
  QueryResult result = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS m FROM w GROUP BY g"), *t);
  auto metric = TooHigh(15.0);
  std::vector<size_t> selected = {0, 1};
  PreprocessResult pre = *Preprocessor::Run(*t, result, selected, *metric);
  std::sort(bad.begin(), bad.end());

  std::vector<RankedPredicate> ranked(2);
  ranked[0].predicate = P("c = 'bad'");
  ranked[0].score = 0.9;
  ranked[1].predicate = P("c = 'huge'");
  ranked[1].score = 0.1;

  auto merged = *MergeAndRerank(*t, result, selected, *metric, 0,
                                pre.suspect_inputs, bad,
                                pre.per_group_baseline_error, ranked, {});
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(merged[0].predicate.ToString(), "c = 'bad'");
  for (const RankedPredicate& rp : merged) {
    EXPECT_NE(rp.predicate.ToString(), "c IN ('bad', 'huge')")
        << "over-broad merge survived";
  }
}

/// When no pair of the top predicates merges, the re-rank's pool is the
/// ranking itself: MergeAndRerank returns what Rank over that pool
/// returns, field for field, without running the ranker.
TEST(MergeAndRerankTest, NothingMergedSkipsTheRerank) {
  Rng rng(13);
  auto t = std::make_shared<Table>(
      Schema{{"g", DataType::kInt64},
             {"c", DataType::kString},
             {"v", DataType::kDouble}},
      "w");
  std::vector<RowId> bad;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 100; ++i) {
      const bool is_bad = g > 0 && i < 15;
      DBW_CHECK_OK(t->AppendRow({Value(static_cast<int64_t>(g)),
                                 Value(is_bad ? "bad" : "fine"),
                                 Value(is_bad ? rng.Normal(100, 2)
                                              : rng.Normal(10, 2))}));
      if (is_bad) bad.push_back(static_cast<RowId>(t->num_rows() - 1));
    }
  }
  QueryResult result = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS m FROM w GROUP BY g"), *t);
  auto metric = TooHigh(15.0);
  std::vector<size_t> selected = {1, 2};
  PreprocessResult pre = *Preprocessor::Run(*t, result, selected, *metric);

  // Each constrains its own attribute set, so no pair merges.
  std::vector<EnumeratedPredicate> candidates;
  for (const char* text : {"c = 'bad'", "v > 101", "g = 2",
                           "c = 'bad' AND g = 1"}) {
    EnumeratedPredicate ep;
    ep.predicate = P(text);
    ep.strategy = std::string("from ") + text;
    candidates.push_back(std::move(ep));
  }
  const RankerOptions options;
  const PredicateRanker ranker(options);
  const std::vector<RankedPredicate> ranked =
      *ranker.Rank(*t, result, selected, *metric, 0, pre.suspect_inputs, bad,
                   pre.per_group_baseline_error, candidates);
  ASSERT_EQ(ranked.size(), candidates.size());
  std::vector<EnumeratedPredicate> pool;
  for (const RankedPredicate& rp : ranked) {
    EnumeratedPredicate ep;
    ep.predicate = rp.predicate;
    ep.strategy = rp.strategy;
    pool.push_back(std::move(ep));
  }
  const std::vector<RankedPredicate> want =
      *ranker.Rank(*t, result, selected, *metric, 0, pre.suspect_inputs, bad,
                   pre.per_group_baseline_error, pool);

  MetricCounter* runs = MetricsRegistry::Global().GetCounter("ranker.runs");
  const uint64_t runs_before = runs->value();
  const std::vector<RankedPredicate> got =
      *MergeAndRerank(*t, result, selected, *metric, 0, pre.suspect_inputs,
                      bad, pre.per_group_baseline_error, ranked, options);
  EXPECT_EQ(runs->value(), runs_before);
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].predicate.ToString(), want[i].predicate.ToString());
    EXPECT_TRUE(same_bits(got[i].score, want[i].score)) << i;
    EXPECT_TRUE(same_bits(got[i].error_improvement, want[i].error_improvement));
    EXPECT_TRUE(same_bits(got[i].precision, want[i].precision));
    EXPECT_TRUE(same_bits(got[i].recall, want[i].recall));
    EXPECT_TRUE(same_bits(got[i].f1, want[i].f1));
    EXPECT_EQ(got[i].matched_in_suspects, want[i].matched_in_suspects);
    EXPECT_TRUE(same_bits(got[i].error_after, want[i].error_after));
    EXPECT_EQ(got[i].strategy, want[i].strategy);
  }
}

}  // namespace
}  // namespace dbwipes
