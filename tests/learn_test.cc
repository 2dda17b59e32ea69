#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "dbwipes/common/random.h"
#include "dbwipes/learn/decision_tree.h"
#include "dbwipes/learn/feature.h"
#include "dbwipes/learn/kmeans.h"
#include "dbwipes/learn/naive_bayes.h"

namespace dbwipes {
namespace {

std::shared_ptr<Table> MixedTable() {
  auto t = std::make_shared<Table>(Schema{{"num", DataType::kDouble},
                                          {"cat", DataType::kString},
                                          {"extra", DataType::kInt64}},
                                   "m");
  auto add = [&](double n, const char* c, int64_t e) {
    DBW_CHECK_OK(t->AppendRow({Value(n), Value(c), Value(e)}));
  };
  add(1.0, "a", 10);
  add(2.0, "b", 20);
  add(3.0, "a", 30);
  DBW_CHECK_OK(t->AppendRow({Value::Null(), Value("c"), Value::Null()}));
  return t;
}

// ---------- FeatureView ----------

TEST(FeatureViewTest, CreateAndAccess) {
  auto t = MixedTable();
  FeatureView v = *FeatureView::Create(*t, {"num", "cat"});
  ASSERT_EQ(v.num_features(), 2u);
  EXPECT_FALSE(v.features()[0].categorical);
  EXPECT_TRUE(v.features()[1].categorical);
  EXPECT_DOUBLE_EQ(v.Get(0, 0), 1.0);
  EXPECT_TRUE(std::isnan(v.Get(3, 0)));
  EXPECT_TRUE(v.IsNull(3, 0));
  // Categorical values come back as dictionary codes.
  EXPECT_EQ(v.Get(0, 1), v.Get(2, 1));
  EXPECT_NE(v.Get(0, 1), v.Get(1, 1));
  EXPECT_EQ(v.CategoryName(1, static_cast<int32_t>(v.Get(1, 1))), "b");
}

TEST(FeatureViewTest, CreateExcluding) {
  auto t = MixedTable();
  FeatureView v = *FeatureView::CreateExcluding(*t, {"num"});
  ASSERT_EQ(v.num_features(), 2u);
  EXPECT_EQ(v.features()[0].name, "cat");
  EXPECT_EQ(v.features()[1].name, "extra");
}

TEST(FeatureViewTest, UnknownColumnErrors) {
  auto t = MixedTable();
  EXPECT_TRUE(FeatureView::Create(*t, {"nope"}).status().IsNotFound());
}

TEST(FeatureViewTest, NumericMatrixStandardizesAndImputes) {
  auto t = MixedTable();
  FeatureView v = *FeatureView::Create(*t, {"num", "cat", "extra"});
  // Positions 1..4 of the snapshot are rows 0..3.
  const FeatureColumns cols = v.Snapshot({2, 0, 1, 2, 3});
  DenseMatrix m;
  std::vector<size_t> idx;
  cols.NumericMatrix({1, 2, 3, 4}, &m, &idx);
  ASSERT_EQ(idx.size(), 2u);  // num, extra (cat excluded)
  ASSERT_EQ(m.rows, 4u);
  ASSERT_EQ(m.cols, 2u);
  ASSERT_EQ(m.values.size(), 8u);
  // Row 3 was NULL -> imputed with the mean -> standardized to 0.
  EXPECT_NEAR(m.row(3)[0], 0.0, 1e-12);
  // Column mean of standardized values is ~0.
  double mean = 0.0;
  for (size_t i = 0; i < m.rows; ++i) mean += m.row(i)[0];
  EXPECT_NEAR(mean / 4.0, 0.0, 1e-9);
  // Row 0's num: (1 - 2) over the deviation of 1, 2, 3.
  EXPECT_NEAR(m.row(0)[0], -1.0 / std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(FeatureViewTest, PositionsInFindsTheMembersOfTheList) {
  const std::vector<RowId> rows = {2, 5, 9, 14};
  EXPECT_EQ(PositionsIn(rows, {2, 9, 14}), (std::vector<uint32_t>{0, 2, 3}));
  // Members outside the list have no position.
  EXPECT_EQ(PositionsIn(rows, {0, 5, 6, 20}), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(PositionsIn(rows, {}).empty());
  EXPECT_TRUE(PositionsIn({}, {1, 2}).empty());
}

TEST(FeatureViewTest, SnapshotHoldsWhatGetReturns) {
  auto t = MixedTable();
  FeatureView v = *FeatureView::Create(*t, {"num", "cat", "extra"});
  const std::vector<RowId> rows = {3, 1, 0, 2};
  const FeatureColumns cols = v.Snapshot(rows);
  ASSERT_EQ(cols.num_rows(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t f : {size_t{0}, size_t{2}}) {
      const double want = v.Get(rows[i], f);
      const double got = cols.values(f)[i];
      EXPECT_TRUE(std::isnan(want) ? std::isnan(got) : got == want);
    }
    EXPECT_EQ(cols.code(1, i), static_cast<int32_t>(v.Get(rows[i], 1)));
  }
  // a, b, c: ranked in code order.
  const std::vector<int32_t>& cats = cols.categories(1);
  ASSERT_EQ(cats.size(), 3u);
  EXPECT_TRUE(std::is_sorted(cats.begin(), cats.end()));
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(cats[static_cast<size_t>(cols.ranks(1)[i])], cols.code(1, i));
  }
}

TEST(FeatureViewTest, SnapshotRanksOnlyTheCodesOfItsRows) {
  // A wide dictionary over a few rows: the snapshot holds as many
  // categories as the rows have distinct codes, not one per dictionary
  // entry. The short list is ranked by a sort, the list of every row
  // through a table indexed by code; both must agree with Get.
  auto t = std::make_shared<Table>(Schema{{"c", DataType::kString}}, "w");
  for (int i = 0; i < 5000; ++i) {
    DBW_CHECK_OK(t->AppendRow({Value("v" + std::to_string(i))}));
  }
  DBW_CHECK_OK(t->AppendRow({Value::Null()}));
  FeatureView v = *FeatureView::Create(*t, {"c"});
  std::vector<RowId> all(5001);
  for (RowId r = 0; r < all.size(); ++r) all[r] = r;
  for (const std::vector<RowId>& rows :
       {std::vector<RowId>{4999, 17, 5000, 4999, 2500}, all}) {
    const FeatureColumns cols = v.Snapshot(rows);
    const std::vector<int32_t>& cats = cols.categories(0);
    EXPECT_TRUE(std::is_sorted(cats.begin(), cats.end()));
    EXPECT_EQ(std::adjacent_find(cats.begin(), cats.end()), cats.end());
    for (size_t i = 0; i < rows.size(); ++i) {
      const int32_t want = v.IsNull(rows[i], 0)
                               ? -1
                               : static_cast<int32_t>(v.Get(rows[i], 0));
      EXPECT_EQ(cols.code(0, i), want);
    }
  }
  const FeatureColumns few = v.Snapshot({4999, 17, 5000, 4999, 2500});
  EXPECT_EQ(few.categories(0).size(), 3u);
  EXPECT_EQ(few.ranks(0), (std::vector<int32_t>{2, 0, -1, 2, 1}));
  EXPECT_EQ(v.Snapshot(all).categories(0).size(), 5000u);
}

TEST(FeatureViewTest, PresortHoldsTheValuedPositionsByValueThenPosition) {
  // Ties, both zeros, infinities, subnormals, int64 values beyond 2^53,
  // NaN and NULL, under row lists with repeats: each numeric feature's
  // presort is exactly its non-NaN, non-NULL positions, ascending by
  // (value, position).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const double specials[] = {0.0,  -0.0,   kInf, -kInf, std::nan(""),
                             kTiny, -kTiny, 1.5,  -1.5,  1e300};
  Rng rng(77);
  auto t = std::make_shared<Table>(Schema{{"x", DataType::kDouble},
                                          {"c", DataType::kString},
                                          {"n", DataType::kInt64}},
                                   "p");
  for (int i = 0; i < 3000; ++i) {
    const double plain =
        static_cast<double>(rng.UniformInt(int64_t{-40}, int64_t{40})) / 4;
    const Value x = rng.Bernoulli(0.05) ? Value::Null()
                    : rng.Bernoulli(0.3) ? Value(specials[rng.UniformInt(10u)])
                                         : Value(plain);
    const int64_t scale = rng.Bernoulli(0.1) ? (int64_t{1} << 54) + 1 : 1;
    const Value n =
        rng.Bernoulli(0.05)
            ? Value::Null()
            : Value(rng.UniformInt(int64_t{-5}, int64_t{5}) * scale);
    const Value c("c" + std::to_string(rng.UniformInt(4u)));
    DBW_CHECK_OK(t->AppendRow({x, c, n}));
  }
  FeatureView v = *FeatureView::Create(*t, {"x", "c", "n"});
  std::vector<RowId> all(t->num_rows());
  for (RowId r = 0; r < all.size(); ++r) all[r] = r;
  std::vector<RowId> repeats;
  for (int i = 0; i < 2000; ++i) {
    repeats.push_back(static_cast<RowId>(rng.UniformInt(t->num_rows())));
  }
  for (const std::vector<RowId>& rows :
       {all, repeats, std::vector<RowId>{7}, std::vector<RowId>{}}) {
    const FeatureColumns cols = v.Snapshot(rows);
    EXPECT_TRUE(cols.sorted(1).empty());  // categorical
    for (size_t f : {size_t{0}, size_t{2}}) {
      const std::vector<double>& values = cols.values(f);
      std::vector<uint32_t> want;
      for (uint32_t i = 0; i < values.size(); ++i) {
        if (!std::isnan(values[i])) want.push_back(i);
      }
      std::stable_sort(want.begin(), want.end(), [&](uint32_t a, uint32_t b) {
        return values[a] < values[b];
      });
      EXPECT_EQ(cols.sorted(f), want) << "feature " << f << ", "
                                      << rows.size() << " rows";
    }
  }
}

// ---------- k-means ----------

/// Rows stacked into one row-major matrix; `cols` is the first row's
/// length, so ragged input yields a matrix that is not rows x cols.
DenseMatrix Stack(const std::vector<std::vector<double>>& rows) {
  DenseMatrix m;
  m.rows = rows.size();
  m.cols = rows.empty() ? 0 : rows[0].size();
  for (const auto& r : rows) {
    m.values.insert(m.values.end(), r.begin(), r.end());
  }
  return m;
}

TEST(KMeansTest, SeparatesTwoBlobs) {
  Rng rng(42);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 50; ++i) {
    pts.push_back({rng.Normal(0, 0.5), rng.Normal(0, 0.5)});
  }
  for (int i = 0; i < 50; ++i) {
    pts.push_back({rng.Normal(10, 0.5), rng.Normal(10, 0.5)});
  }
  KMeansResult r = *KMeans(Stack(pts), 2, &rng);
  // All of blob 1 in one cluster, all of blob 2 in the other.
  for (int i = 1; i < 50; ++i) EXPECT_EQ(r.assignment[i], r.assignment[0]);
  for (int i = 51; i < 100; ++i) EXPECT_EQ(r.assignment[i], r.assignment[50]);
  EXPECT_NE(r.assignment[0], r.assignment[50]);
  auto sizes = r.ClusterSizes(2);
  EXPECT_EQ(sizes[0] + sizes[1], 100u);
}

TEST(KMeansTest, KOneYieldsCentroidAtMean) {
  Rng rng(1);
  KMeansResult r = *KMeans(Stack({{0.0}, {2.0}, {4.0}}), 1, &rng);
  EXPECT_NEAR(r.centroids.row(0)[0], 2.0, 1e-9);
}

TEST(KMeansTest, InvalidArguments) {
  Rng rng(1);
  EXPECT_FALSE(KMeans(DenseMatrix{}, 1, &rng).ok());
  EXPECT_FALSE(KMeans(Stack({{1.0}}), 2, &rng).ok());
  EXPECT_FALSE(KMeans(Stack({{1.0}, {1.0, 2.0}}), 1, &rng).ok());
}

TEST(KMeansTest, AutoRejectsMatrixThatIsNotRowsByCols) {
  Rng rng(1);
  // Four numbers in the first row and one in each other row: 6 values
  // for a 3 x 4 matrix. Read as rows x cols this would overrun them.
  const DenseMatrix ragged = Stack({{1, 2, 3, 4}, {1}, {2}});
  ASSERT_EQ(ragged.values.size(), 6u);
  EXPECT_TRUE(KMeansAuto(ragged, 3, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(KMeans(ragged, 1, &rng).status().IsInvalidArgument());
  const DenseMatrix no_cols{2, 0, {1.0}};
  EXPECT_TRUE(KMeansAuto(no_cols, 2, &rng).status().IsInvalidArgument());
  EXPECT_FALSE(KMeansAuto(DenseMatrix{}, 2, &rng).ok());
}

TEST(KMeansTest, DuplicatePointsDoNotCrash) {
  Rng rng(2);
  const std::vector<std::vector<double>> pts(10, {3.0, 3.0});
  KMeansResult r = *KMeans(Stack(pts), 3, &rng);
  EXPECT_EQ(r.assignment.size(), 10u);
  EXPECT_NEAR(r.inertia, 0.0, 1e-9);
}

TEST(KMeansTest, AutoFindsTwoBlobs) {
  Rng rng(7);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 40; ++i) pts.push_back({rng.Normal(0, 0.3)});
  for (int i = 0; i < 40; ++i) pts.push_back({rng.Normal(8, 0.3)});
  KMeansResult r = *KMeansAuto(Stack(pts), 4, &rng);
  const int k = 1 + *std::max_element(r.assignment.begin(), r.assignment.end());
  EXPECT_EQ(k, 2);
}

TEST(KMeansTest, AutoPrefersOneClusterForHomogeneousData) {
  Rng rng(8);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 80; ++i) pts.push_back({rng.UniformDouble(0, 1)});
  KMeansResult r = *KMeansAuto(Stack(pts), 4, &rng);
  const int k = 1 + *std::max_element(r.assignment.begin(), r.assignment.end());
  EXPECT_EQ(k, 1);
}

// ---------- naive Bayes ----------

std::vector<RowId> AllRows(const Table& t) {
  std::vector<RowId> rows(t.num_rows());
  for (RowId r = 0; r < rows.size(); ++r) rows[r] = r;
  return rows;
}

std::shared_ptr<Table> LabeledBlobTable(std::vector<int>* labels, Rng* rng) {
  auto t = std::make_shared<Table>(
      Schema{{"x", DataType::kDouble}, {"color", DataType::kString}}, "b");
  labels->clear();
  for (int i = 0; i < 100; ++i) {
    const bool pos = i % 2 == 0;
    DBW_CHECK_OK(t->AppendRow(
        {Value(rng->Normal(pos ? 5.0 : -5.0, 1.0)),
         Value(pos ? (rng->Bernoulli(0.9) ? "hot" : "cold")
                   : (rng->Bernoulli(0.9) ? "cold" : "hot"))}));
    labels->push_back(pos ? 1 : 0);
  }
  return t;
}

TEST(NaiveBayesTest, LearnsSeparableClasses) {
  Rng rng(3);
  std::vector<int> labels;
  auto t = LabeledBlobTable(&labels, &rng);
  FeatureView v = *FeatureView::Create(*t, {"x", "color"});
  const FeatureColumns cols = v.Snapshot(AllRows(*t));
  NaiveBayes model = *NaiveBayes::Fit(cols, labels);
  int correct = 0;
  for (size_t i = 0; i < cols.num_rows(); ++i) {
    if (model.Predict(cols, i) == labels[i]) ++correct;
  }
  EXPECT_GE(correct, 95);
}

TEST(NaiveBayesTest, ProbabilitiesAreCalibratedDirectionally) {
  Rng rng(4);
  std::vector<int> labels;
  auto t = LabeledBlobTable(&labels, &rng);
  FeatureView v = *FeatureView::Create(*t, {"x"});
  const FeatureColumns cols = v.Snapshot(AllRows(*t));
  NaiveBayes model = *NaiveBayes::Fit(cols, labels);
  // A deep-positive row should get probability near 1.
  double best = 0.0;
  for (size_t i = 0; i < cols.num_rows(); ++i) {
    best = std::max(best, model.PredictProba(cols, i));
  }
  EXPECT_GT(best, 0.99);
}

TEST(NaiveBayesTest, NaNValueIsSkippedLikeNull) {
  // The snapshot stores NULL as NaN, so a NaN value leaves its feature
  // out of the prediction as NULL does, and the colour alone decides.
  Rng rng(5);
  std::vector<int> labels;
  auto t = LabeledBlobTable(&labels, &rng);
  DBW_CHECK_OK(t->AppendRow({Value::Null(), Value("hot")}));
  DBW_CHECK_OK(t->AppendRow(
      {Value(std::numeric_limits<double>::quiet_NaN()), Value("hot")}));
  FeatureView v = *FeatureView::Create(*t, {"x", "color"});
  const FeatureColumns cols = v.Snapshot(AllRows(*t));
  labels.resize(cols.num_rows(), 0);
  NaiveBayes model = *NaiveBayes::Fit(cols, labels);
  const double null_proba = model.PredictProba(cols, 100);
  EXPECT_FALSE(std::isnan(null_proba));
  EXPECT_GT(null_proba, 0.5);  // "hot" is mostly positive
  EXPECT_EQ(model.PredictProba(cols, 101), null_proba);
}

TEST(NaiveBayesTest, FitValidation) {
  auto t = MixedTable();
  FeatureView v = *FeatureView::Create(*t, {"num"});
  const FeatureColumns two = v.Snapshot({0, 1});
  EXPECT_FALSE(NaiveBayes::Fit(two, {1, 1}).ok());               // one class
  EXPECT_FALSE(NaiveBayes::Fit(two, {0}).ok());               // size mismatch
  EXPECT_FALSE(NaiveBayes::Fit(two, {0, 2}).ok());               // bad label
  EXPECT_FALSE(NaiveBayes::Fit(v.Snapshot({}), {}).ok());        // empty
}

// ---------- decision tree ----------

TEST(DecisionTreeTest, LearnsAxisAlignedSplit) {
  Rng rng(5);
  auto t = std::make_shared<Table>(Schema{{"x", DataType::kDouble}}, "d");
  std::vector<RowId> rows;
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.UniformDouble(0, 10);
    DBW_CHECK_OK(t->AppendRow({Value(x)}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back(x > 7.0 ? 1 : 0);
  }
  FeatureView v = *FeatureView::Create(*t, {"x"});
  const FeatureColumns cols = v.Snapshot(rows);
  DecisionTree tree = *DecisionTree::Fit(cols, labels);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(tree.Predict(cols, i), labels[i]);
  }
  EXPECT_LE(tree.depth(), 2u);
  // The learned threshold predicate matches the planted split.
  auto preds = tree.PositiveLeafPredicates(v, 0.9);
  ASSERT_EQ(preds.size(), 1u);
  ASSERT_EQ(preds[0].num_clauses(), 1u);
  EXPECT_EQ(preds[0].clauses()[0].op, CompareOp::kGt);
  EXPECT_NEAR(*preds[0].clauses()[0].literal.AsDouble(), 7.0, 0.5);
}

TEST(DecisionTreeTest, LearnsCategoricalSplit) {
  auto t = std::make_shared<Table>(Schema{{"c", DataType::kString}}, "d");
  std::vector<RowId> rows;
  std::vector<int> labels;
  const char* cats[] = {"bad", "good1", "good2"};
  Rng rng(6);
  for (int i = 0; i < 150; ++i) {
    const size_t c = rng.UniformInt(3u);
    DBW_CHECK_OK(t->AppendRow({Value(cats[c])}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back(c == 0 ? 1 : 0);
  }
  FeatureView v = *FeatureView::Create(*t, {"c"});
  DecisionTree tree = *DecisionTree::Fit(v.Snapshot(rows), labels);
  auto preds = tree.PositiveLeafPredicates(v, 0.9);
  ASSERT_FALSE(preds.empty());
  EXPECT_EQ(preds[0].ToString(), "c = 'bad'");
}

TEST(DecisionTreeTest, GainRatioAlsoLearns) {
  Rng rng(9);
  auto t = std::make_shared<Table>(Schema{{"x", DataType::kDouble}}, "d");
  std::vector<RowId> rows;
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.UniformDouble(0, 1);
    DBW_CHECK_OK(t->AppendRow({Value(x)}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back(x < 0.3 ? 1 : 0);
  }
  FeatureView v = *FeatureView::Create(*t, {"x"});
  DecisionTreeOptions opts;
  opts.criterion = SplitCriterion::kGainRatio;
  const FeatureColumns cols = v.Snapshot(rows);
  DecisionTree tree = *DecisionTree::Fit(cols, labels, opts);
  int correct = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    correct += tree.Predict(cols, i) == labels[i];
  }
  EXPECT_GE(correct, 195);
}

TEST(DecisionTreeTest, MaxDepthBoundsPredicateComplexity) {
  Rng rng(10);
  auto t = std::make_shared<Table>(
      Schema{{"a", DataType::kDouble}, {"b", DataType::kDouble}}, "d");
  std::vector<RowId> rows;
  std::vector<int> labels;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.UniformDouble(0, 1);
    const double b = rng.UniformDouble(0, 1);
    DBW_CHECK_OK(t->AppendRow({Value(a), Value(b)}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back(a > 0.5 && b > 0.5 ? 1 : 0);
  }
  FeatureView v = *FeatureView::Create(*t, {"a", "b"});
  DecisionTreeOptions opts;
  opts.max_depth = 2;
  DecisionTree tree = *DecisionTree::Fit(v.Snapshot(rows), labels, opts);
  EXPECT_LE(tree.depth(), 2u);
  for (const Predicate& p : tree.PositiveLeafPredicates(v, 0.5)) {
    EXPECT_LE(p.num_clauses(), 2u);
  }
}

TEST(DecisionTreeTest, CostComplexityPruningShrinksTree) {
  Rng rng(11);
  auto t = std::make_shared<Table>(Schema{{"x", DataType::kDouble}}, "d");
  std::vector<RowId> rows;
  std::vector<int> labels;
  for (int i = 0; i < 400; ++i) {
    const double x = rng.UniformDouble(0, 1);
    DBW_CHECK_OK(t->AppendRow({Value(x)}));
    rows.push_back(static_cast<RowId>(i));
    // Noisy labels: 80% follow x > 0.5, 20% random.
    labels.push_back(rng.Bernoulli(0.8) ? (x > 0.5 ? 1 : 0)
                                        : (rng.Bernoulli(0.5) ? 1 : 0));
  }
  FeatureView v = *FeatureView::Create(*t, {"x"});
  DecisionTreeOptions loose;
  loose.max_depth = 8;
  const FeatureColumns cols = v.Snapshot(rows);
  DecisionTree big = *DecisionTree::Fit(cols, labels, loose);
  DecisionTreeOptions pruned = loose;
  pruned.ccp_alpha = 0.02;
  DecisionTree small = *DecisionTree::Fit(cols, labels, pruned);
  EXPECT_LT(small.num_leaves(), big.num_leaves());
}

TEST(DecisionTreeTest, NullsRouteRight) {
  auto t = std::make_shared<Table>(Schema{{"x", DataType::kDouble}}, "d");
  std::vector<RowId> rows;
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    DBW_CHECK_OK(t->AppendRow({Value(static_cast<double>(i))}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back(i < 10 ? 1 : 0);
  }
  DBW_CHECK_OK(t->AppendRow({Value::Null()}));
  FeatureView v = *FeatureView::Create(*t, {"x"});
  DecisionTree tree = *DecisionTree::Fit(v.Snapshot(rows), labels);
  // NULL goes right = the "condition false" branch = negative side here.
  EXPECT_EQ(tree.Predict(v.Snapshot({20}), 0), 0);
}

TEST(DecisionTreeTest, NaNRoutesRightInTraining) {
  // Positives at x >= 10, negatives at x <= 5, every third row NaN.
  // NaN has no place in a `<` order, so it goes right, like NULL, in
  // training as in prediction: the split lies between 5 and 10, the
  // same for either row order.
  auto t = std::make_shared<Table>(Schema{{"x", DataType::kDouble}}, "d");
  std::vector<RowId> rows;
  std::vector<int> labels;
  for (int i = 0; i < 60; ++i) {
    const bool pos = i % 2 == 0;
    const double x = i % 3 == 0 ? std::numeric_limits<double>::quiet_NaN()
                     : pos      ? 10.0 + i / 6
                                : 5.0 - i / 6;
    DBW_CHECK_OK(t->AppendRow({Value(x)}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back(pos ? 1 : 0);
  }
  FeatureView v = *FeatureView::Create(*t, {"x"});
  DecisionTreeOptions opts;
  opts.max_depth = 1;
  const DecisionTree forward =
      *DecisionTree::Fit(v.Snapshot(rows), labels, opts);
  std::vector<RowId> rev_rows(rows.rbegin(), rows.rend());
  std::vector<int> rev_labels(labels.rbegin(), labels.rend());
  const DecisionTree backward =
      *DecisionTree::Fit(v.Snapshot(rev_rows), rev_labels, opts);
  const FeatureColumns nan_row = v.Snapshot({0});  // row 0 is NaN
  for (const DecisionTree* tree : {&forward, &backward}) {
    const DecisionTree::Node& root = tree->nodes()[0];
    ASSERT_FALSE(root.is_leaf);
    EXPECT_FALSE(root.categorical);
    EXPECT_EQ(root.threshold, 7.5);
    // The NaN rows' mass sits in the right child with the positives.
    const DecisionTree::Node& right = tree->nodes()[root.right];
    EXPECT_EQ(right.n0 + right.n1, 20.0 + 20.0);
    EXPECT_EQ(tree->PredictProba(nan_row, 0), right.prob1());
  }
}

TEST(DecisionTreeTest, PredicatesClassifyConsistentlyWithTree) {
  // Property: rows matching any extracted positive predicate are
  // predicted positive by the tree (on null-free data).
  Rng rng(12);
  auto t = std::make_shared<Table>(
      Schema{{"a", DataType::kDouble}, {"c", DataType::kString}}, "d");
  std::vector<RowId> rows;
  std::vector<int> labels;
  const char* cats[] = {"p", "q", "r"};
  for (int i = 0; i < 500; ++i) {
    const double a = rng.Normal(0, 1);
    const size_t c = rng.UniformInt(3u);
    DBW_CHECK_OK(t->AppendRow({Value(a), Value(cats[c])}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back((a > 0.5 && c == 1) ? 1 : 0);
  }
  FeatureView v = *FeatureView::Create(*t, {"a", "c"});
  const FeatureColumns cols = v.Snapshot(rows);
  DecisionTree tree = *DecisionTree::Fit(cols, labels);
  auto preds = tree.PositiveLeafPredicates(v, 0.5);
  ASSERT_FALSE(preds.empty());
  for (const Predicate& p : preds) {
    for (RowId r : rows) {  // row r sits at position r
      if (*p.Matches(*t, r)) {
        EXPECT_GE(tree.PredictProba(cols, r), 0.5)
            << "predicate " << p.ToString() << " row " << r;
      }
    }
  }
}

TEST(DecisionTreeTest, FitValidation) {
  auto t = MixedTable();
  FeatureView v = *FeatureView::Create(*t, {"num"});
  EXPECT_FALSE(DecisionTree::Fit(v.Snapshot({}), {}).ok());
  EXPECT_FALSE(DecisionTree::Fit(v.Snapshot({0, 1}), {0}).ok());
  EXPECT_FALSE(DecisionTree::Fit(v.Snapshot({0, 1}), {0, 3}).ok());
}

TEST(DecisionTreeTest, ToStringShowsStructure) {
  auto t = std::make_shared<Table>(Schema{{"x", DataType::kDouble}}, "d");
  std::vector<RowId> rows;
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    DBW_CHECK_OK(t->AppendRow({Value(static_cast<double>(i))}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back(i < 10 ? 1 : 0);
  }
  FeatureView v = *FeatureView::Create(*t, {"x"});
  DecisionTree tree = *DecisionTree::Fit(v.Snapshot(rows), labels);
  const std::string s = tree.ToString(v);
  EXPECT_NE(s.find("split on x <="), std::string::npos);
  EXPECT_NE(s.find("leaf"), std::string::npos);
}

}  // namespace
}  // namespace dbwipes
