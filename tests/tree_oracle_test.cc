#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>

#include "dbwipes/common/random.h"
#include "dbwipes/learn/decision_tree.h"

namespace dbwipes {
namespace {

// ---------- reference tree builder ----------
//
// The builder that DecisionTree::Fit replaced: it reads every value
// through FeatureView::Get/IsNull per row, node and feature, sorts each
// numeric feature's values at every node, and counts categories in an
// unordered_map per node. Kept only as the oracle. A NaN or NULL value
// is in no sort and goes right, the rule DecisionTree follows (pinned
// on its own by DecisionTreeTest.NaNRoutesRightInTraining).
namespace reference {

using Node = DecisionTree::Node;

double Gini(double n0, double n1) {
  const double n = n0 + n1;
  if (n <= 0.0) return 0.0;
  const double p0 = n0 / n;
  const double p1 = n1 / n;
  return 1.0 - p0 * p0 - p1 * p1;
}

double Entropy(double n0, double n1) {
  const double n = n0 + n1;
  if (n <= 0.0) return 0.0;
  double h = 0.0;
  for (double c : {n0, n1}) {
    if (c > 0.0) {
      const double p = c / n;
      h -= p * std::log2(p);
    }
  }
  return h;
}

struct SplitEval {
  bool valid = false;
  double score = -std::numeric_limits<double>::infinity();
  double impurity_decrease = 0.0;
  size_t feature = 0;
  bool categorical = false;
  double threshold = 0.0;
  int32_t category = -1;
  // Positive fraction of the left ("condition true") branch; used to
  // break score ties toward splits whose equality form is the positive
  // side — `tag = 'bad'` reads better than `tag != 'fine'`.
  double left_pos_frac = 0.0;
};

/// Scores a (left, right) partition under the configured criterion.
/// Returns (score, impurity_decrease); higher score is better.
std::pair<double, double> ScorePartition(SplitCriterion criterion, double l0,
                                         double l1, double r0, double r1) {
  const double n = l0 + l1 + r0 + r1;
  const double nl = l0 + l1;
  const double nr = r0 + r1;
  if (criterion == SplitCriterion::kGini) {
    const double parent = Gini(l0 + r0, l1 + r1);
    const double child = (nl / n) * Gini(l0, l1) + (nr / n) * Gini(r0, r1);
    const double decrease = parent - child;
    return {decrease, decrease};
  }
  // Gain ratio: information gain normalized by split info.
  const double parent = Entropy(l0 + r0, l1 + r1);
  const double child = (nl / n) * Entropy(l0, l1) + (nr / n) * Entropy(r0, r1);
  const double gain = parent - child;
  double split_info = 0.0;
  for (double c : {nl, nr}) {
    if (c > 0.0) {
      const double p = c / n;
      split_info -= p * std::log2(p);
    }
  }
  if (split_info <= 1e-12) return {-1.0, gain};
  return {gain / split_info, gain};
}

class TreeBuilder {
 public:
  TreeBuilder(const FeatureView& view, const std::vector<RowId>& rows,
              const std::vector<int>& labels,
              const DecisionTreeOptions& options,
              std::vector<DecisionTree::Node>* nodes)
      : view_(view),
        rows_(rows),
        labels_(labels),
        options_(options),
        nodes_(nodes) {}

  int Build(std::vector<size_t> indices, int depth) {
    DecisionTree::Node node;
    node.depth = depth;
    for (size_t i : indices) {
      (labels_[i] == 1 ? node.n1 : node.n0) += 1.0;
    }
    const int id = static_cast<int>(nodes_->size());
    nodes_->push_back(node);

    const bool pure = node.n0 <= 0.0 || node.n1 <= 0.0;
    if (pure || depth >= static_cast<int>(options_.max_depth) ||
        node.total() < options_.min_samples_split) {
      return id;
    }

    const SplitEval best = FindBestSplit(indices);
    if (!best.valid ||
        best.impurity_decrease < options_.min_impurity_decrease) {
      return id;
    }

    std::vector<size_t> left, right;
    left.reserve(indices.size());
    right.reserve(indices.size());
    for (size_t i : indices) {
      (GoesLeft(best, rows_[i]) ? left : right).push_back(i);
    }
    if (left.empty() || right.empty()) return id;

    indices.clear();
    indices.shrink_to_fit();

    (*nodes_)[id].is_leaf = false;
    (*nodes_)[id].feature = best.feature;
    (*nodes_)[id].categorical = best.categorical;
    (*nodes_)[id].threshold = best.threshold;
    (*nodes_)[id].category = best.category;
    const int left_id = Build(std::move(left), depth + 1);
    (*nodes_)[id].left = left_id;
    const int right_id = Build(std::move(right), depth + 1);
    (*nodes_)[id].right = right_id;
    return id;
  }

 private:
  bool GoesLeft(const SplitEval& split, RowId row) const {
    if (view_.IsNull(row, split.feature)) return false;
    const double v = view_.Get(row, split.feature);
    if (split.categorical) {
      return static_cast<int32_t>(v) == split.category;
    }
    return v <= split.threshold;
  }

  SplitEval FindBestSplit(const std::vector<size_t>& indices) const {
    SplitEval best;
    for (size_t f = 0; f < view_.num_features(); ++f) {
      if (view_.features()[f].categorical) {
        EvalCategorical(indices, f, &best);
      } else {
        EvalNumeric(indices, f, &best);
      }
    }
    return best;
  }

  void Consider(SplitEval* best, SplitCriterion criterion, double l0,
                double l1, double r0, double r1, size_t feature,
                bool categorical, double threshold, int32_t category) const {
    const double nl = l0 + l1;
    const double nr = r0 + r1;
    if (nl < options_.min_samples_leaf || nr < options_.min_samples_leaf) {
      return;
    }
    const auto [score, decrease] = ScorePartition(criterion, l0, l1, r0, r1);
    const double left_pos_frac = nl > 0.0 ? l1 / nl : 0.0;
    const bool better =
        score > best->score ||
        (score == best->score && left_pos_frac > best->left_pos_frac);
    if (better) {
      best->valid = true;
      best->score = score;
      best->impurity_decrease = decrease;
      best->feature = feature;
      best->categorical = categorical;
      best->threshold = threshold;
      best->category = category;
      best->left_pos_frac = left_pos_frac;
    }
  }

  void EvalNumeric(const std::vector<size_t>& indices, size_t f,
                   SplitEval* best) const {
    // Sort the values; NULL and NaN accumulate on the right side.
    struct Item {
      double value;
      double n0;
      double n1;
    };
    std::vector<Item> items;
    items.reserve(indices.size());
    double tot0 = 0.0, tot1 = 0.0;
    for (size_t i : indices) {
      const int y = labels_[i];
      (y == 1 ? tot1 : tot0) += 1.0;
      const double v = view_.Get(rows_[i], f);  // NaN for NULL
      if (std::isnan(v)) continue;
      items.push_back({v, y == 0 ? 1.0 : 0.0, y == 1 ? 1.0 : 0.0});
    }
    if (items.size() < 2) return;
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.value < b.value; });

    double l0 = 0.0, l1 = 0.0;
    for (size_t i = 0; i + 1 < items.size(); ++i) {
      l0 += items[i].n0;
      l1 += items[i].n1;
      if (items[i].value == items[i + 1].value) continue;
      const double threshold =
          items[i].value + (items[i + 1].value - items[i].value) / 2.0;
      Consider(best, options_.criterion, l0, l1, tot0 - l0, tot1 - l1, f,
               /*categorical=*/false, threshold, -1);
    }
  }

  void EvalCategorical(const std::vector<size_t>& indices, size_t f,
                       SplitEval* best) const {
    struct CatMass {
      double n0 = 0.0;
      double n1 = 0.0;
    };
    std::unordered_map<int32_t, CatMass> mass;
    double tot0 = 0.0, tot1 = 0.0;
    for (size_t i : indices) {
      const int y = labels_[i];
      (y == 1 ? tot1 : tot0) += 1.0;
      if (view_.IsNull(rows_[i], f)) continue;
      CatMass& m = mass[static_cast<int32_t>(view_.Get(rows_[i], f))];
      (y == 1 ? m.n1 : m.n0) += 1.0;
    }
    if (mass.size() < 2) return;

    // Cap candidates at the heaviest categories. Sort fully (heaviest
    // first, code as tie-break) so candidate order — and therefore the
    // fitted tree — is deterministic regardless of hash-map iteration.
    std::vector<std::pair<int32_t, CatMass>> cats(mass.begin(), mass.end());
    std::sort(cats.begin(), cats.end(), [](const auto& a, const auto& b) {
      const double na = a.second.n0 + a.second.n1;
      const double nb = b.second.n0 + b.second.n1;
      if (na != nb) return na > nb;
      return a.first < b.first;
    });
    if (cats.size() > options_.max_categories_per_feature) {
      cats.resize(options_.max_categories_per_feature);
    }
    for (const auto& [code, m] : cats) {
      Consider(best, options_.criterion, m.n0, m.n1, tot0 - m.n0,
               tot1 - m.n1, f, /*categorical=*/true, 0.0, code);
    }
  }

  const FeatureView& view_;
  const std::vector<RowId>& rows_;
  const std::vector<int>& labels_;
  const DecisionTreeOptions& options_;
  std::vector<DecisionTree::Node>* nodes_;
};

/// The old Fit after its input checks (the oracle feeds valid input).
std::vector<Node> Fit(const FeatureView& view, const std::vector<RowId>& rows,
                      const std::vector<int>& labels,
                      const DecisionTreeOptions& options) {
  std::vector<Node> nodes;
  TreeBuilder builder(view, rows, labels, options, &nodes);
  std::vector<size_t> indices(rows.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  builder.Build(std::move(indices), 0);

  if (options.ccp_alpha > 0.0) {
    const double total = nodes[0].total();
    for (int id = static_cast<int>(nodes.size()) - 1; id >= 0; --id) {
      Node& node = nodes[id];
      if (node.is_leaf) continue;
      double subtree_error = 0.0;
      size_t leaves = 0;
      std::vector<int> stack = {id};
      while (!stack.empty()) {
        const Node& n = nodes[stack.back()];
        stack.pop_back();
        if (n.is_leaf) {
          subtree_error += std::min(n.n0, n.n1);
          ++leaves;
        } else {
          stack.push_back(n.left);
          stack.push_back(n.right);
        }
      }
      const double node_error = std::min(node.n0, node.n1);
      if (leaves > 1) {
        const double g = (node_error - subtree_error) /
                         (total * static_cast<double>(leaves - 1));
        if (g <= options.ccp_alpha) {
          node.is_leaf = true;
          node.left = node.right = -1;
        }
      }
    }
  }
  return nodes;
}

/// The leaf-predicate extraction of DecisionTree over a node vector.
std::vector<Predicate> PositiveLeafPredicates(const std::vector<Node>& nodes,
                                              const FeatureView& view,
                                              double min_precision) {
  std::vector<Predicate> out;
  struct Frame {
    int id;
    std::vector<Clause> clauses;
  };
  std::vector<Frame> stack;
  stack.push_back({0, {}});
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const Node& n = nodes[frame.id];
    if (n.is_leaf) {
      if (n.prob1() >= min_precision && !frame.clauses.empty()) {
        out.push_back(Predicate(frame.clauses).Simplify());
      }
      continue;
    }
    const std::string& name = view.features()[n.feature].name;
    Clause left, right;
    if (n.categorical) {
      const std::string& cat = view.CategoryName(n.feature, n.category);
      left = Clause::Make(name, CompareOp::kEq, Value(cat));
      right = Clause::Make(name, CompareOp::kNe, Value(cat));
    } else {
      left = Clause::Make(name, CompareOp::kLe, Value(n.threshold));
      right = Clause::Make(name, CompareOp::kGt, Value(n.threshold));
    }
    Frame left_frame{n.left, frame.clauses};
    left_frame.clauses.push_back(std::move(left));
    Frame right_frame{n.right, std::move(frame.clauses)};
    right_frame.clauses.push_back(std::move(right));
    stack.push_back(std::move(left_frame));
    stack.push_back(std::move(right_frame));
  }
  return out;
}

}  // namespace reference

// ---------- random problems ----------

struct Problem {
  std::shared_ptr<Table> table;
  std::vector<std::string> columns;
  std::vector<RowId> rows;
  std::vector<int> labels;
  DecisionTreeOptions options;
};

/// Random options for p.
void RandomOptions(Rng* rng, Problem* p) {
  DecisionTreeOptions& o = p->options;
  o.criterion =
      rng->Bernoulli(0.5) ? SplitCriterion::kGini : SplitCriterion::kGainRatio;
  o.max_depth = 1 + rng->UniformInt(6);
  const double leaf[] = {0.5, 1.0, 2.0, 4.0};
  o.min_samples_leaf = leaf[rng->UniformInt(4)];
  o.min_samples_split = rng->Bernoulli(0.8) ? 2.0 : 6.0;
  const double decrease[] = {0.0, 1e-4, 0.01};
  o.min_impurity_decrease = decrease[rng->UniformInt(3)];
  const double alpha[] = {0.0, 0.0, 0.005, 0.02};
  o.ccp_alpha = alpha[rng->UniformInt(4)];
  const size_t cap[] = {1, 2, 3, 64};
  o.max_categories_per_feature = cap[rng->UniformInt(4)];
}

/// A table with a double column (ties, NULLs, NaN, ±inf, both zeros),
/// an int64 column (NULLs, values beyond 2^53), and two string columns
/// (NULLs, one with more categories than max_categories_per_feature
/// often allows). Rows are a random subset in random order; labels
/// follow a planted rule with noise.
Problem RandomProblem(Rng* rng) {
  Problem p;
  p.table = std::make_shared<Table>(Schema{{"x", DataType::kDouble},
                                           {"n", DataType::kInt64},
                                           {"c", DataType::kString},
                                           {"s", DataType::kString}},
                                    "t");
  const size_t num_rows = 2 + rng->UniformInt(300);
  const size_t distinct_x = 2 + rng->UniformInt(40);
  const size_t num_cats = 2 + rng->UniformInt(12);
  const double null_rate = rng->Bernoulli(0.5) ? 0.1 : 0.0;
  for (size_t r = 0; r < num_rows; ++r) {
    Value x;
    if (rng->Bernoulli(null_rate)) {
      x = Value::Null();
    } else {
      const uint64_t special = rng->UniformInt(60);
      const double tied =
          static_cast<double>(rng->UniformInt(distinct_x)) * 0.37 - 3.0;
      x = Value(special == 0   ? std::numeric_limits<double>::infinity()
                : special == 1 ? -std::numeric_limits<double>::infinity()
                : special == 2 ? std::numeric_limits<double>::quiet_NaN()
                : special == 3 ? -0.0
                : special == 4 ? 0.0
                               : tied);
    }
    const int64_t small = rng->UniformInt(int64_t{-20}, int64_t{20});
    const int64_t scale = rng->Bernoulli(0.1) ? (int64_t{1} << 54) + 1 : 1;
    Value n = rng->Bernoulli(null_rate) ? Value::Null() : Value(small * scale);
    Value c = rng->Bernoulli(null_rate)
                  ? Value::Null()
                  : Value("c" + std::to_string(rng->UniformInt(num_cats)));
    Value s = rng->Bernoulli(null_rate)
                  ? Value::Null()
                  : Value("s" + std::to_string(rng->UniformInt(3)));
    DBW_CHECK_OK(p.table->AppendRow({x, n, c, s}));
  }
  p.columns = {"x", "n", "c", "s"};
  rng->Shuffle(&p.columns);
  p.columns.resize(1 + rng->UniformInt(4));

  for (RowId r = 0; r < num_rows; ++r) {
    if (rng->Bernoulli(0.85)) p.rows.push_back(r);
  }
  if (p.rows.empty()) p.rows.push_back(0);
  rng->Shuffle(&p.rows);

  const Column& xc = p.table->column(0);
  const Column& cc = p.table->column(2);
  const double noise = rng->UniformDouble(0.0, 0.3);
  for (RowId r : p.rows) {
    bool y = (!xc.IsNull(r) && xc.GetDouble(r) > 1.0) ||
             (!cc.IsNull(r) && cc.GetString(r) == "c1");
    if (rng->Bernoulli(noise)) y = !y;
    p.labels.push_back(y ? 1 : 0);
  }
  RandomOptions(rng, &p);
  return p;
}

/// A string column whose dictionary holds thousands of codes, under a
/// row list that touches at most ~120 of them, and a double column with
/// ties. The snapshot ranks only the rows' codes, and a categorical
/// split must still name the dictionary code.
Problem WideDictionaryProblem(Rng* rng) {
  Problem p;
  p.table = std::make_shared<Table>(
      Schema{{"c", DataType::kString}, {"x", DataType::kDouble}}, "w");
  const size_t num_rows = 2000 + rng->UniformInt(3000);
  for (size_t r = 0; r < num_rows; ++r) {
    Value c = rng->Bernoulli(0.05)
                  ? Value::Null()
                  : Value("c" + std::to_string(rng->UniformInt(num_rows)));
    Value x(static_cast<double>(rng->UniformInt(20)) * 0.5);
    DBW_CHECK_OK(p.table->AppendRow({c, x}));
  }
  p.columns = {"c", "x"};
  rng->Shuffle(&p.columns);
  p.columns.resize(1 + rng->UniformInt(2));

  for (size_t r : rng->SampleWithoutReplacement(num_rows,
                                                2 + rng->UniformInt(120))) {
    p.rows.push_back(static_cast<RowId>(r));
  }
  const Column& cc = p.table->column(0);
  const Column& xc = p.table->column(1);
  const double noise = rng->UniformDouble(0.0, 0.3);
  for (RowId r : p.rows) {
    bool y = (!cc.IsNull(r) && cc.StringCode(r) % 3 == 0) ||
             xc.GetDouble(r) > 7.0;
    if (rng->Bernoulli(noise)) y = !y;
    p.labels.push_back(y ? 1 : 0);
  }
  RandomOptions(rng, &p);
  return p;
}

/// Long runs of ties: 1,000 to 3,000 rows whose numeric columns each
/// take at most 5 distinct values (the double column's may hold both
/// zeros, NaN and NULL), and a string column of at most 5 categories, so
/// that nodes deep in the tree still scan long runs of equal values.
/// The presort orders a run by position, the reference's sort does
/// not; the trees must not differ.
Problem TiedProblem(Rng* rng) {
  Problem p;
  p.table = std::make_shared<Table>(Schema{{"x", DataType::kDouble},
                                           {"y", DataType::kDouble},
                                           {"n", DataType::kInt64},
                                           {"c", DataType::kString}},
                                    "tied");
  // At most 5 of `values`, in random order.
  auto pool = [&](std::vector<Value> values) {
    rng->Shuffle(&values);
    values.resize(1 + rng->UniformInt(5));
    return values;
  };
  const std::vector<Value> xs =
      pool({Value(-0.0), Value(0.0), Value(1.5), Value(-2.25), Value(7.0),
            Value(std::numeric_limits<double>::quiet_NaN()), Value::Null()});
  const std::vector<Value> ys = pool(
      {Value(0.125), Value(0.25), Value(-0.5), Value(1e9), Value(3.0)});
  const std::vector<Value> ns =
      pool({Value(int64_t{-3}), Value(int64_t{0}), Value(int64_t{5}),
            Value(int64_t{9}), Value((int64_t{1} << 54) + 1)});
  const size_t num_cats = 1 + rng->UniformInt(5);
  const size_t num_rows = 1000 + rng->UniformInt(2001);
  for (size_t r = 0; r < num_rows; ++r) {
    DBW_CHECK_OK(p.table->AppendRow(
        {xs[rng->UniformInt(xs.size())], ys[rng->UniformInt(ys.size())],
         ns[rng->UniformInt(ns.size())],
         Value("c" + std::to_string(rng->UniformInt(num_cats)))}));
  }
  p.columns = {"x", "y", "n", "c"};
  rng->Shuffle(&p.columns);
  p.columns.resize(2 + rng->UniformInt(3));

  for (RowId r = 0; r < num_rows; ++r) {
    if (rng->Bernoulli(0.9)) p.rows.push_back(r);
  }
  rng->Shuffle(&p.rows);
  const Column& xc = p.table->column(0);
  const Column& nc = p.table->column(2);
  const Column& cc = p.table->column(3);
  const double noise = rng->UniformDouble(0.05, 0.3);
  for (RowId r : p.rows) {
    bool y = (!xc.IsNull(r) && xc.GetDouble(r) > 1.0 &&
              cc.GetString(r) != "c0") ||
             nc.GetInt64(r) > 4;
    if (rng->Bernoulli(noise)) y = !y;
    p.labels.push_back(y ? 1 : 0);
  }
  RandomOptions(rng, &p);
  p.options.max_depth = 3 + rng->UniformInt(4);
  return p;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Empty when the reachable trees from the roots are identical node for
/// node; otherwise the first difference.
std::string CompareReachable(const std::vector<DecisionTree::Node>& want,
                             const std::vector<DecisionTree::Node>& got) {
  std::vector<std::pair<int, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    const auto [wi, gi] = stack.back();
    stack.pop_back();
    const DecisionTree::Node& w = want[wi];
    const DecisionTree::Node& g = got[gi];
    const std::string at = " at node " + std::to_string(wi);
    if (w.is_leaf != g.is_leaf) return "kind" + at;
    if (w.depth != g.depth) return "depth" + at;
    if (!SameBits(w.n0, g.n0) || !SameBits(w.n1, g.n1)) return "n0/n1" + at;
    if (w.is_leaf) continue;
    if (w.feature != g.feature) return "feature" + at;
    if (w.categorical != g.categorical) return "split kind" + at;
    if (!SameBits(w.threshold, g.threshold)) return "threshold" + at;
    if (w.category != g.category) return "category" + at;
    stack.push_back({w.left, g.left});
    stack.push_back({w.right, g.right});
  }
  return "";
}

std::string Render(const std::vector<Predicate>& preds) {
  std::string out;
  for (const Predicate& p : preds) out += p.ToString() + "\n";
  return out;
}

TEST(TreeOracle, DenseBuilderMatchesReference) {
  Rng gen(42018);
  constexpr int kProblems = 1200;
  int nan_x = 0, pruned = 0, capped = 0, gain_ratio = 0;
  for (int trial = 0; trial < kProblems; ++trial) {
    const Problem p = RandomProblem(&gen);
    pruned += p.options.ccp_alpha > 0.0;
    capped += p.options.max_categories_per_feature < 12;
    gain_ratio += p.options.criterion == SplitCriterion::kGainRatio;
    const FeatureView view = *FeatureView::Create(*p.table, p.columns);
    const FeatureColumns columns = view.Snapshot(p.rows);
    for (size_t f = 0; f < view.num_features(); ++f) {
      if (view.features()[f].name != "x") continue;
      const std::vector<double>& xs = columns.values(f);
      for (size_t i = 0; i < xs.size(); ++i) {
        if (std::isnan(xs[i]) && !view.IsNull(p.rows[i], f)) {
          ++nan_x;
          break;
        }
      }
    }
    const std::vector<DecisionTree::Node> want =
        reference::Fit(view, p.rows, p.labels, p.options);
    const DecisionTree got = *DecisionTree::Fit(columns, p.labels, p.options);
    const std::string where = "trial " + std::to_string(trial);
    EXPECT_EQ(CompareReachable(want, got.nodes()), "") << where;
    EXPECT_EQ(Render(got.PositiveLeafPredicates(view, 0.5)),
              Render(reference::PositiveLeafPredicates(want, view, 0.5)))
        << where;
  }
  EXPECT_GE(nan_x, kProblems / 4);
  EXPECT_GE(pruned, kProblems / 4);
  EXPECT_GE(capped, kProblems / 2);
  EXPECT_GE(gain_ratio, kProblems / 3);
}

TEST(TreeOracle, WideDictionaryOverFewRows) {
  Rng gen(5001);
  constexpr int kProblems = 80;
  int category_splits = 0;
  for (int trial = 0; trial < kProblems; ++trial) {
    const Problem p = WideDictionaryProblem(&gen);
    const FeatureView view = *FeatureView::Create(*p.table, p.columns);
    const FeatureColumns columns = view.Snapshot(p.rows);
    const std::string where = "trial " + std::to_string(trial);
    for (size_t f = 0; f < view.num_features(); ++f) {
      if (!view.features()[f].categorical) continue;
      EXPECT_LE(columns.categories(f).size(), p.rows.size()) << where;
      EXPECT_GT(p.table->column(0).dictionary_size(), 10 * p.rows.size())
          << where;
    }
    const std::vector<DecisionTree::Node> want =
        reference::Fit(view, p.rows, p.labels, p.options);
    const DecisionTree got = *DecisionTree::Fit(columns, p.labels, p.options);
    EXPECT_EQ(CompareReachable(want, got.nodes()), "") << where;
    EXPECT_EQ(Render(got.PositiveLeafPredicates(view, 0.5)),
              Render(reference::PositiveLeafPredicates(want, view, 0.5)))
        << where;
    for (const DecisionTree::Node& n : got.nodes()) {
      category_splits += !n.is_leaf && n.categorical;
    }
  }
  EXPECT_GE(category_splits, kProblems / 4);
}

TEST(TreeOracle, LongTieRunsMatchReference) {
  Rng gen(1996);
  constexpr int kProblems = 60;
  int deep_splits = 0;
  for (int trial = 0; trial < kProblems; ++trial) {
    const Problem p = TiedProblem(&gen);
    const FeatureView view = *FeatureView::Create(*p.table, p.columns);
    const std::vector<DecisionTree::Node> want =
        reference::Fit(view, p.rows, p.labels, p.options);
    const DecisionTree got =
        *DecisionTree::Fit(view.Snapshot(p.rows), p.labels, p.options);
    const std::string where = "trial " + std::to_string(trial);
    EXPECT_EQ(CompareReachable(want, got.nodes()), "") << where;
    EXPECT_EQ(Render(got.PositiveLeafPredicates(view, 0.5)),
              Render(reference::PositiveLeafPredicates(want, view, 0.5)))
        << where;
    for (const DecisionTree::Node& n : got.nodes()) {
      deep_splits += !n.is_leaf && n.depth >= 2;
    }
  }
  EXPECT_GE(deep_splits, kProblems);
}

// Growth is greedy and max_depth only stops the recursion, so a fit at
// depth d is a deeper fit cut at d: the truncation the Predicate
// Enumerator reads its shallower strategies from.
TEST(TreeOracle, TruncatedDeeperFitEqualsShallowFit) {
  Rng gen(7);
  int compared = 0;
  for (int trial = 0; trial < 600; ++trial) {
    Problem p = RandomProblem(&gen);
    p.options.ccp_alpha = 0.0;
    const FeatureView view = *FeatureView::Create(*p.table, p.columns);
    const FeatureColumns columns = view.Snapshot(p.rows);
    const size_t d = p.options.max_depth;
    const DecisionTree shallow =
        *DecisionTree::Fit(columns, p.labels, p.options);
    for (size_t extra : {1, 2}) {
      DecisionTreeOptions deeper = p.options;
      deeper.max_depth = d + extra;
      const DecisionTree cut =
          DecisionTree::Fit(columns, p.labels, deeper)->Truncate(d);
      const std::string where = "trial " + std::to_string(trial) + " depth " +
                                std::to_string(d) + "+" + std::to_string(extra);
      ASSERT_EQ(cut.nodes().size(), shallow.nodes().size()) << where;
      EXPECT_EQ(CompareReachable(shallow.nodes(), cut.nodes()), "") << where;
      EXPECT_EQ(cut.ToString(view), shallow.ToString(view)) << where;
      EXPECT_EQ(Render(cut.PositiveLeafPredicates(view, 0.5)),
                Render(shallow.PositiveLeafPredicates(view, 0.5)))
          << where;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 1200);
}

}  // namespace
}  // namespace dbwipes
