#include "dbwipes/learn/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace dbwipes {

namespace {

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

/// True when position i of `columns` takes the left branch of `split`.
/// A NULL code (-1) never equals a category, and NaN (NULL included) is
/// never <= a threshold, so both go right.
bool GoesLeft(const FeatureColumns& columns, const DecisionTree::Node& split,
              size_t i) {
  if (split.categorical) {
    return columns.code(split.feature, i) == split.category;
  }
  return columns.values(split.feature)[i] <= split.threshold;
}

class TreeBuilder {
 public:
  TreeBuilder(const FeatureColumns& columns, const std::vector<int>& labels,
              const std::vector<double>& weights,
              const DecisionTreeOptions& options,
              std::vector<DecisionTree::Node>* nodes)
      : columns_(columns),
        labels_(labels),
        weights_(weights),
        options_(options),
        nodes_(nodes) {
    size_t num_categories = 0;
    for (size_t f = 0; f < columns.num_features(); ++f) {
      if (columns.categorical(f)) {
        num_categories =
            std::max(num_categories, columns.categories(f).size());
      }
    }
    mass_.resize(num_categories);
  }

  int Build(std::vector<size_t> indices, int depth) {
    DecisionTree::Node node;
    node.depth = depth;
    for (size_t i : indices) {
      (labels_[i] == 1 ? node.n1 : node.n0) += weights_[i];
    }
    const int id = static_cast<int>(nodes_->size());
    nodes_->push_back(node);

    const bool pure = node.n0 <= 0.0 || node.n1 <= 0.0;
    if (pure || depth >= static_cast<int>(options_.max_depth) ||
        node.total() < options_.min_samples_split) {
      return id;
    }

    const SplitEval best = FindBestSplit(indices, node.n0, node.n1);
    if (!best.valid ||
        best.impurity_decrease < options_.min_impurity_decrease) {
      return id;
    }

    DecisionTree::Node split = node;
    split.is_leaf = false;
    split.feature = best.feature;
    split.categorical = best.categorical;
    split.threshold = best.threshold;
    split.category = best.category;
    std::vector<size_t> left, right;
    left.reserve(indices.size());
    right.reserve(indices.size());
    for (size_t i : indices) {
      (GoesLeft(columns_, split, i) ? left : right).push_back(i);
    }
    if (left.empty() || right.empty()) return id;

    indices.clear();
    indices.shrink_to_fit();

    (*nodes_)[id] = split;
    const int left_id = Build(std::move(left), depth + 1);
    (*nodes_)[id].left = left_id;
    const int right_id = Build(std::move(right), depth + 1);
    (*nodes_)[id].right = right_id;
    return id;
  }

 private:
  struct Item {
    double value;
    double w0;
    double w1;
  };
  struct CatMass {
    double w0 = 0.0;
    double w1 = 0.0;
    bool touched = false;
  };

  // tot0/tot1 are the node's class masses: the same sums, in the same
  // index order, that each feature's pass would otherwise recompute.
  SplitEval FindBestSplit(const std::vector<size_t>& indices, double tot0,
                          double tot1) {
    SplitEval best;
    for (size_t f = 0; f < columns_.num_features(); ++f) {
      if (columns_.categorical(f)) {
        EvalCategorical(indices, f, tot0, tot1, &best);
      } else {
        EvalNumeric(indices, f, tot0, tot1, &best);
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

  void EvalNumeric(const std::vector<size_t>& indices, size_t f, double tot0,
                   double tot1, SplitEval* best) {
    // Sort the values; NULL and NaN accumulate on the right side (NaN
    // has no place in a `<` order, and `NaN <= t` routes it right).
    const std::vector<double>& values = columns_.values(f);
    items_.clear();
    for (size_t i : indices) {
      const double v = values[i];
      if (std::isnan(v)) continue;
      const double w = weights_[i];
      const int y = labels_[i];
      items_.push_back({v, y == 0 ? w : 0.0, y == 1 ? w : 0.0});
    }
    if (items_.size() < 2) return;
    std::sort(items_.begin(), items_.end(),
              [](const Item& a, const Item& b) { return a.value < b.value; });

    double l0 = 0.0, l1 = 0.0;
    for (size_t i = 0; i + 1 < items_.size(); ++i) {
      l0 += items_[i].w0;
      l1 += items_[i].w1;
      if (items_[i].value == items_[i + 1].value) continue;
      const double threshold =
          items_[i].value + (items_[i + 1].value - items_[i].value) / 2.0;
      Consider(best, options_.criterion, l0, l1, tot0 - l0, tot1 - l1, f,
               /*categorical=*/false, threshold, -1);
    }
  }

  void EvalCategorical(const std::vector<size_t>& indices, size_t f,
                       double tot0, double tot1, SplitEval* best) {
    // Per-category masses in a dense array indexed by rank; the touched
    // ranks are listed so that only they are read and reset.
    const std::vector<int32_t>& ranks = columns_.ranks(f);
    for (size_t i : indices) {
      const int32_t rank = ranks[i];
      if (rank < 0) continue;
      CatMass& m = mass_[static_cast<size_t>(rank)];
      if (!m.touched) {
        m.touched = true;
        touched_.push_back(rank);
      }
      (labels_[i] == 1 ? m.w1 : m.w0) += weights_[i];
    }
    if (touched_.size() >= 2) {
      // Cap candidates at the heaviest categories. Sort fully (heaviest
      // first, code as tie-break) so candidate order — and therefore
      // the fitted tree — does not depend on the order codes were met.
      const std::vector<int32_t>& categories = columns_.categories(f);
      cats_.clear();
      for (int32_t rank : touched_) {
        cats_.emplace_back(categories[static_cast<size_t>(rank)],
                           mass_[static_cast<size_t>(rank)]);
      }
      std::sort(cats_.begin(), cats_.end(), [](const auto& a, const auto& b) {
        const double wa = a.second.w0 + a.second.w1;
        const double wb = b.second.w0 + b.second.w1;
        if (wa != wb) return wa > wb;
        return a.first < b.first;
      });
      if (cats_.size() > options_.max_categories_per_feature) {
        cats_.resize(options_.max_categories_per_feature);
      }
      for (const auto& [code, m] : cats_) {
        Consider(best, options_.criterion, m.w0, m.w1, tot0 - m.w0,
                 tot1 - m.w1, f, /*categorical=*/true, 0.0, code);
      }
    }
    for (int32_t rank : touched_) mass_[static_cast<size_t>(rank)] = {};
    touched_.clear();
  }

  const FeatureColumns& columns_;
  const std::vector<int>& labels_;
  const std::vector<double>& weights_;
  const DecisionTreeOptions& options_;
  std::vector<DecisionTree::Node>* nodes_;
  // Scratch reused by every node and feature.
  std::vector<Item> items_;
  std::vector<CatMass> mass_;  // indexed by rank; all zero between uses
  std::vector<int32_t> touched_;
  std::vector<std::pair<int32_t, CatMass>> cats_;
};

}  // namespace

const char* SplitCriterionToString(SplitCriterion c) {
  switch (c) {
    case SplitCriterion::kGini:
      return "gini";
    case SplitCriterion::kGainRatio:
      return "gain_ratio";
  }
  return "?";
}

Result<DecisionTree> DecisionTree::Fit(const FeatureView& view,
                                       const std::vector<RowId>& rows,
                                       const std::vector<int>& labels,
                                       const std::vector<double>& weights,
                                       const DecisionTreeOptions& options) {
  return Fit(view.Snapshot(rows), labels, weights, options);
}

Result<DecisionTree> DecisionTree::Fit(const FeatureColumns& columns,
                                       const std::vector<int>& labels,
                                       const std::vector<double>& weights,
                                       const DecisionTreeOptions& options) {
  const size_t n = columns.num_rows();
  if (n != labels.size()) {
    return Status::InvalidArgument("rows/labels size mismatch");
  }
  if (n == 0) return Status::InvalidArgument("empty training set");
  if (!weights.empty() && weights.size() != n) {
    return Status::InvalidArgument("rows/weights size mismatch");
  }
  for (int y : labels) {
    if (y != 0 && y != 1) {
      return Status::InvalidArgument("labels must be 0 or 1");
    }
  }
  if (columns.num_features() == 0) {
    return Status::InvalidArgument("feature view has no features");
  }

  std::vector<double> w = weights;
  if (w.empty()) w.assign(n, 1.0);

  DecisionTree tree;
  TreeBuilder builder(columns, labels, w, options, &tree.nodes_);
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  builder.Build(std::move(indices), 0);

  if (options.ccp_alpha > 0.0) {
    // Bottom-up cost-complexity pruning: collapse a subtree when its
    // error reduction per extra leaf is <= alpha (errors normalized by
    // total weight).
    const double total = tree.nodes_[0].total();
    // Process nodes in reverse creation order = children before parents.
    for (int id = static_cast<int>(tree.nodes_.size()) - 1; id >= 0; --id) {
      Node& node = tree.nodes_[id];
      if (node.is_leaf) continue;
      // Subtree stats via DFS.
      double subtree_error = 0.0;
      size_t leaves = 0;
      std::vector<int> stack = {id};
      while (!stack.empty()) {
        const Node& n = tree.nodes_[stack.back()];
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
  return tree;
}

DecisionTree DecisionTree::Truncate(size_t max_depth) const {
  // Copy in preorder, the order Build creates nodes in, so the copy's
  // node ids equal those of a direct fit at `max_depth`.
  DecisionTree out;
  std::vector<int> stack = {0};
  std::vector<std::pair<int, bool>> parents = {{-1, false}};
  while (!stack.empty()) {
    const Node& src = nodes_[stack.back()];
    const auto [parent, is_left] = parents.back();
    stack.pop_back();
    parents.pop_back();
    const int id = static_cast<int>(out.nodes_.size());
    if (parent >= 0) {
      (is_left ? out.nodes_[parent].left : out.nodes_[parent].right) = id;
    }
    if (src.is_leaf || static_cast<size_t>(src.depth) >= max_depth) {
      Node leaf;
      leaf.n0 = src.n0;
      leaf.n1 = src.n1;
      leaf.depth = src.depth;
      out.nodes_.push_back(leaf);
      continue;
    }
    out.nodes_.push_back(src);
    stack.push_back(src.right);
    parents.push_back({id, false});
    stack.push_back(src.left);
    parents.push_back({id, true});
  }
  return out;
}

double DecisionTree::PredictProba(const FeatureView& view, RowId row) const {
  const FeatureColumns columns = view.Snapshot({row});
  int id = 0;
  while (!nodes_[id].is_leaf) {
    const Node& n = nodes_[id];
    id = GoesLeft(columns, n, 0) ? n.left : n.right;
  }
  return nodes_[id].prob1();
}

size_t DecisionTree::num_leaves() const {
  // Traverse from the root: pruning collapses internal nodes into
  // leaves and leaves their former descendants orphaned in nodes_.
  size_t count = 0;
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const Node& n = nodes_[stack.back()];
    stack.pop_back();
    if (n.is_leaf) {
      ++count;
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  return count;
}

size_t DecisionTree::depth() const {
  size_t d = 0;
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const Node& n = nodes_[stack.back()];
    stack.pop_back();
    if (n.is_leaf) {
      d = std::max(d, static_cast<size_t>(n.depth));
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  return d;
}

std::vector<Predicate> DecisionTree::PositiveLeafPredicates(
    const FeatureView& view, double min_precision,
    double min_positive_weight) const {
  std::vector<Predicate> out;
  // DFS carrying the clause stack.
  struct Frame {
    int id;
    std::vector<Clause> clauses;
  };
  std::vector<Frame> stack;
  stack.push_back({0, {}});
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const Node& n = nodes_[frame.id];
    if (n.is_leaf) {
      if (n.prob1() >= min_precision && n.n1 >= min_positive_weight &&
          !frame.clauses.empty()) {
        out.push_back(Predicate(frame.clauses).Simplify());
      }
      continue;
    }
    const FeatureSpec& spec = view.features()[n.feature];
    Clause left_clause, right_clause;
    if (n.categorical) {
      const std::string& cat = view.CategoryName(n.feature, n.category);
      left_clause = Clause::Make(spec.name, CompareOp::kEq, Value(cat));
      right_clause = Clause::Make(spec.name, CompareOp::kNe, Value(cat));
    } else {
      left_clause =
          Clause::Make(spec.name, CompareOp::kLe, Value(n.threshold));
      right_clause =
          Clause::Make(spec.name, CompareOp::kGt, Value(n.threshold));
    }
    Frame left_frame{n.left, frame.clauses};
    left_frame.clauses.push_back(std::move(left_clause));
    Frame right_frame{n.right, std::move(frame.clauses)};
    right_frame.clauses.push_back(std::move(right_clause));
    stack.push_back(std::move(left_frame));
    stack.push_back(std::move(right_frame));
  }
  return out;
}

std::string DecisionTree::ToString(const FeatureView& view) const {
  std::string out;
  struct Frame {
    int id;
    int indent;
    std::string prefix;
  };
  std::vector<Frame> stack = {{0, 0, ""}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes_[f.id];
    out += std::string(static_cast<size_t>(f.indent) * 2, ' ') + f.prefix;
    if (n.is_leaf) {
      out += "leaf: p1=" + std::to_string(n.prob1()) +
             " (n0=" + std::to_string(n.n0) + ", n1=" + std::to_string(n.n1) +
             ")\n";
      continue;
    }
    const FeatureSpec& spec = view.features()[n.feature];
    std::string cond;
    if (n.categorical) {
      cond = spec.name + " == '" + view.CategoryName(n.feature, n.category) +
             "'";
    } else {
      cond = spec.name + " <= " + std::to_string(n.threshold);
    }
    out += "split on " + cond + "\n";
    stack.push_back({n.right, f.indent + 1, "[else] "});
    stack.push_back({n.left, f.indent + 1, "[" + cond + "] "});
  }
  return out;
}

}  // namespace dbwipes
