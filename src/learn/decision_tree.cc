#include "dbwipes/learn/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
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

/// The impurity of a node with class counts (n0, n1) under `criterion`.
double Impurity(SplitCriterion criterion, double n0, double n1) {
  return criterion == SplitCriterion::kGini ? Gini(n0, n1) : Entropy(n0, n1);
}

/// Scores a (left, right) partition of a node whose impurity is
/// `parent` under the configured criterion. Returns (score,
/// impurity_decrease); higher score is better. The counts are integers,
/// so l0 + r0 and l1 + r1 are the node's counts exactly, and `parent`
/// is what Impurity(l0 + r0, l1 + r1) would give.
std::pair<double, double> ScorePartition(SplitCriterion criterion,
                                         double parent, double l0, double l1,
                                         double r0, double r1) {
  const double n = l0 + l1 + r0 + r1;
  const double nl = l0 + l1;
  const double nr = r0 + r1;
  if (criterion == SplitCriterion::kGini) {
    const double child = (nl / n) * Gini(l0, l1) + (nr / n) * Gini(r0, r1);
    const double decrease = parent - child;
    return {decrease, decrease};
  }
  // Gain ratio: information gain normalized by split info.
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

/// One entry of a numeric feature's attribute list.
struct Entry {
  double value;
  uint32_t pos;
  uint32_t label;
};

/// A node's part [begin, end) of one list.
struct Span {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Moves the elements of `span` of `list` that `goes_left` picks to
/// its front and the others behind them, each part in its order, and
/// returns the front part's size. `scratch` holds at least span.size()
/// elements.
template <typename T, typename GoesLeftFn>
size_t StablePartition(std::vector<T>* list, Span span, std::vector<T>* scratch,
                       const GoesLeftFn& goes_left) {
  T* left = list->data() + span.begin;
  T* right = scratch->data();
  for (size_t k = span.begin; k < span.end; ++k) {
    // [begin, left) holds the left elements so far, and every slot in
    // [left, k) has gone to the scratch, so both writes are safe.
    const T item = (*list)[k];
    const bool l = goes_left(item);
    *left = item;
    *right = item;
    left += l;
    right += !l;
  }
  std::copy(scratch->data(), right, left);
  return static_cast<size_t>(left - (list->data() + span.begin));
}

/// SPRINT's builder (Shafer, Agrawal, Mehta, VLDB 1996), depth first.
/// Every numeric feature has one attribute list, its snapshot presort
/// with values and labels, and the lists lie back to back in one array
/// (one allocation per fit); every node owns a span of each list and a
/// span of the positions in ascending order. A split partitions each
/// span stably into its children's spans, so a node's list is still in
/// (value, position) order and no node sorts. A position whose value
/// is NaN or NULL is in no list of that feature; GoesLeft routes it.
class TreeBuilder {
 public:
  TreeBuilder(const FeatureColumns& columns, const std::vector<int>& labels,
              const DecisionTreeOptions& options,
              std::vector<DecisionTree::Node>* nodes)
      : columns_(columns),
        labels_(labels),
        options_(options),
        nodes_(nodes),
        rows_(columns.num_rows()),
        root_lists_(columns.num_features()),
        goes_left_(columns.num_rows()),
        row_scratch_(columns.num_rows()) {
    for (size_t i = 0; i < rows_.size(); ++i) {
      rows_[i] = static_cast<uint32_t>(i);
    }
    size_t num_categories = 0;
    size_t longest = 0;
    size_t total = 0;
    for (size_t f = 0; f < columns.num_features(); ++f) {
      if (columns.categorical(f)) {
        num_categories =
            std::max(num_categories, columns.categories(f).size());
        continue;
      }
      root_lists_[f] = {total, total + columns.sorted(f).size()};
      total = root_lists_[f].end;
      longest = std::max(longest, columns.sorted(f).size());
    }
    lists_.reserve(total);
    for (size_t f = 0; f < columns.num_features(); ++f) {
      if (columns.categorical(f)) continue;
      const std::vector<double>& values = columns.values(f);
      for (uint32_t p : columns.sorted(f)) {
        lists_.push_back({values[p], p, static_cast<uint32_t>(labels[p])});
      }
    }
    mass_.resize(num_categories);
    entry_scratch_.resize(longest);
  }

  /// Grows the tree from the root, which owns every position.
  void Build() { Build({0, rows_.size()}, root_lists_, 0); }

 private:
  struct CatMass {
    double n0 = 0.0;
    double n1 = 0.0;
    bool touched = false;
  };

  int Build(Span rows, const std::vector<Span>& lists, int depth) {
    DecisionTree::Node node;
    node.depth = depth;
    size_t positives = 0;
    for (size_t k = rows.begin; k < rows.end; ++k) {
      positives += static_cast<size_t>(labels_[rows_[k]]);
    }
    node.n1 = static_cast<double>(positives);
    node.n0 = static_cast<double>(rows.size() - positives);
    const int id = static_cast<int>(nodes_->size());
    nodes_->push_back(node);

    const bool pure = node.n0 <= 0.0 || node.n1 <= 0.0;
    if (pure || depth >= static_cast<int>(options_.max_depth) ||
        node.total() < options_.min_samples_split) {
      return id;
    }

    const SplitEval best = FindBestSplit(rows, lists, node.n0, node.n1);
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
    for (size_t k = rows.begin; k < rows.end; ++k) {
      goes_left_[rows_[k]] = GoesLeft(columns_, split, rows_[k]);
    }
    const size_t num_left = StablePartition(
        &rows_, rows, &row_scratch_,
        [this](uint32_t p) { return goes_left_[p] != 0; });
    if (num_left == 0 || num_left == rows.size()) return id;

    // Children at max_depth never split, so they read no list.
    std::vector<Span> left_lists(lists.size()), right_lists(lists.size());
    if (depth + 1 < static_cast<int>(options_.max_depth)) {
      for (size_t f = 0; f < lists.size(); ++f) {
        if (columns_.categorical(f)) continue;
        const size_t left = StablePartition(
            &lists_, lists[f], &entry_scratch_,
            [this](const Entry& e) { return goes_left_[e.pos] != 0; });
        left_lists[f] = {lists[f].begin, lists[f].begin + left};
        right_lists[f] = {lists[f].begin + left, lists[f].end};
      }
    }

    (*nodes_)[id] = split;
    const int left_id =
        Build({rows.begin, rows.begin + num_left}, left_lists, depth + 1);
    (*nodes_)[id].left = left_id;
    const int right_id =
        Build({rows.begin + num_left, rows.end}, right_lists, depth + 1);
    (*nodes_)[id].right = right_id;
    return id;
  }

  // tot0/tot1 are the node's class counts, NaN and NULL rows included.
  SplitEval FindBestSplit(Span rows, const std::vector<Span>& lists,
                          double tot0, double tot1) {
    SplitEval best;
    const double parent = Impurity(options_.criterion, tot0, tot1);
    for (size_t f = 0; f < columns_.num_features(); ++f) {
      if (columns_.categorical(f)) {
        EvalCategorical(rows, f, parent, tot0, tot1, &best);
      } else {
        EvalNumeric(lists[f], f, parent, tot0, tot1, &best);
      }
    }
    return best;
  }

  void Consider(SplitEval* best, double parent, double l0, double l1,
                double r0, double r1, size_t feature, bool categorical,
                double threshold, int32_t category) const {
    const double nl = l0 + l1;
    const double nr = r0 + r1;
    if (nl < options_.min_samples_leaf || nr < options_.min_samples_leaf) {
      return;
    }
    const auto [score, decrease] =
        ScorePartition(options_.criterion, parent, l0, l1, r0, r1);
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

  /// Scores every cut between distinct values of the node's list, in
  /// ascending order. The class counts left of a cut are integers, so
  /// they do not depend on how the presort ordered equal values. Nor
  /// does the midpoint: equal values differ at most in the sign of
  /// zero, and a + (b - a) / 2 has the same bits for either zero as a
  /// or b. Rows with no value (NaN, NULL) stay on the right.
  void EvalNumeric(Span span, size_t f, double parent, double tot0,
                   double tot1, SplitEval* best) {
    if (span.size() < 2) return;
    const Entry* list = lists_.data() + span.begin;
    size_t l1 = 0;
    for (size_t i = 0; i + 1 < span.size(); ++i) {
      l1 += list[i].label;
      if (list[i].value == list[i + 1].value) continue;
      const double n1 = static_cast<double>(l1);
      const double n0 = static_cast<double>(i + 1 - l1);
      const double threshold =
          list[i].value + (list[i + 1].value - list[i].value) / 2.0;
      Consider(best, parent, n0, n1, tot0 - n0, tot1 - n1, f,
               /*categorical=*/false, threshold, -1);
    }
  }

  void EvalCategorical(Span rows, size_t f, double parent, double tot0,
                       double tot1, SplitEval* best) {
    // Per-category counts in a dense array indexed by rank; the touched
    // ranks are listed so that only they are read and reset.
    const std::vector<int32_t>& ranks = columns_.ranks(f);
    for (size_t k = rows.begin; k < rows.end; ++k) {
      const uint32_t i = rows_[k];
      const int32_t rank = ranks[i];
      if (rank < 0) continue;
      CatMass& m = mass_[static_cast<size_t>(rank)];
      if (!m.touched) {
        m.touched = true;
        touched_.push_back(rank);
      }
      (labels_[i] == 1 ? m.n1 : m.n0) += 1.0;
    }
    if (touched_.size() >= 2) {
      // Cap candidates at the most frequent categories. Sort fully
      // (largest first, code as tie-break) so candidate order — and
      // therefore the fitted tree — does not depend on the order codes
      // were met.
      const std::vector<int32_t>& categories = columns_.categories(f);
      cats_.clear();
      for (int32_t rank : touched_) {
        cats_.emplace_back(categories[static_cast<size_t>(rank)],
                           mass_[static_cast<size_t>(rank)]);
      }
      std::sort(cats_.begin(), cats_.end(), [](const auto& a, const auto& b) {
        const double na = a.second.n0 + a.second.n1;
        const double nb = b.second.n0 + b.second.n1;
        if (na != nb) return na > nb;
        return a.first < b.first;
      });
      if (cats_.size() > options_.max_categories_per_feature) {
        cats_.resize(options_.max_categories_per_feature);
      }
      for (const auto& [code, m] : cats_) {
        Consider(best, parent, m.n0, m.n1, tot0 - m.n0, tot1 - m.n1, f,
                 /*categorical=*/true, 0.0, code);
      }
    }
    for (int32_t rank : touched_) mass_[static_cast<size_t>(rank)] = {};
    touched_.clear();
  }

  const FeatureColumns& columns_;
  const std::vector<int>& labels_;
  const DecisionTreeOptions& options_;
  std::vector<DecisionTree::Node>* nodes_;
  std::vector<uint32_t> rows_;     // positions, ascending per node
  std::vector<Entry> lists_;       // the attribute lists, back to back
  std::vector<Span> root_lists_;   // by feature; empty if categorical
  std::vector<uint8_t> goes_left_;          // by position, for the split
  // Scratch reused by every node and feature.
  std::vector<uint32_t> row_scratch_;
  std::vector<Entry> entry_scratch_;
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

Result<DecisionTree> DecisionTree::Fit(const FeatureColumns& columns,
                                       const std::vector<int>& labels,
                                       const DecisionTreeOptions& options) {
  const size_t n = columns.num_rows();
  if (n != labels.size()) {
    return Status::InvalidArgument("rows/labels size mismatch");
  }
  if (n == 0) return Status::InvalidArgument("empty training set");
  for (int y : labels) {
    if (y != 0 && y != 1) {
      return Status::InvalidArgument("labels must be 0 or 1");
    }
  }
  if (columns.num_features() == 0) {
    return Status::InvalidArgument("feature view has no features");
  }

  DecisionTree tree;
  TreeBuilder(columns, labels, options, &tree.nodes_).Build();

  if (options.ccp_alpha > 0.0) {
    // Bottom-up cost-complexity pruning: collapse a subtree when its
    // error reduction per extra leaf is <= alpha (errors normalized by
    // the number of examples).
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

double DecisionTree::PredictProba(const FeatureColumns& columns,
                                  size_t i) const {
  int id = 0;
  while (!nodes_[id].is_leaf) {
    const Node& n = nodes_[id];
    id = GoesLeft(columns, n, i) ? n.left : n.right;
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
