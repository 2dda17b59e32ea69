#include "dbwipes/core/predicate_enumerator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/expr/match_kernels.h"

namespace dbwipes {

namespace {

/// Positive leaves below this precision are not turned into
/// predicates.
constexpr double kMinPrecision = 0.5;
/// Positive leaves must carry at least this many positive examples.
constexpr double kMinPositiveWeight = 2.0;
/// Bounding clauses are dropped when they match more than this
/// fraction of a table sample (not selective enough to matter).
constexpr double kBoundingMaxTableFraction = 0.9;
/// Bounding descriptions use at most this many clauses.
constexpr size_t kBoundingMaxClauses = 4;
/// Categorical attributes enter a bounding description only when the
/// candidate uses at most this many distinct values.
constexpr size_t kBoundingMaxCategories = 8;

/// Selectivity sampler for bounding descriptions: one MatchEngine per
/// shard slice (or a single fused engine when unsharded), built once
/// per Enumerate so every candidate's description shares the sample's
/// clause bitmaps. Counts are per-row clause evaluations summed across
/// slices, so the fraction a predicate gets is a pure function of the
/// sampled rows' content — identical at every shard count.
class SampleCounter {
 public:
  SampleCounter(const Table& table, const ShardPlan* shards) {
    // Stride sample of the table for selectivity estimation.
    std::vector<RowId> sample;
    const size_t target = 2000;
    const size_t stride = std::max<size_t>(1, table.num_rows() / target);
    for (RowId r = 0; r < table.num_rows(); r += stride) sample.push_back(r);
    size_ = sample.size();
    // Each clause's sample bitmap is kernel-scanned once and cached
    // per engine; the per-attribute joint fractions are then word-ANDs
    // of the same bitmaps instead of fresh row loops. Engines are
    // ephemeral (the sample universe differs from the ranker's suspect
    // universe, so the per-set engine cache would never hit).
    if (shards != nullptr && shards->set != nullptr) {
      const ShardPlan sampled = ShardPlan::Build(*shards->set, sample);
      for (const ShardSlice& slice : sampled.slices) {
        engines_.emplace_back(*slice.table, slice.local_rows);
      }
    } else {
      engines_.emplace_back(table, std::move(sample));
    }
  }

  /// Sampled rows matching `pred`, summed over slices; nullopt when
  /// any slice's match fails (all slices fail alike: only an unknown
  /// column fails).
  std::optional<size_t> Count(const Predicate& pred) {
    size_t total = 0;
    for (MatchEngine& engine : engines_) {
      auto bm = engine.Match(pred);
      if (!bm.ok()) return std::nullopt;
      total += bm->CountOnes();
    }
    return total;
  }

  double size() const { return std::max<double>(1.0, size_); }

 private:
  std::vector<MatchEngine> engines_;
  size_t size_ = 0;
};

/// Builds the bounding description of a candidate row set, given by
/// its positions in the snapshot of F (ascending): per attribute, the
/// candidate's value span (numeric min/max or the set of categories),
/// kept only when selective against a sample of the whole table, most
/// selective clauses first.
std::optional<Predicate> BoundingDescription(
    const FeatureColumns& columns, const std::vector<uint32_t>& positions,
    SampleCounter& counter) {
  if (positions.empty()) return std::nullopt;
  const FeatureView& view = columns.view();
  const double sample_size = counter.size();

  struct Scored {
    double fraction;  // of the table sample matched
    std::vector<Clause> clauses;
  };
  std::vector<Scored> kept;

  for (size_t f = 0; f < columns.num_features(); ++f) {
    const std::string& name = view.features()[f].name;
    std::vector<Clause> clauses;
    if (columns.categorical(f)) {
      // Distinct ranks ascend like their codes.
      const std::vector<int32_t>& ranks = columns.ranks(f);  // -1 = NULL
      std::vector<bool> present(columns.categories(f).size(), false);
      size_t distinct = 0;
      bool has_null = false;
      for (uint32_t i : positions) {
        if (ranks[i] < 0) {
          has_null = true;
          break;
        }
        if (!present[static_cast<size_t>(ranks[i])]) {
          present[static_cast<size_t>(ranks[i])] = true;
          ++distinct;
        }
      }
      if (has_null || distinct > kBoundingMaxCategories) continue;
      std::vector<Value> values;
      for (size_t r = 0; r < present.size(); ++r) {
        if (present[r]) {
          values.push_back(
              Value(view.CategoryName(f, columns.categories(f)[r])));
        }
      }
      if (values.size() == 1) {
        clauses.push_back(
            Clause::Make(name, CompareOp::kEq, std::move(values[0])));
      } else {
        clauses.push_back(Clause::In(name, std::move(values)));
      }
    } else {
      // In ascending positions, so the span keeps the zero signs of a
      // walk over the rows in order.
      const std::vector<double>& column = columns.values(f);  // NaN = NULL
      double lo = column[positions[0]];
      double hi = lo;
      bool has_null = false;
      for (uint32_t i : positions) {
        const double v = column[i];
        if (std::isnan(v)) {
          has_null = true;
          break;
        }
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      if (has_null) continue;
      if (lo == hi) {
        clauses.push_back(Clause::Make(name, CompareOp::kEq, Value(lo)));
      } else {
        clauses.push_back(Clause::Make(name, CompareOp::kGe, Value(lo)));
        clauses.push_back(Clause::Make(name, CompareOp::kLe, Value(hi)));
      }
    }

    // Selectivity of this attribute's span against the table sample;
    // also drop one-sided halves of a range that exclude nothing.
    std::vector<Clause> selective;
    for (Clause& c : clauses) {
      auto count = counter.Count(Predicate({c}));
      if (!count) continue;
      const double fraction = static_cast<double>(*count) / sample_size;
      if (fraction <= kBoundingMaxTableFraction) {
        selective.push_back(std::move(c));
      }
    }
    if (selective.empty()) continue;

    // Joint fraction for ordering.
    auto count = counter.Count(Predicate(selective));
    if (!count) continue;
    kept.push_back({static_cast<double>(*count) / sample_size,
                    std::move(selective)});
  }
  if (kept.empty()) return std::nullopt;
  std::sort(kept.begin(), kept.end(), [](const Scored& a, const Scored& b) {
    return a.fraction < b.fraction;
  });
  std::vector<Clause> final_clauses;
  for (const Scored& s : kept) {
    if (final_clauses.size() + s.clauses.size() > kBoundingMaxClauses) break;
    final_clauses.insert(final_clauses.end(), s.clauses.begin(),
                         s.clauses.end());
  }
  if (final_clauses.empty()) return std::nullopt;
  return Predicate(std::move(final_clauses)).Simplify();
}

}  // namespace

PredicateEnumeratorOptions PredicateEnumeratorOptions::Defaults() {
  PredicateEnumeratorOptions out;
  for (SplitCriterion criterion :
       {SplitCriterion::kGini, SplitCriterion::kGainRatio}) {
    for (size_t depth : {3u, 4u}) {
      DecisionTreeOptions t;
      t.criterion = criterion;
      t.max_depth = depth;
      t.min_samples_leaf = 2.0;
      t.min_impurity_decrease = 1e-4;
      out.strategies.push_back(t);
    }
  }
  // One aggressively pruned strategy for very compact predicates.
  DecisionTreeOptions pruned;
  pruned.criterion = SplitCriterion::kGini;
  pruned.max_depth = 2;
  pruned.min_samples_leaf = 4.0;
  pruned.ccp_alpha = 0.01;
  out.strategies.push_back(pruned);
  return out;
}

Result<std::vector<EnumeratedPredicate>> PredicateEnumerator::Enumerate(
    const FeatureView& view, const std::vector<RowId>& suspects,
    const std::vector<CandidateDataset>& candidates,
    const ExecContext& ctx, const ShardPlan* shards) const {
  return Enumerate(view.Snapshot(suspects), suspects, candidates, ctx, shards);
}

Result<std::vector<EnumeratedPredicate>> PredicateEnumerator::Enumerate(
    const FeatureColumns& columns, const std::vector<RowId>& suspects,
    const std::vector<CandidateDataset>& candidates,
    const ExecContext& ctx, const ShardPlan* shards) const {
  DBW_FAULT(ctx, "enumerate/predicates");
  DBW_TRACE_SPAN("enumerate/predicates");
  if (columns.num_rows() != suspects.size()) {
    return Status::InvalidArgument("snapshot/suspects size mismatch");
  }
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate datasets");
  }
  if (options_.strategies.empty()) {
    return Status::InvalidArgument("no tree strategies configured");
  }

  // Strategies that differ only in max_depth (and do not prune) share
  // one fit at the group's largest depth; each reads its own depth by
  // truncation, which equals a fit at that depth (DecisionTree::Truncate).
  // fit_of[s] is the first strategy of s's group, fit_depth[g] the
  // depth group g is fitted at.
  const std::vector<DecisionTreeOptions>& strategies = options_.strategies;
  std::vector<size_t> fit_of(strategies.size());
  std::vector<size_t> fit_depth(strategies.size());
  for (size_t s = 0; s < strategies.size(); ++s) {
    fit_of[s] = s;
    fit_depth[s] = strategies[s].max_depth;
    if (strategies[s].ccp_alpha != 0.0) continue;
    for (size_t g = 0; g < s; ++g) {
      DecisionTreeOptions same_depth = strategies[g];
      same_depth.max_depth = strategies[s].max_depth;
      if (fit_of[g] == g && same_depth == strategies[s]) {
        fit_of[s] = g;
        fit_depth[g] = std::max(fit_depth[g], strategies[s].max_depth);
        break;
      }
    }
  }
  const FeatureView& view = columns.view();
  std::optional<SampleCounter> sample;
  if (options_.add_bounding_predicates) {
    DBW_TRACE_SPAN("predicates/bounding");
    sample.emplace(view.table(), shards);
  }

  std::vector<EnumeratedPredicate> out;
  std::unordered_set<std::string> seen;
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    DBW_RETURN_NOT_OK(ctx.CheckContinue());
    // The candidate's positions in F, where its trees' labels are 1.
    const std::vector<uint32_t> positions =
        PositionsIn(suspects, candidates[ci].rows);

    if (options_.add_bounding_predicates) {
      std::optional<Predicate> bounding;
      {
        DBW_TRACE_SPAN("predicates/bounding");
        bounding = BoundingDescription(columns, positions, *sample);
      }
      if (bounding && seen.insert(bounding->CanonicalString()).second) {
        EnumeratedPredicate ep;
        ep.predicate = std::move(*bounding);
        ep.candidate_index = ci;
        ep.strategy = "bounding";
        out.push_back(std::move(ep));
      }
    }

    // Label F: member of D* -> 1, else 0.
    if (positions.empty() || positions.size() == suspects.size()) continue;
    std::vector<int> labels(suspects.size(), 0);
    for (uint32_t i : positions) labels[i] = 1;

    // fits[g]: group g's fit for this candidate, made when the group's
    // first strategy is reached.
    std::vector<std::optional<Result<DecisionTree>>> fits(strategies.size());
    for (size_t s = 0; s < strategies.size(); ++s) {
      const DecisionTreeOptions& strategy = strategies[s];
      DBW_RETURN_NOT_OK(ctx.CheckContinue());
      const size_t g = fit_of[s];
      if (!fits[g]) {
        DBW_TRACE_SPAN("predicates/tree");
        DecisionTreeOptions fit_options = strategies[g];
        fit_options.max_depth = fit_depth[g];
        fits[g] = DecisionTree::Fit(columns, labels, fit_options);
      }
      if (!fits[g]->ok()) continue;
      const DecisionTree& fitted = **fits[g];
      const DecisionTree tree = strategy.max_depth < fit_depth[g]
                                    ? fitted.Truncate(strategy.max_depth)
                                    : fitted;
      const std::string strategy_name =
          std::string(SplitCriterionToString(strategy.criterion)) + "/d" +
          std::to_string(strategy.max_depth) +
          (strategy.ccp_alpha > 0.0 ? "/ccp" : "");
      for (Predicate& p : tree.PositiveLeafPredicates(view, kMinPrecision,
                                                      kMinPositiveWeight)) {
        const std::string key = p.CanonicalString();
        if (!seen.insert(key).second) continue;
        EnumeratedPredicate ep;
        ep.predicate = std::move(p);
        ep.candidate_index = ci;
        ep.strategy = strategy_name;
        out.push_back(std::move(ep));
      }
    }
  }

  if (out.empty()) {
    return Status::NotFound(
        "no tree produced a predicate separating any candidate dataset");
  }
  static MetricCounter* const emitted =
      MetricsRegistry::Global().GetCounter("enumerate.predicates");
  emitted->Increment(out.size());
  return out;
}

}  // namespace dbwipes
