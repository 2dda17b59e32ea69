#include "dbwipes/core/merger.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "dbwipes/common/trace.h"

namespace dbwipes {

namespace {

/// Decomposed constraints of one predicate on one attribute.
struct AttrConstraint {
  bool has_lower = false;
  double lower = 0.0;
  bool lower_strict = false;
  bool has_upper = false;
  double upper = 0.0;
  bool upper_strict = false;
  /// kEq / kIn literals (union semantics within one predicate would be
  /// unusual, but harmless).
  std::vector<Value> values;
  /// Canonical strings of clauses that only merge by exact identity
  /// (kNe, kContains).
  std::set<std::string> exact;
};

/// Splits a predicate into per-attribute constraints; nullopt when a
/// clause kind cannot be represented (does not happen with the current
/// CompareOp set).
std::optional<std::map<std::string, AttrConstraint>> Decompose(
    const Predicate& p) {
  std::map<std::string, AttrConstraint> out;
  for (const Clause& c : p.clauses()) {
    AttrConstraint& a = out[c.attribute];
    switch (c.op) {
      case CompareOp::kGe:
      case CompareOp::kGt: {
        auto lit = c.literal.AsDouble();
        if (!lit.ok()) return std::nullopt;
        a.has_lower = true;
        a.lower = *lit;
        a.lower_strict = c.op == CompareOp::kGt;
        break;
      }
      case CompareOp::kLe:
      case CompareOp::kLt: {
        auto lit = c.literal.AsDouble();
        if (!lit.ok()) return std::nullopt;
        a.has_upper = true;
        a.upper = *lit;
        a.upper_strict = c.op == CompareOp::kLt;
        break;
      }
      case CompareOp::kEq:
        a.values.push_back(c.literal);
        break;
      case CompareOp::kIn:
        a.values.insert(a.values.end(), c.in_set.begin(), c.in_set.end());
        break;
      case CompareOp::kNe:
      case CompareOp::kContains:
        a.exact.insert(c.CanonicalString());
        break;
    }
  }
  return out;
}

void AppendConstraint(const std::string& attr, const AttrConstraint& a,
                      const Predicate& source, std::vector<Clause>* clauses) {
  if (a.has_lower) {
    clauses->push_back(Clause::Make(
        attr, a.lower_strict ? CompareOp::kGt : CompareOp::kGe,
        Value(a.lower)));
  }
  if (a.has_upper) {
    clauses->push_back(Clause::Make(
        attr, a.upper_strict ? CompareOp::kLt : CompareOp::kLe,
        Value(a.upper)));
  }
  if (!a.values.empty()) {
    // Deduplicate values.
    std::vector<Value> vals = a.values;
    std::sort(vals.begin(), vals.end(),
              [](const Value& x, const Value& y) { return x < y; });
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    if (vals.size() == 1) {
      clauses->push_back(Clause::Make(attr, CompareOp::kEq, vals[0]));
    } else {
      clauses->push_back(Clause::In(attr, std::move(vals)));
    }
  }
  // Exact-identity clauses come back verbatim from the source.
  for (const Clause& c : source.clauses()) {
    if (c.attribute == attr &&
        (c.op == CompareOp::kNe || c.op == CompareOp::kContains)) {
      clauses->push_back(c);
    }
  }
}

}  // namespace

std::vector<RankedPredicate> CombinePartialRankings(
    std::vector<RankedPredicate>* scored,
    const std::function<uint64_t(size_t)>& set_hash,
    const std::function<bool(size_t, size_t)>& set_equal, size_t top_k) {
  std::vector<size_t> order(scored->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*scored)[a].score > (*scored)[b].score;
  });
  std::vector<RankedPredicate> deduped;
  std::unordered_map<uint64_t, std::vector<size_t>> seen_sets;
  for (size_t i : order) {
    if ((*scored)[i].matched_in_suspects > 0) {
      std::vector<size_t>& bucket = seen_sets[set_hash(i)];
      const bool duplicate =
          std::any_of(bucket.begin(), bucket.end(),
                      [&](size_t j) { return set_equal(i, j); });
      if (duplicate) continue;
      bucket.push_back(i);
    }
    deduped.push_back(std::move((*scored)[i]));
    if (deduped.size() == top_k) break;
  }
  return deduped;
}

std::optional<Predicate> MergePredicates(const Predicate& a,
                                         const Predicate& b) {
  if (a.empty() || b.empty()) return std::nullopt;
  auto da = Decompose(a);
  auto db = Decompose(b);
  if (!da || !db) return std::nullopt;
  if (da->size() != db->size()) return std::nullopt;

  std::vector<Clause> merged;
  auto ita = da->begin();
  auto itb = db->begin();
  for (; ita != da->end(); ++ita, ++itb) {
    if (ita->first != itb->first) return std::nullopt;  // attr sets differ
    const AttrConstraint& ca = ita->second;
    const AttrConstraint& cb = itb->second;

    // Shape must match: a range cannot merge with a value set.
    if ((ca.has_lower || ca.has_upper) != (cb.has_lower || cb.has_upper)) {
      return std::nullopt;
    }
    if (ca.values.empty() != cb.values.empty()) return std::nullopt;
    if (ca.exact != cb.exact) return std::nullopt;

    AttrConstraint out = ca;
    // Hull of the two ranges: a missing bound on either side wins.
    if (ca.has_lower && cb.has_lower) {
      if (cb.lower < ca.lower ||
          (cb.lower == ca.lower && !cb.lower_strict)) {
        out.lower = cb.lower;
        out.lower_strict = cb.lower_strict && ca.lower_strict;
      }
    } else {
      out.has_lower = false;
    }
    if (ca.has_upper && cb.has_upper) {
      if (cb.upper > ca.upper ||
          (cb.upper == ca.upper && !cb.upper_strict)) {
        out.upper = cb.upper;
        out.upper_strict = cb.upper_strict && ca.upper_strict;
      }
    } else {
      out.has_upper = false;
    }
    out.values.insert(out.values.end(), cb.values.begin(), cb.values.end());

    // Degenerate hull: no constraint left on this attribute at all.
    if (!out.has_lower && !out.has_upper && out.values.empty() &&
        out.exact.empty()) {
      return std::nullopt;
    }
    AppendConstraint(ita->first, out, a, &merged);
  }
  if (merged.empty()) return std::nullopt;
  Predicate result = Predicate(std::move(merged)).Simplify();
  // A merge that reproduces one of its parents adds nothing.
  if (result == a || result == b) return std::nullopt;
  return result;
}

Result<std::vector<RankedPredicate>> MergeAndRerank(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
    size_t agg_index, const std::vector<RowId>& suspects,
    const std::vector<RowId>& reference_positive, double per_group_baseline,
    const std::vector<RankedPredicate>& ranked,
    const RankerOptions& ranker_options, const MergerOptions& options,
    const ShardPlan* shards) {
  if (ranked.empty()) return ranked;
  DBW_TRACE_SPAN("merge/rerank");

  const size_t n = std::min(options.max_inputs, ranked.size());
  std::vector<Predicate> merges;
  std::map<std::string, double> merge_floor;  // merged -> required score
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      auto merged = MergePredicates(ranked[i].predicate, ranked[j].predicate);
      if (!merged) continue;
      const double floor =
          std::max(ranked[i].score, ranked[j].score) - options.score_tolerance;
      const std::string key = merged->CanonicalString();
      auto it = merge_floor.find(key);
      if (it == merge_floor.end() || floor < it->second) {
        merge_floor[key] = floor;
      }
      merges.push_back(std::move(*merged));
    }
  }
  // With nothing merged the pool would be `ranked` itself, which the
  // same ranker has already scored and ordered.
  if (merges.empty()) return ranked;

  std::vector<EnumeratedPredicate> pool;
  std::set<std::string> seen;
  auto add = [&](const Predicate& p, const std::string& strategy) {
    if (!seen.insert(p.CanonicalString()).second) return;
    EnumeratedPredicate ep;
    ep.predicate = p;
    ep.strategy = strategy;
    pool.push_back(std::move(ep));
  };
  for (const RankedPredicate& rp : ranked) add(rp.predicate, rp.strategy);
  for (const Predicate& p : merges) add(p, "merged");

  PredicateRanker ranker(ranker_options);
  DBW_ASSIGN_OR_RETURN(
      std::vector<RankedPredicate> reranked,
      ranker.Rank(table, result, selected_groups, metric, agg_index, suspects,
                  reference_positive, per_group_baseline, pool, shards));

  // Drop merges that lost noticeably to their parents.
  std::vector<RankedPredicate> out;
  for (RankedPredicate& rp : reranked) {
    if (rp.strategy == "merged") {
      auto it = merge_floor.find(rp.predicate.CanonicalString());
      if (it != merge_floor.end() && rp.score < it->second) continue;
    }
    out.push_back(std::move(rp));
  }
  return out;
}

}  // namespace dbwipes
