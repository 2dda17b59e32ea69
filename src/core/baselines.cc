#include "dbwipes/core/baselines.h"

#include <algorithm>

#include "dbwipes/core/removal_scorer.h"
#include "dbwipes/expr/match_kernels.h"
#include "dbwipes/learn/subgroup.h"

namespace dbwipes {

TupleSetExplanation NaiveProvenance(const PreprocessResult& preprocess) {
  return {preprocess.suspect_inputs, "fine-grained provenance (all of F)"};
}

TupleSetExplanation InfluenceTopK(const PreprocessResult& preprocess,
                                  size_t k) {
  TupleSetExplanation out;
  out.source = "top-" + std::to_string(k) + " by influence";
  for (const TupleInfluence& ti : preprocess.influences) {
    if (out.rows.size() >= k) break;
    if (ti.influence <= 0.0) break;  // no point returning harmless tuples
    out.rows.push_back(ti.row);
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

namespace {

/// An atomic condition with its coverage over F: a position-aligned
/// bitmap from the shared clause-bitmap cache, so it is exactly what
/// the emitted clause matches.
struct Atom {
  Clause clause;
  Bitmap covered;
};

std::vector<Atom> BuildAtoms(const FeatureColumns& columns,
                             const ExhaustiveSearchOptions& options,
                             MatchEngine* engine) {
  std::vector<Atom> atoms;
  for (size_t f = 0; f < columns.num_features(); ++f) {
    AtomicConditions chosen =
        ChooseAtomicConditions(columns, f, options.max_categories_per_feature,
                               options.max_numeric_thresholds);
    for (Clause& clause : chosen.clauses) {
      Atom atom;
      atom.clause = std::move(clause);
      auto bits = engine->ClauseBitmap(atom.clause);
      if (!bits.ok()) continue;
      atom.covered = **bits;  // copy: the cache may reallocate
      atoms.push_back(std::move(atom));
    }
  }
  return atoms;
}

}  // namespace

Result<std::vector<RankedPredicate>> ExhaustivePredicateSearch(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
    size_t agg_index, const FeatureView& view,
    const PreprocessResult& preprocess,
    const ExhaustiveSearchOptions& options, size_t* num_evaluated) {
  const std::vector<RowId>& suspects = preprocess.suspect_inputs;
  if (suspects.empty()) {
    return Status::InvalidArgument("no suspect inputs to search over");
  }
  // One engine over F: every threshold/category atom is kernel-scanned
  // once, and conjunction coverage below is word-ANDs of cached
  // bitmaps.
  MatchEngine engine(table, suspects);
  const std::vector<Atom> atoms =
      BuildAtoms(view.Snapshot(suspects), options, &engine);
  if (atoms.empty()) {
    return Status::InvalidArgument("no atomic conditions available");
  }

  const double baseline = preprocess.baseline_error;
  size_t evaluated = 0;
  std::vector<RankedPredicate> ranked;

  // Snapshot the selected groups' aggregator state once; every
  // conjunction evaluated below is then scored by Remove() deltas over
  // its coverage mask instead of a full lineage rebuild.
  DBW_ASSIGN_OR_RETURN(RemovalScorer scorer,
                       RemovalScorer::Create(table, result, selected_groups,
                                             agg_index, suspects));

  // Enumerate conjunctions by DFS over increasing atom indices.
  struct Frame {
    std::vector<size_t> atom_ids;
    Bitmap covered;
  };
  Bitmap all(suspects.size());
  all.SetAll();
  std::vector<Frame> stack;
  stack.push_back({{}, std::move(all)});

  auto evaluate = [&](const Frame& frame) -> Status {
    const size_t matched = frame.covered.CountOnes();
    if (matched < options.min_coverage || matched == suspects.size()) {
      return Status::OK();
    }
    ++evaluated;
    const double err_after =
        metric.Error(scorer.ValuesAfterRemoval(frame.covered));
    RankedPredicate rp;
    std::vector<Clause> clauses;
    for (size_t id : frame.atom_ids) clauses.push_back(atoms[id].clause);
    rp.predicate = Predicate(std::move(clauses)).Simplify();
    rp.error_after = err_after;
    rp.matched_in_suspects = matched;
    rp.error_improvement =
        baseline > 0.0
            ? std::clamp((baseline - err_after) / baseline, 0.0, 1.0)
            : 0.0;
    rp.score = rp.error_improvement;
    rp.strategy = "exhaustive";
    ranked.push_back(std::move(rp));
    return Status::OK();
  };

  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (!frame.atom_ids.empty()) {
      DBW_RETURN_NOT_OK(evaluate(frame));
    }
    if (frame.atom_ids.size() >= options.max_clauses) continue;
    const size_t start =
        frame.atom_ids.empty() ? 0 : frame.atom_ids.back() + 1;
    for (size_t a = start; a < atoms.size(); ++a) {
      Frame next;
      next.atom_ids = frame.atom_ids;
      next.atom_ids.push_back(a);
      next.covered = frame.covered;
      next.covered.AndWith(atoms[a].covered);
      if (next.covered.CountOnes() < options.min_coverage) {
        continue;  // prune the subtree
      }
      stack.push_back(std::move(next));
    }
  }

  if (num_evaluated != nullptr) *num_evaluated = evaluated;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedPredicate& a, const RankedPredicate& b) {
                     if (a.score != b.score) return a.score > b.score;
                     // Tie-break toward fewer matched tuples (tighter
                     // description).
                     return a.matched_in_suspects < b.matched_in_suspects;
                   });
  if (ranked.size() > options.top_k) ranked.resize(options.top_k);
  return ranked;
}

}  // namespace dbwipes
