#include "dbwipes/learn/subgroup.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>

#include "dbwipes/common/bitmap.h"
#include "dbwipes/expr/fused_kernels.h"

namespace dbwipes {

namespace {

/// One atomic condition with its coverage over the training rows (bit
/// i set = rows[i] satisfies the clause).
struct Condition {
  Clause clause;
  Bitmap covered;
};

/// A conjunction in the beam.
struct Rule {
  std::vector<size_t> condition_ids;  // sorted
  Bitmap covered;
  double wracc = -std::numeric_limits<double>::infinity();
};

/// A scored extension of beam[parent] by one condition. Only the
/// candidates that survive into the next beam get condition ids and a
/// coverage bitmap.
struct Candidate {
  size_t parent = 0;
  size_t condition = 0;
  double wracc = 0.0;
};

/// Conditions in a fixed order: feature by feature, each feature's
/// ChooseAtomicConditions. That order is the candidate order of the
/// beam search, so it decides ties between rules of equal WRAcc. Each
/// feature's bitmaps are filled in one pass over its values.
std::vector<Condition> BuildConditions(const FeatureColumns& columns,
                                       const SubgroupOptions& options) {
  std::vector<Condition> conditions;
  const size_t n = columns.num_rows();
  for (size_t f = 0; f < columns.num_features(); ++f) {
    AtomicConditions chosen = ChooseAtomicConditions(
        columns, f, options.max_categories_per_feature,
        options.max_numeric_thresholds);
    const size_t first = conditions.size();
    for (Clause& clause : chosen.clauses) {
      conditions.push_back({std::move(clause), Bitmap(n)});
    }
    if (columns.categorical(f)) {
      const std::vector<int32_t>& ranks = columns.ranks(f);  // -1 = NULL
      // condition_of_rank[r]: the condition of rank r's category, if kept.
      constexpr size_t kNone = std::numeric_limits<size_t>::max();
      std::vector<size_t> condition_of_rank(columns.categories(f).size(),
                                            kNone);
      for (size_t k = 0; k < chosen.ranks.size(); ++k) {
        condition_of_rank[static_cast<size_t>(chosen.ranks[k])] = first + k;
      }
      for (size_t i = 0; i < n; ++i) {
        if (ranks[i] < 0) continue;
        const size_t c = condition_of_rank[static_cast<size_t>(ranks[i])];
        if (c != kNone) conditions[c].covered.Set(i);
      }
    } else {
      // NaN (and NULL) values match neither side of a cut.
      const std::vector<double>& column = columns.values(f);  // NaN = NULL
      const std::vector<double>& cuts = chosen.cuts;
      for (size_t i = 0; i < n; ++i) {
        const double v = column[i];
        for (size_t k = 0; k < cuts.size(); ++k) {
          if (v <= cuts[k]) {
            conditions[first + 2 * k].covered.Set(i);
          } else if (v > cuts[k]) {
            conditions[first + 2 * k + 1].covered.Set(i);
          }
        }
      }
    }
  }
  return conditions;
}

/// Unweighted coverage and weighted relative accuracy of a candidate.
struct Score {
  size_t coverage = 0;
  double wracc = 0.0;
};

double WRAcc(double cov_w, double cov_pos_w, double total_w,
             double total_pos_w) {
  return cov_w <= 0.0 || total_w <= 0.0
             ? -std::numeric_limits<double>::infinity()
             : (cov_w / total_w) * (cov_pos_w / cov_w - total_pos_w / total_w);
}

/// Scores (parent AND condition) in one pass over the words, without
/// materializing the AND. Both weight sums run over the covered rows in
/// ascending order. `pos_weights` holds the weight on positives and
/// +0.0 elsewhere; a sum that starts at +0.0 never becomes -0.0, so
/// adding +0.0 leaves it unchanged and the positive sum equals one that
/// skips the negatives.
Score ScoreAnd(const Bitmap& parent, const Bitmap& condition,
               const std::vector<double>& weights,
               const std::vector<double>& pos_weights, double total_w,
               double total_pos_w) {
  Score out;
  double cov_w = 0.0, cov_pos_w = 0.0;
  for (size_t wi = 0; wi < parent.num_words(); ++wi) {
    uint64_t w = parent.word(wi) & condition.word(wi);
    out.coverage += static_cast<size_t>(std::popcount(w));
    while (w != 0) {
      const size_t i = wi * 64 + static_cast<size_t>(std::countr_zero(w));
      cov_w += weights[i];
      cov_pos_w += pos_weights[i];
      w &= w - 1;
    }
  }
  out.wracc = WRAcc(cov_w, cov_pos_w, total_w, total_pos_w);
  return out;
}

/// The weights as bit planes, for scoring by popcounts. Each weight is
/// u_i * `unit` for an integer u_i and unit = 2^-E. Positives and
/// negatives get separate planes: plane p holds, for one bit b of the
/// u_i, the rows of one label whose u_i has bit b set, and scales[p] =
/// 2^b. Planes [0, num_positive) hold positives; empty planes are left
/// out. Per data word wi the planes' words are words[wi * P + p], for
/// P = scales.size().
struct WeightPlanes {
  double unit = 1.0;
  size_t num_positive = 0;
  std::vector<uint64_t> scales;
  std::vector<uint64_t> words;
  std::vector<uint64_t> units;  // the u_i while building
};

/// w = m * 2^q for a finite w > 0.
void Decompose(double w, uint64_t* m, int* q) {
  constexpr uint64_t kFraction = (uint64_t{1} << 52) - 1;
  const uint64_t bits = std::bit_cast<uint64_t>(w);
  const int biased = static_cast<int>(bits >> 52);
  *m = biased == 0 ? bits & kFraction
                   : (bits & kFraction) | (uint64_t{1} << 52);
  *q = std::max(biased, 1) - 1075;
}

/// Builds `planes` and returns true when every weight is a non-negative
/// multiple of 2^-E (E the least such exponent) and the u_i total less
/// than 2^53. Then every sum of weights over a subset of the rows, in
/// any order, has all its partial sums among the multiples of 2^-E
/// below 2^(53-E), which are all doubles: each addition is exact, and
/// the sum equals 2^-E times the integer sum of the u_i. The row loop's
/// sums in ScoreAnd are such sums, so ScorePlanes gives their bits.
bool BuildWeightPlanes(const std::vector<double>& weights,
                       const std::vector<int>& labels, WeightPlanes* planes) {
  constexpr uint64_t kUnitLimit = uint64_t{1} << 53;
  // E: the largest -(q + ctz(m)) over the weights, so that 2^-E divides
  // each one. A finite double is a multiple of 2^-1074, so E <= 1074
  // and 2^-E is a double.
  int exponent = std::numeric_limits<int>::min();
  for (double w : weights) {
    if (!(w >= 0.0) || w == std::numeric_limits<double>::infinity()) {
      return false;  // negative, NaN or infinite
    }
    if (w == 0.0) continue;
    uint64_t m = 0;
    int q = 0;
    Decompose(w, &m, &q);
    exponent = std::max(exponent, -(q + std::countr_zero(m)));
  }
  if (exponent == std::numeric_limits<int>::min()) exponent = 0;
  std::vector<uint64_t>& units = planes->units;
  units.resize(weights.size());
  uint64_t total = 0, positive_bits = 0, negative_bits = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    uint64_t u = 0;
    if (weights[i] != 0.0) {
      uint64_t m = 0;
      int q = 0;
      Decompose(weights[i], &m, &q);
      const int shift = q + exponent;  // >= -ctz(m) by the choice of E
      if (shift > 53 - static_cast<int>(std::bit_width(m))) {
        return false;  // u_i >= 2^53
      }
      u = shift >= 0 ? m << shift : m >> -shift;
    }
    total += u;
    if (total >= kUnitLimit) return false;
    (labels[i] == 1 ? positive_bits : negative_bits) |= u;
    units[i] = u;
  }
  // plane_of[label][b]: the plane of bit b for that label.
  size_t plane_of[2][53];
  planes->scales.clear();
  for (int label : {1, 0}) {
    for (uint64_t bits = label == 1 ? positive_bits : negative_bits;
         bits != 0; bits &= bits - 1) {
      const int b = std::countr_zero(bits);
      plane_of[label][b] = planes->scales.size();
      planes->scales.push_back(uint64_t{1} << b);
    }
    if (label == 1) planes->num_positive = planes->scales.size();
  }
  const size_t num_planes = planes->scales.size();
  planes->unit = std::ldexp(1.0, -exponent);
  planes->words.assign((weights.size() + 63) / 64 * num_planes, 0);
  for (size_t i = 0; i < weights.size(); ++i) {
    uint64_t* word = planes->words.data() + i / 64 * num_planes;
    const size_t* plane = plane_of[labels[i] == 1 ? 1 : 0];
    for (uint64_t u = units[i]; u != 0; u &= u - 1) {
      word[plane[std::countr_zero(u)]] |= uint64_t{1} << (i % 64);
    }
  }
  return true;
}

/// ScoreAnd's result from the weights' bit planes (BuildWeightPlanes
/// returned true): cov_pos_w = 2^-E * the sum over positive planes p of
/// scales[p] * popcount(parent AND condition AND plane p), and cov_w
/// the same over all planes. The integer sums stay below 2^53, so their
/// conversions and the scaling by 2^-E are exact. It pays only with a
/// hardware popcount, so it runs at the AVX2 tier, under its target.
#if DBWIPES_HAVE_AVX2_TIER
__attribute__((target("avx2,popcnt")))
#endif
Score ScorePlanes(const Bitmap& parent, const Bitmap& condition,
                  const WeightPlanes& planes, double total_w,
                  double total_pos_w) {
  const size_t num_planes = planes.scales.size();
  const uint64_t* scales = planes.scales.data();
  const uint64_t* word = planes.words.data();
  uint64_t coverage = 0, pos_units = 0, neg_units = 0;
  for (size_t wi = 0; wi < parent.num_words(); ++wi, word += num_planes) {
    const uint64_t w = parent.word(wi) & condition.word(wi);
    coverage += static_cast<uint64_t>(__builtin_popcountll(w));
    size_t p = 0;
    for (; p < planes.num_positive; ++p) {
      pos_units += static_cast<uint64_t>(__builtin_popcountll(w & word[p])) *
                   scales[p];
    }
    for (; p < num_planes; ++p) {
      neg_units += static_cast<uint64_t>(__builtin_popcountll(w & word[p])) *
                   scales[p];
    }
  }
  Score out;
  out.coverage = static_cast<size_t>(coverage);
  out.wracc = WRAcc(static_cast<double>(pos_units + neg_units) * planes.unit,
                    static_cast<double>(pos_units) * planes.unit, total_w,
                    total_pos_w);
  return out;
}

/// Marks in `skip` the conditions that extend beam[b] to a set an
/// earlier beam rule already generated, and appends every marked id to
/// `marked`. Rule ∪ {c} is first generated by the lowest beam rule it
/// contains. All rules of a level have the same size, so an earlier
/// rule b' contains it exactly when rule_b' minus rule_b = {c}.
void MarkRepeats(const std::vector<Rule>& beam, size_t b,
                 std::vector<uint8_t>* skip, std::vector<size_t>* marked) {
  const std::vector<size_t>& ids = beam[b].condition_ids;
  for (size_t e = 0; e < b; ++e) {
    const std::vector<size_t>& earlier = beam[e].condition_ids;
    size_t only = 0, extra = 0;
    for (size_t id : earlier) {
      if (!std::binary_search(ids.begin(), ids.end(), id)) {
        only = id;
        if (++extra > 1) break;
      }
    }
    if (extra == 1 && !(*skip)[only]) {
      (*skip)[only] = 1;
      marked->push_back(only);
    }
  }
}

}  // namespace

AtomicConditions ChooseAtomicConditions(const FeatureColumns& columns,
                                        size_t f, size_t max_categories,
                                        size_t max_thresholds) {
  AtomicConditions out;
  const FeatureView& view = columns.view();
  const std::string& name = view.features()[f].name;
  if (columns.categorical(f)) {
    // Most frequent categories. Categories of equal count keep the
    // order the frequency map lists them in, which depends only on the
    // order their codes are first met in, row by row: count by rank,
    // then insert the codes in that order.
    const std::vector<int32_t>& categories = columns.categories(f);
    std::vector<size_t> count(categories.size(), 0);
    std::vector<int32_t> first_met;
    for (int32_t rank : columns.ranks(f)) {
      if (rank < 0) continue;  // NULL
      if (count[static_cast<size_t>(rank)]++ == 0) first_met.push_back(rank);
    }
    std::unordered_map<int32_t, size_t> freq;
    for (int32_t rank : first_met) {
      freq.emplace(categories[static_cast<size_t>(rank)],
                   count[static_cast<size_t>(rank)]);
    }
    std::vector<std::pair<int32_t, size_t>> cats(freq.begin(), freq.end());
    std::sort(cats.begin(), cats.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    if (cats.size() > max_categories) cats.resize(max_categories);
    for (const auto& [code, unused] : cats) {
      out.ranks.push_back(static_cast<int32_t>(
          std::lower_bound(categories.begin(), categories.end(), code) -
          categories.begin()));
      out.clauses.push_back(Clause::Make(name, CompareOp::kEq,
                                         Value(view.CategoryName(f, code))));
    }
    return out;
  }
  // Quantile midpoints of the distinct values, read in ascending order
  // from the presort (which holds no NaN or NULL).
  const std::vector<double>& column = columns.values(f);
  std::vector<double> values;
  for (uint32_t p : columns.sorted(f)) {
    if (values.empty() || values.back() != column[p]) {
      values.push_back(column[p]);
    }
  }
  if (values.size() < 2) return out;
  std::set<double> thresholds;
  const size_t buckets = std::min(max_thresholds, values.size() - 1);
  for (size_t b = 1; b <= buckets; ++b) {
    const double q =
        static_cast<double>(b) / static_cast<double>(buckets + 1);
    const size_t idx = std::min(
        values.size() - 2,
        static_cast<size_t>(q * static_cast<double>(values.size() - 1)));
    thresholds.insert(values[idx] + (values[idx + 1] - values[idx]) / 2.0);
  }
  out.cuts.assign(thresholds.begin(), thresholds.end());
  for (double t : out.cuts) {
    for (CompareOp op : {CompareOp::kLe, CompareOp::kGt}) {
      out.clauses.push_back(Clause::Make(name, op, Value(t)));
    }
  }
  return out;
}

Result<std::vector<Subgroup>> DiscoverSubgroups(
    const FeatureColumns& columns, const std::vector<int>& labels,
    const std::vector<double>& init_weights, const SubgroupOptions& options,
    const ExecContext& ctx) {
  const size_t n = columns.num_rows();
  if (n != labels.size()) {
    return Status::InvalidArgument("rows/labels size mismatch");
  }
  if (n == 0) return Status::InvalidArgument("empty training set");
  if (!init_weights.empty() && init_weights.size() != n) {
    return Status::InvalidArgument("rows/init_weights size mismatch");
  }
  if (options.beam_width == 0) {
    return Status::InvalidArgument("beam_width must be at least 1");
  }
  bool has_positive = false;
  for (int y : labels) {
    if (y != 0 && y != 1) {
      return Status::InvalidArgument("labels must be 0 or 1");
    }
    if (y == 1) has_positive = true;
  }
  if (!has_positive) {
    return Status::InvalidArgument("no positive examples for subgroups");
  }

  DBW_RETURN_NOT_OK(ctx.CheckContinue());
  std::vector<Condition> conditions = BuildConditions(columns, options);
  if (conditions.empty()) {
    return Status::InvalidArgument(
        "no candidate conditions could be generated from the features");
  }

  std::vector<double> weights = init_weights;
  if (weights.empty()) weights.assign(n, 1.0);
  std::vector<double> pos_weights(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] == 1) pos_weights[i] = weights[i];
  }
  // The bit-plane scorer wants a hardware popcount: AVX2 tier only.
  const bool planes_tier = ResolveSimdTier() == SimdTier::kAvx2;
  WeightPlanes planes;
  Bitmap all_rows(n);
  all_rows.SetAll();
  // skip[c] = 1 while the current beam rule must not be extended by c.
  std::vector<uint8_t> skip(conditions.size(), 0);
  std::vector<size_t> marked;
  std::vector<Candidate> candidates;

  std::vector<Subgroup> subgroups;
  for (size_t round = 0; round < options.num_rules; ++round) {
    double total_w = 0.0, total_pos_w = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total_w += weights[i];
      if (labels[i] == 1) total_pos_w += weights[i];
    }
    if (total_pos_w <= 1e-12) break;
    // The weights change only between rounds.
    const bool use_planes =
        planes_tier && BuildWeightPlanes(weights, labels, &planes);

    // Beam search over conjunctions.
    std::vector<Rule> beam(1);
    beam[0].covered = all_rows;
    Rule best;
    for (size_t level = 0; level < options.max_clauses; ++level) {
      DBW_RETURN_NOT_OK(ctx.CheckContinue());
      candidates.clear();
      for (size_t b = 0; b < beam.size(); ++b) {
        const Rule& rule = beam[b];
        marked = rule.condition_ids;
        for (size_t ci : marked) skip[ci] = 1;
        MarkRepeats(beam, b, &skip, &marked);
        for (size_t ci = 0; ci < conditions.size(); ++ci) {
          if (skip[ci]) continue;
          const Bitmap& covered = conditions[ci].covered;
          const Score score =
              use_planes ? ScorePlanes(rule.covered, covered, planes, total_w,
                                       total_pos_w)
                         : ScoreAnd(rule.covered, covered, weights,
                                    pos_weights, total_w, total_pos_w);
          if (score.coverage < options.min_coverage) continue;
          candidates.push_back({b, ci, score.wracc});
        }
        for (size_t ci : marked) skip[ci] = 0;
      }
      if (candidates.empty()) break;
      // std::sort is not stable: where it leaves rules of equal WRAcc
      // (which decides the beam and the winner) depends on the order
      // the candidates were generated in, so that order is fixed.
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.wracc > b.wracc;
                });
      if (candidates.size() > options.beam_width) {
        candidates.resize(options.beam_width);
      }
      std::vector<Rule> next(candidates.size());
      for (size_t k = 0; k < candidates.size(); ++k) {
        const Candidate& c = candidates[k];
        std::vector<size_t>& ids = next[k].condition_ids;
        ids = beam[c.parent].condition_ids;
        ids.insert(std::upper_bound(ids.begin(), ids.end(), c.condition),
                   c.condition);
        next[k].covered = beam[c.parent].covered;
        next[k].covered.AndWith(conditions[c.condition].covered);
        next[k].wracc = c.wracc;
      }
      if (next.front().wracc > best.wracc) best = next.front();
      beam = std::move(next);
    }

    if (best.condition_ids.empty() || best.wracc <= 0.0) break;

    Subgroup sg;
    std::vector<Clause> clauses;
    for (size_t ci : best.condition_ids) {
      clauses.push_back(conditions[ci].clause);
    }
    sg.predicate = Predicate(std::move(clauses)).Simplify();
    sg.wracc = best.wracc;
    // Weighted covering: decay covered positives so later rounds look
    // elsewhere. (Applied even when the rule is a duplicate, to force
    // progress.)
    best.covered.ForEachSet([&](size_t i) {
      ++sg.coverage;
      sg.covered.push_back(i);
      if (labels[i] == 1) {
        ++sg.positives;
        weights[i] *= options.gamma;
        pos_weights[i] = weights[i];
      }
    });
    // Skip semantic duplicates discovered in later rounds.
    bool duplicate = false;
    for (const Subgroup& prev : subgroups) {
      if (prev.predicate == sg.predicate) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) subgroups.push_back(std::move(sg));
  }

  std::sort(subgroups.begin(), subgroups.end(),
            [](const Subgroup& a, const Subgroup& b) {
              return a.wracc > b.wracc;
            });
  return subgroups;
}

}  // namespace dbwipes
