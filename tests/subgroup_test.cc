#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <unordered_map>

#include "dbwipes/common/random.h"
#include "dbwipes/learn/subgroup.h"

namespace dbwipes {
namespace {

// ---------- reference search ----------
//
// The original byte-vector implementation of DiscoverSubgroups: one
// vector<char> per condition and per beam candidate, candidates keyed
// by a decimal string. Kept only as the oracle for the bitmap search.
namespace reference {

struct Condition {
  Clause clause;
  std::vector<char> covered;  // covered[i] over row indices
};

struct Rule {
  std::vector<size_t> condition_ids;  // sorted
  std::vector<char> covered;
  double wracc = -std::numeric_limits<double>::infinity();

  std::string Key() const {
    std::string k;
    for (size_t id : condition_ids) k += std::to_string(id) + ",";
    return k;
  }
};

std::vector<Condition> BuildConditions(const FeatureView& view,
                                       const std::vector<RowId>& rows,
                                       const SubgroupOptions& options) {
  std::vector<Condition> conditions;
  const size_t n = rows.size();
  for (size_t f = 0; f < view.num_features(); ++f) {
    const FeatureSpec& spec = view.features()[f];
    if (spec.categorical) {
      std::unordered_map<int32_t, size_t> freq;
      for (RowId r : rows) {
        if (!view.IsNull(r, f)) {
          ++freq[static_cast<int32_t>(view.Get(r, f))];
        }
      }
      std::vector<std::pair<int32_t, size_t>> cats(freq.begin(), freq.end());
      std::sort(cats.begin(), cats.end(), [](const auto& a, const auto& b) {
        return a.second > b.second;
      });
      if (cats.size() > options.max_categories_per_feature) {
        cats.resize(options.max_categories_per_feature);
      }
      for (const auto& [code, count] : cats) {
        Condition cond;
        cond.clause = Clause::Make(spec.name, CompareOp::kEq,
                                   Value(view.CategoryName(f, code)));
        cond.covered.assign(n, 0);
        for (size_t i = 0; i < n; ++i) {
          if (!view.IsNull(rows[i], f) &&
              static_cast<int32_t>(view.Get(rows[i], f)) == code) {
            cond.covered[i] = 1;
          }
        }
        conditions.push_back(std::move(cond));
      }
    } else {
      std::vector<double> values;
      values.reserve(n);
      for (RowId r : rows) {
        const double v = view.Get(r, f);
        if (!std::isnan(v)) values.push_back(v);
      }
      if (values.size() < 2) continue;
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      if (values.size() < 2) continue;

      std::set<double> thresholds;
      const size_t buckets =
          std::min(options.max_numeric_thresholds, values.size() - 1);
      for (size_t b = 1; b <= buckets; ++b) {
        const double q = static_cast<double>(b) /
                         static_cast<double>(buckets + 1);
        const size_t idx = std::min(
            values.size() - 2,
            static_cast<size_t>(q * static_cast<double>(values.size() - 1)));
        thresholds.insert(values[idx] + (values[idx + 1] - values[idx]) / 2.0);
      }
      for (double t : thresholds) {
        for (CompareOp op : {CompareOp::kLe, CompareOp::kGt}) {
          Condition cond;
          cond.clause = Clause::Make(spec.name, op, Value(t));
          cond.covered.assign(n, 0);
          for (size_t i = 0; i < n; ++i) {
            if (view.IsNull(rows[i], f)) continue;
            const double v = view.Get(rows[i], f);
            const bool match = op == CompareOp::kLe ? v <= t : v > t;
            if (match) cond.covered[i] = 1;
          }
          conditions.push_back(std::move(cond));
        }
      }
    }
  }
  return conditions;
}

double WRAcc(const std::vector<char>& covered,
             const std::vector<double>& weights,
             const std::vector<int>& labels, double total_w,
             double total_pos_w) {
  double cov_w = 0.0, cov_pos_w = 0.0;
  for (size_t i = 0; i < covered.size(); ++i) {
    if (covered[i]) {
      cov_w += weights[i];
      if (labels[i] == 1) cov_pos_w += weights[i];
    }
  }
  if (cov_w <= 0.0 || total_w <= 0.0) {
    return -std::numeric_limits<double>::infinity();
  }
  return (cov_w / total_w) * (cov_pos_w / cov_w - total_pos_w / total_w);
}

/// Input checks are left to the caller (the equivalence test only
/// feeds valid inputs).
std::vector<Subgroup> DiscoverSubgroups(const FeatureView& view,
                                        const std::vector<RowId>& rows,
                                        const std::vector<int>& labels,
                                        const std::vector<double>& init_weights,
                                        const SubgroupOptions& options) {
  const size_t n = rows.size();
  std::vector<Condition> conditions = BuildConditions(view, rows, options);
  std::vector<double> weights = init_weights;
  if (weights.empty()) weights.assign(n, 1.0);

  std::vector<Subgroup> subgroups;
  for (size_t round = 0; round < options.num_rules; ++round) {
    double total_w = 0.0, total_pos_w = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total_w += weights[i];
      if (labels[i] == 1) total_pos_w += weights[i];
    }
    if (total_pos_w <= 1e-12) break;

    std::vector<Rule> beam;
    Rule best;
    {
      Rule empty;
      empty.covered.assign(n, 1);
      beam.push_back(std::move(empty));
    }
    for (size_t level = 0; level < options.max_clauses; ++level) {
      std::vector<Rule> candidates;
      std::set<std::string> seen;
      for (const Rule& rule : beam) {
        for (size_t ci = 0; ci < conditions.size(); ++ci) {
          if (std::binary_search(rule.condition_ids.begin(),
                                 rule.condition_ids.end(), ci)) {
            continue;
          }
          Rule next;
          next.condition_ids = rule.condition_ids;
          next.condition_ids.insert(
              std::upper_bound(next.condition_ids.begin(),
                               next.condition_ids.end(), ci),
              ci);
          const std::string key = next.Key();
          if (!seen.insert(key).second) continue;

          next.covered.assign(n, 0);
          size_t cov_count = 0;
          for (size_t i = 0; i < n; ++i) {
            if (rule.covered[i] && conditions[ci].covered[i]) {
              next.covered[i] = 1;
              ++cov_count;
            }
          }
          if (cov_count < options.min_coverage) continue;
          next.wracc = WRAcc(next.covered, weights, labels, total_w,
                             total_pos_w);
          candidates.push_back(std::move(next));
        }
      }
      if (candidates.empty()) break;
      std::sort(candidates.begin(), candidates.end(),
                [](const Rule& a, const Rule& b) { return a.wracc > b.wracc; });
      if (candidates.size() > options.beam_width) {
        candidates.resize(options.beam_width);
      }
      if (candidates.front().wracc > best.wracc) best = candidates.front();
      beam = std::move(candidates);
    }

    if (best.condition_ids.empty() || best.wracc <= 0.0) break;

    Subgroup sg;
    std::vector<Clause> clauses;
    for (size_t ci : best.condition_ids) {
      clauses.push_back(conditions[ci].clause);
    }
    sg.predicate = Predicate(std::move(clauses)).Simplify();
    sg.wracc = best.wracc;
    for (size_t i = 0; i < n; ++i) {
      if (best.covered[i]) {
        ++sg.coverage;
        if (labels[i] == 1) ++sg.positives;
        sg.covered.push_back(i);
      }
    }
    bool duplicate = false;
    for (const Subgroup& prev : subgroups) {
      if (prev.predicate == sg.predicate) {
        duplicate = true;
        break;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (best.covered[i] && labels[i] == 1) {
        weights[i] *= options.gamma;
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

}  // namespace reference

struct Planted {
  std::shared_ptr<Table> table;
  std::vector<RowId> rows;
  std::vector<int> labels;
};

// Positives concentrate in (cat = 'smoker' AND age > 65) — the paper's
// subgroup-discovery illustration.
Planted MakePatients(uint64_t seed, double noise = 0.02) {
  Rng rng(seed);
  Planted out;
  out.table = std::make_shared<Table>(Schema{{"habit", DataType::kString},
                                             {"age", DataType::kDouble},
                                             {"weight", DataType::kDouble}},
                                      "patients");
  for (int i = 0; i < 800; ++i) {
    const bool smoker = rng.Bernoulli(0.4);
    const double age = rng.UniformDouble(20, 90);
    const double weight = rng.Normal(75, 12);
    DBW_CHECK_OK(out.table->AppendRow(
        {Value(smoker ? "smoker" : "nonsmoker"), Value(age), Value(weight)}));
    out.rows.push_back(static_cast<RowId>(i));
    bool high_risk = smoker && age > 65;
    if (rng.Bernoulli(noise)) high_risk = !high_risk;
    out.labels.push_back(high_risk ? 1 : 0);
  }
  return out;
}

TEST(SubgroupTest, FindsPlantedSubgroup) {
  Planted p = MakePatients(1);
  FeatureView v = *FeatureView::Create(*p.table, {"habit", "age", "weight"});
  auto subgroups = *DiscoverSubgroups(v.Snapshot(p.rows), p.labels, {});
  ASSERT_FALSE(subgroups.empty());
  const Subgroup& best = subgroups[0];
  EXPECT_GT(best.wracc, 0.05);
  const std::string desc = best.predicate.ToString();
  EXPECT_NE(desc.find("habit = 'smoker'"), std::string::npos) << desc;
  EXPECT_NE(desc.find("age >"), std::string::npos) << desc;
  // Covered set should be mostly positive.
  EXPECT_GT(static_cast<double>(best.positives) /
                static_cast<double>(best.coverage),
            0.8);
}

TEST(SubgroupTest, WeightedCoveringYieldsDiverseRules) {
  // Two disjoint positive pockets; covering should surface both.
  Rng rng(2);
  auto t = std::make_shared<Table>(
      Schema{{"c", DataType::kString}, {"x", DataType::kDouble}}, "t");
  std::vector<RowId> rows;
  std::vector<int> labels;
  for (int i = 0; i < 600; ++i) {
    const size_t kind = rng.UniformInt(3u);
    const char* c = kind == 0 ? "alpha" : (kind == 1 ? "beta" : "gamma");
    DBW_CHECK_OK(t->AppendRow({Value(c), Value(rng.UniformDouble(0, 1))}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back(kind != 2 ? 1 : 0);  // alpha and beta both positive
  }
  FeatureView v = *FeatureView::Create(*t, {"c", "x"});
  SubgroupOptions opts;
  opts.num_rules = 4;
  opts.max_clauses = 1;
  auto subgroups = *DiscoverSubgroups(v.Snapshot(rows), labels, {}, opts);
  ASSERT_GE(subgroups.size(), 2u);
  std::string all;
  for (const Subgroup& sg : subgroups) all += sg.predicate.ToString() + ";";
  EXPECT_NE(all.find("alpha"), std::string::npos) << all;
  EXPECT_NE(all.find("beta"), std::string::npos) << all;
}

TEST(SubgroupTest, MaxClausesBoundsDescriptions) {
  Planted p = MakePatients(3);
  FeatureView v = *FeatureView::Create(*p.table, {"habit", "age", "weight"});
  SubgroupOptions opts;
  opts.max_clauses = 1;
  auto subgroups = *DiscoverSubgroups(v.Snapshot(p.rows), p.labels, {}, opts);
  for (const Subgroup& sg : subgroups) {
    EXPECT_LE(sg.predicate.num_clauses(), 1u);
  }
}

TEST(SubgroupTest, InitialWeightsBiasTheSearch) {
  // Upweight the 'gamma' pocket's examples: it should win round one
  // even though it is the smaller positive pocket.
  Rng rng(4);
  auto t = std::make_shared<Table>(Schema{{"c", DataType::kString}}, "t");
  std::vector<RowId> rows;
  std::vector<int> labels;
  std::vector<double> weights;
  for (int i = 0; i < 300; ++i) {
    const bool big_pocket = i % 3 != 0;
    const char* c = big_pocket ? "alpha" : "gamma";
    const bool positive = rng.Bernoulli(big_pocket ? 0.9 : 0.9);
    DBW_CHECK_OK(t->AppendRow({Value(positive ? c : "noise")}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back(positive ? 1 : 0);
    weights.push_back(big_pocket ? 1.0 : 20.0);
  }
  FeatureView v = *FeatureView::Create(*t, {"c"});
  SubgroupOptions opts;
  opts.num_rules = 1;
  opts.max_clauses = 1;
  auto subgroups = *DiscoverSubgroups(v.Snapshot(rows), labels, weights, opts);
  ASSERT_FALSE(subgroups.empty());
  EXPECT_NE(subgroups[0].predicate.ToString().find("gamma"),
            std::string::npos)
      << subgroups[0].predicate.ToString();
}

TEST(SubgroupTest, CoveredIndicesAreConsistent) {
  Planted p = MakePatients(5);
  FeatureView v = *FeatureView::Create(*p.table, {"habit", "age", "weight"});
  auto subgroups = *DiscoverSubgroups(v.Snapshot(p.rows), p.labels, {});
  for (const Subgroup& sg : subgroups) {
    EXPECT_EQ(sg.covered.size(), sg.coverage);
    for (size_t idx : sg.covered) {
      EXPECT_TRUE(*sg.predicate.Matches(*p.table, p.rows[idx]))
          << sg.predicate.ToString() << " idx " << idx;
    }
  }
}

TEST(SubgroupTest, Validation) {
  Planted p = MakePatients(6);
  FeatureView v = *FeatureView::Create(*p.table, {"age"});
  EXPECT_FALSE(DiscoverSubgroups(v.Snapshot({}), {}, {}).ok());
  EXPECT_FALSE(DiscoverSubgroups(v.Snapshot({0, 1}), {0}, {}).ok());
  // No positive.
  EXPECT_FALSE(DiscoverSubgroups(v.Snapshot({0, 1}), {0, 0}, {}).ok());
  EXPECT_FALSE(DiscoverSubgroups(v.Snapshot({0, 1}), {0, 1}, {1.0}).ok());
  SubgroupOptions no_beam;
  no_beam.beam_width = 0;
  auto r = DiscoverSubgroups(v.Snapshot(p.rows), p.labels, {}, no_beam);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST(SubgroupTest, AllPositiveLabelsFindNothingUseful) {
  // With every example positive, WRAcc of any rule is ~0; the search
  // should return empty rather than arbitrary rules.
  auto t = std::make_shared<Table>(Schema{{"x", DataType::kDouble}}, "t");
  std::vector<RowId> rows;
  std::vector<int> labels;
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    DBW_CHECK_OK(t->AppendRow({Value(rng.UniformDouble(0, 1))}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back(1);
  }
  FeatureView v = *FeatureView::Create(*t, {"x"});
  auto subgroups = *DiscoverSubgroups(v.Snapshot(rows), labels, {});
  EXPECT_TRUE(subgroups.empty());
}

class SubgroupSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubgroupSeedSweep, RecoversPlantedRuleAcrossSeeds) {
  Planted p = MakePatients(GetParam());
  FeatureView v = *FeatureView::Create(*p.table, {"habit", "age", "weight"});
  auto subgroups = *DiscoverSubgroups(v.Snapshot(p.rows), p.labels, {});
  ASSERT_FALSE(subgroups.empty());
  EXPECT_NE(subgroups[0].predicate.ToString().find("smoker"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubgroupSeedSweep,
                         ::testing::Values(10, 20, 30, 40, 50));

// ---------- bitmap search vs the byte-vector reference ----------

/// A table exercising every condition builder edge: NULL strings, a
/// categorical with more values than max_categories_per_feature (and
/// tied frequencies), a numeric with NaN, infinite and NULL values,
/// and a numeric with few distinct (tied) values. Positives are
/// planted in a region and flipped with some noise.
struct RandomProblem {
  std::shared_ptr<Table> table;
  std::vector<RowId> rows;
  std::vector<int> labels;
  std::vector<double> weights;
  SubgroupOptions options;
};

RandomProblem MakeRandomProblem(uint64_t seed) {
  Rng rng(seed);
  RandomProblem p;
  p.table = std::make_shared<Table>(Schema{{"kind", DataType::kString},
                                           {"city", DataType::kString},
                                           {"x", DataType::kDouble},
                                           {"level", DataType::kDouble}},
                                    "t");
  const size_t num_rows = 60 + rng.UniformInt(uint64_t{400});
  const uint64_t num_cities = 3 + rng.UniformInt(uint64_t{20});
  std::vector<bool> planted;
  for (size_t i = 0; i < num_rows; ++i) {
    const uint64_t k = rng.UniformInt(uint64_t{4});
    const bool null_kind = rng.Bernoulli(0.1);
    const Value kind = null_kind ? Value::Null()
                                 : Value(std::string(1, "abcd"[k]));
    const Value city("c" + std::to_string(rng.UniformInt(num_cities)));
    double x = rng.Normal(0.0, 1.0);
    const double u = rng.UniformDouble();
    if (u < 0.05) x = std::nan("");
    if (u > 0.98) x = (u > 0.99 ? 1.0 : -1.0) *
                      std::numeric_limits<double>::infinity();
    const bool null_x = rng.Bernoulli(0.05);
    const Value level(static_cast<double>(rng.UniformInt(uint64_t{5})));
    DBW_CHECK_OK(p.table->AppendRow(
        {kind, city, null_x ? Value::Null() : Value(x), level}));
    planted.push_back(!null_kind && k == 0 && !null_x && x > 0.3);
  }
  // A random subset of the rows, in random order.
  for (size_t i = 0; i < num_rows; ++i) {
    if (rng.Bernoulli(0.8)) p.rows.push_back(static_cast<RowId>(i));
  }
  if (p.rows.size() < 4) p.rows = {0, 1, 2, 3};
  rng.Shuffle(&p.rows);
  for (RowId r : p.rows) {
    p.labels.push_back(planted[r] != rng.Bernoulli(0.1) ? 1 : 0);
  }
  if (std::count(p.labels.begin(), p.labels.end(), 1) == 0) p.labels[0] = 1;
  if (rng.Bernoulli(0.5)) {
    for (size_t i = 0; i < p.rows.size(); ++i) {
      p.weights.push_back(rng.UniformDouble(0.1, 3.0));
    }
  }
  const double gammas[] = {0.5, 0.25, 0.3, 0.7, 0.9};
  const size_t beams[] = {1, 2, 3, 8};
  const size_t coverages[] = {0, 1, 2, 10};
  p.options.gamma = gammas[rng.UniformInt(uint64_t{5})];
  p.options.beam_width = beams[rng.UniformInt(uint64_t{4})];
  p.options.max_clauses = 1 + rng.UniformInt(uint64_t{3});
  p.options.min_coverage = coverages[rng.UniformInt(uint64_t{4})];
  p.options.num_rules = 1 + rng.UniformInt(uint64_t{6});
  p.options.max_categories_per_feature = 2 + rng.UniformInt(uint64_t{6});
  p.options.max_numeric_thresholds = 1 + rng.UniformInt(uint64_t{8});
  return p;
}

/// Runs DiscoverSubgroups and the reference on `p` and expects the same
/// rules, WRAcc bits and covered rows; returns how many rules matched.
size_t ExpectMatchesReference(const RandomProblem& p,
                              const std::string& where) {
  FeatureView v =
      *FeatureView::Create(*p.table, {"kind", "city", "x", "level"});
  auto got =
      DiscoverSubgroups(v.Snapshot(p.rows), p.labels, p.weights, p.options);
  EXPECT_TRUE(got.ok()) << where << ": " << got.status().ToString();
  if (!got.ok()) return 0;
  const std::vector<Subgroup> want = reference::DiscoverSubgroups(
      v, p.rows, p.labels, p.weights, p.options);
  EXPECT_EQ(got->size(), want.size()) << where;
  if (got->size() != want.size()) return 0;
  for (size_t i = 0; i < want.size(); ++i) {
    const Subgroup& g = (*got)[i];
    const Subgroup& w = want[i];
    EXPECT_EQ(g.predicate.ToString(), w.predicate.ToString())
        << where << " rule " << i;
    EXPECT_EQ(std::memcmp(&g.wracc, &w.wracc, sizeof(double)), 0)
        << where << " rule " << i << ": " << g.wracc << " vs " << w.wracc;
    EXPECT_EQ(g.coverage, w.coverage) << where << " rule " << i;
    EXPECT_EQ(g.positives, w.positives) << where << " rule " << i;
    EXPECT_EQ(g.covered, w.covered) << where << " rule " << i;
  }
  return want.size();
}

// Unit and no weights with gamma 0.5 or 0.25 take the bit-plane scorer
// at the AVX2 tier; random weights and the other gammas keep the row
// loop. At the scalar tier every problem takes the row loop.
TEST(SubgroupEquivalenceTest, BitmapSearchMatchesByteVectorReference) {
  size_t compared_rules = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    compared_rules += ExpectMatchesReference(MakeRandomProblem(seed),
                                             "seed " + std::to_string(seed));
  }
  // The sweep must actually produce rules to compare.
  EXPECT_GT(compared_rules, 120u);
}

/// Weights k_i * 2^-30 with at least one k_i odd, so 2^-30 is the unit
/// of the bit-plane rule, and sum of k_i = `units` exactly.
std::vector<double> DyadicWeights(size_t n, uint64_t units, Rng* rng) {
  std::vector<double> share(n);
  double total = 0.0;
  for (double& s : share) total += s = rng->UniformDouble(0.5, 1.5);
  std::vector<uint64_t> k(n);
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    k[i] = static_cast<uint64_t>(share[i] / total *
                                 static_cast<double>(units) * 0.999);
    if (i == 0) k[i] |= 1;
    sum += k[i];
  }
  k[n - 1] += units - sum;  // the remainder, so the k_i sum to `units`
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = std::ldexp(static_cast<double>(k[i]), -30);
  }
  return weights;
}

// The bit-plane scorer's rule at its edge: dyadic weights whose total in
// units of 2^-30 is just below 2^53 (bit planes in the first round) or
// just above it (the row loop). Decaying covered positives by gamma 0.5
// or 0.75 moves later rounds' totals past 2^53, where partial sums of
// the row loop round, so the rule must send them to the row loop too.
TEST(SubgroupEquivalenceTest, DyadicWeightsAroundTwoToThe53) {
  Rng rng(53);
  size_t compared_rules = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    for (double gamma : {0.75, 0.5}) {
      for (bool above : {false, true}) {
        RandomProblem p = MakeRandomProblem(1000 + seed);
        const uint64_t offset = 1 + rng.UniformInt(uint64_t{1} << 46);
        const uint64_t limit = uint64_t{1} << 53;
        const uint64_t units = above ? limit + offset : limit - offset;
        p.weights = DyadicWeights(p.rows.size(), units, &rng);
        p.options.gamma = gamma;
        p.options.num_rules = std::max<size_t>(p.options.num_rules, 3);
        compared_rules += ExpectMatchesReference(
            p, "seed " + std::to_string(seed) + ", gamma " +
                   std::to_string(gamma) + (above ? ", above" : ", below"));
      }
    }
  }
  EXPECT_GT(compared_rules, 120u);
}

}  // namespace
}  // namespace dbwipes
