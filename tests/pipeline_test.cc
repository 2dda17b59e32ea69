// Stage-level tests of the DBWipes backend: Preprocessor, removal
// evaluation, Dataset Enumerator, Predicate Enumerator, Predicate
// Ranker — each on a small planted-anomaly world where the right
// answer is known exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/parallel.h"
#include "dbwipes/common/random.h"
#include "dbwipes/common/stats.h"
#include "dbwipes/core/dataset_enumerator.h"
#include "dbwipes/core/dbwipes.h"
#include "dbwipes/core/export.h"
#include "dbwipes/core/predicate_enumerator.h"
#include "dbwipes/core/predicate_ranker.h"
#include "dbwipes/core/removal.h"
#include "dbwipes/core/removal_scorer.h"
#include "dbwipes/core/session.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/learn/subgroup.h"
#include "dbwipes/provenance/influence.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {
namespace {

/// A world with 4 groups; rows with tag = 'bad' in groups 2 and 3 carry
/// v = 100 instead of ~10.
struct World {
  std::shared_ptr<Table> table;
  QueryResult result;
  std::vector<size_t> suspicious_groups;
  std::vector<RowId> bad_rows;
  ErrorMetricPtr metric = TooHigh(15.0);
};

World MakeWorld(uint64_t seed = 9) {
  Rng rng(seed);
  World w;
  w.table = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                           {"tag", DataType::kString},
                                           {"knob", DataType::kDouble},
                                           {"v", DataType::kDouble}},
                                    "w");
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 50; ++i) {
      const bool bad = g >= 2 && i < 10;
      DBW_CHECK_OK(w.table->AppendRow(
          {Value(static_cast<int64_t>(g)), Value(bad ? "bad" : "fine"),
           Value(rng.Normal(0, 1)),
           Value(bad ? rng.Normal(100, 2) : rng.Normal(10, 2))}));
      if (bad) {
        w.bad_rows.push_back(static_cast<RowId>(w.table->num_rows() - 1));
      }
    }
  }
  w.result = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS a FROM w GROUP BY g"), *w.table);
  w.suspicious_groups = {2, 3};
  return w;
}

// ---------- Preprocessor ----------

TEST(PreprocessorTest, ComputesFAndRanksBadTuplesFirst) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  EXPECT_EQ(pre.suspect_inputs.size(), 100u);  // two groups x 50 rows
  EXPECT_GT(pre.baseline_error, 0.0);
  EXPECT_GT(pre.per_group_baseline_error, 0.0);
  // The 20 bad rows must occupy the top-20 influence slots.
  for (size_t i = 0; i < w.bad_rows.size(); ++i) {
    EXPECT_TRUE(std::binary_search(w.bad_rows.begin(), w.bad_rows.end(),
                                   pre.influences[i].row))
        << "rank " << i << " is row " << pre.influences[i].row;
  }
}

TEST(PreprocessorTest, ErrorsOnEmptySelection) {
  World w = MakeWorld();
  EXPECT_FALSE(Preprocessor::Run(*w.table, w.result, {}, *w.metric).ok());
}

// A result executed without lineage capture carries no offsets, so
// every stage that reads a group's lineage must refuse it rather than
// index into them.
TEST(PreprocessorTest, LineageReadersRefuseAResultWithoutLineage) {
  World w = MakeWorld();
  ExecOptions opts;
  opts.capture_lineage = false;
  const QueryResult bare = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS a FROM w GROUP BY g"), *w.table, opts);
  ASSERT_EQ(bare.num_groups(), 4u);
  const std::string refused =
      Status::InvalidArgument("result was executed without lineage capture")
          .ToString();
  const Table& t = *w.table;
  const std::vector<size_t>& groups = w.suspicious_groups;
  const ErrorFn fn = w.metric->AsErrorFn();
  EXPECT_EQ(Preprocessor::Run(t, bare, groups, *w.metric).status().ToString(),
            refused);
  EXPECT_EQ(LeaveOneOutInfluence(t, bare, groups, fn).status().ToString(),
            refused);
  EXPECT_EQ(
      LeaveOneOutInfluenceBruteForce(t, bare, groups, fn).status().ToString(),
      refused);
  EXPECT_EQ(ValuesAfterRemoval(t, bare, groups, 0, {}).status().ToString(),
            refused);
  EXPECT_EQ(
      RemovalScorer::Create(t, bare, groups, 0, w.bad_rows).status().ToString(),
      refused);
}

// ---------- removal evaluation ----------

TEST(RemovalTest, RemovingBadRowsZeroesError) {
  World w = MakeWorld();
  const double before = *ErrorAfterRemoval(*w.table, w.result,
                                           w.suspicious_groups, *w.metric, 0,
                                           {});
  EXPECT_GT(before, 0.0);
  const double after = *ErrorAfterRemoval(*w.table, w.result,
                                          w.suspicious_groups, *w.metric, 0,
                                          w.bad_rows);
  EXPECT_DOUBLE_EQ(after, 0.0);
}

TEST(RemovalTest, ValuesAfterRemovalMatchManualRecompute) {
  World w = MakeWorld();
  auto values = *ValuesAfterRemoval(*w.table, w.result, {2}, 0, w.bad_rows);
  ASSERT_EQ(values.size(), 1u);
  // Group 2 without its 10 bad rows: all remaining ~N(10, 2).
  EXPECT_NEAR(values[0], 10.0, 2.0);
}

TEST(RemovalTest, RemovingEverythingYieldsNaNThenZeroError) {
  World w = MakeWorld();
  const std::span<const RowId> group2 = w.result.lineage[2];
  const std::vector<RowId> all(group2.begin(), group2.end());
  auto values = *ValuesAfterRemoval(*w.table, w.result, {2}, 0, all);
  EXPECT_TRUE(std::isnan(values[0]));
  EXPECT_DOUBLE_EQ(*ErrorAfterRemoval(*w.table, w.result, {2}, *w.metric, 0,
                                      all),
                   0.0);
}

TEST(RemovalTest, PerGroupErrorIsMonotoneInPartialRepair) {
  World w = MakeWorld();
  // Fixing only group 2: raw max-metric unchanged, per-group halves.
  const std::span<const RowId> group2 = w.result.lineage[2];
  std::vector<RowId> group2_bad;
  for (RowId r : w.bad_rows) {
    if (std::binary_search(group2.begin(), group2.end(), r)) {
      group2_bad.push_back(r);
    }
  }
  const double raw_before = *ErrorAfterRemoval(
      *w.table, w.result, w.suspicious_groups, *w.metric, 0, {});
  const double raw_after = *ErrorAfterRemoval(
      *w.table, w.result, w.suspicious_groups, *w.metric, 0, group2_bad);
  EXPECT_NEAR(raw_after, raw_before, 1.0);  // max barely moves

  const double pg_before = *PerGroupErrorAfterRemoval(
      *w.table, w.result, w.suspicious_groups, *w.metric, 0, {});
  const double pg_after = *PerGroupErrorAfterRemoval(
      *w.table, w.result, w.suspicious_groups, *w.metric, 0, group2_bad);
  EXPECT_LT(pg_after, 0.6 * pg_before);  // clear progress signal
}

TEST(RemovalTest, BadArgIndex) {
  World w = MakeWorld();
  EXPECT_TRUE(
      ErrorAfterRemoval(*w.table, w.result, {0}, *w.metric, 9, {}).status()
          .IsOutOfRange());
}

// ---------- Dataset Enumerator ----------

TEST(DatasetEnumeratorTest, FindsErrorReducingCandidates) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  FeatureView view = *FeatureView::Create(*w.table, {"g", "tag", "knob"});
  DatasetEnumerator enumerator;
  auto candidates = *enumerator.Enumerate(*w.table, w.result,
                                          w.suspicious_groups, pre,
                                          /*dprime=*/{}, view, *w.metric);
  ASSERT_FALSE(candidates.empty());
  // Sorted by reduction, all strictly positive.
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_GT(candidates[i].error_reduction, 0.0);
    if (i > 0) {
      EXPECT_GE(candidates[i - 1].error_reduction,
                candidates[i].error_reduction);
    }
    EXPECT_TRUE(std::is_sorted(candidates[i].rows.begin(),
                               candidates[i].rows.end()));
  }
  // The best candidate should essentially be the bad-row set.
  std::vector<RowId> common;
  std::set_intersection(candidates[0].rows.begin(), candidates[0].rows.end(),
                        w.bad_rows.begin(), w.bad_rows.end(),
                        std::back_inserter(common));
  EXPECT_GE(common.size(), 18u);  // >= 90% of the 20 bad rows
}

TEST(DatasetEnumeratorTest, DPrimeGuidesWhenProvided) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  FeatureView view = *FeatureView::Create(*w.table, {"g", "tag", "knob"});
  DatasetEnumerator enumerator;
  // The user hands us half the bad rows.
  std::vector<RowId> dprime(w.bad_rows.begin(),
                            w.bad_rows.begin() + w.bad_rows.size() / 2);
  auto candidates = *enumerator.Enumerate(*w.table, w.result,
                                          w.suspicious_groups, pre, dprime,
                                          view, *w.metric);
  bool has_dprime_candidate = false;
  for (const CandidateDataset& c : candidates) {
    if (c.source == "cleaned-dprime") has_dprime_candidate = true;
  }
  EXPECT_TRUE(has_dprime_candidate);
}

TEST(DatasetEnumeratorTest, CleanDPrimeDropsStrayExamples) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  // Numeric-only view so k-means sees the v gap (bad rows sit at 100).
  FeatureView view = *FeatureView::Create(*w.table, {"knob", "v"});
  // D' = 15 bad rows + 2 accidental normal rows.
  std::vector<RowId> dprime(w.bad_rows.begin(), w.bad_rows.begin() + 15);
  std::vector<RowId> strays;
  for (RowId r : pre.suspect_inputs) {
    if (!std::binary_search(w.bad_rows.begin(), w.bad_rows.end(), r)) {
      strays.push_back(r);
      dprime.push_back(r);
      if (strays.size() == 2) break;
    }
  }
  DatasetEnumerator enumerator;
  auto cleaned = *enumerator.CleanDPrime(*w.table, dprime, pre.suspect_inputs,
                                         pre.influences, view);
  for (RowId stray : strays) {
    EXPECT_FALSE(std::binary_search(cleaned.begin(), cleaned.end(), stray))
        << "stray row " << stray << " survived cleaning";
  }
  EXPECT_GE(cleaned.size(), 13u);
}

/// A D' example whose knob is NaN, not NULL: naive Bayes leaves the
/// feature out, as it does for NULL, so the tag alone keeps the example.
TEST(DatasetEnumeratorTest, ClassifierCleanSkipsANaNValueLikeNull) {
  World w = MakeWorld();
  auto table = std::make_shared<Table>(w.table->schema(), "w");
  for (RowId r = 0; r < w.table->num_rows(); ++r) {
    std::vector<Value> row = w.table->GetRow(r);
    if (r == w.bad_rows[0]) {
      row[2] = Value(std::numeric_limits<double>::quiet_NaN());
    }
    DBW_CHECK_OK(table->AppendRow(row));
  }
  const QueryResult result = *ExecuteQuery(
      *ParseQuery("SELECT g, avg(v) AS a FROM w GROUP BY g"), *table);
  PreprocessResult pre =
      *Preprocessor::Run(*table, result, w.suspicious_groups, *w.metric);
  FeatureView view = *FeatureView::Create(*table, {"tag", "knob"});
  DatasetEnumeratorOptions options;
  options.clean_method = CleanMethod::kClassifier;
  const std::vector<RowId> cleaned = *DatasetEnumerator(options).CleanDPrime(
      *table, w.bad_rows, pre.suspect_inputs, pre.influences, view);
  EXPECT_EQ(cleaned, w.bad_rows);
}

/// A candidate row set before scoring, by where it came from.
using RawCandidate = std::pair<std::string, std::vector<RowId>>;

/// The candidates Enumerate builds, before scoring, when it cleans D'
/// and then discovers subgroups on the cleaned labels: the cleaned D',
/// the top-influence rows, and each subgroup's rows joined with the
/// cleaned D'; a row list met before is dropped. Sorted.
std::vector<RawCandidate> CleanThenDiscover(
    const World& w, const PreprocessResult& pre,
    const std::vector<RowId>& dprime, const FeatureView& view,
    const DatasetEnumeratorOptions& options, std::vector<RowId>* cleaned) {
  const DatasetEnumerator enumerator(options);
  *cleaned = *enumerator.CleanDPrime(*w.table, dprime, pre.suspect_inputs,
                                     pre.influences, view);
  std::vector<double> positive;
  for (const TupleInfluence& ti : pre.influences) {
    if (ti.influence > 0.0) positive.push_back(ti.influence);
  }
  const double cutoff = Quantile(positive, options.influence_quantile);
  std::vector<RowId> top;
  for (const TupleInfluence& ti : pre.influences) {
    if (ti.influence > 0.0 && ti.influence >= cutoff) top.push_back(ti.row);
  }
  std::sort(top.begin(), top.end());
  auto positive_row = [&](RowId r) {
    return std::binary_search(cleaned->begin(), cleaned->end(), r) ||
           std::binary_search(top.begin(), top.end(), r);
  };
  std::vector<int> labels;
  for (RowId r : pre.suspect_inputs) labels.push_back(positive_row(r));

  std::vector<RawCandidate> raw = {{"cleaned-dprime", *cleaned},
                                   {"top-influence", top}};
  const std::vector<Subgroup> subgroups =
      *DiscoverSubgroups(view.Snapshot(pre.suspect_inputs), labels, {},
                         options.subgroup_options);
  for (const Subgroup& sg : subgroups) {
    std::vector<RowId> rows = *cleaned;
    for (size_t i : sg.covered) rows.push_back(pre.suspect_inputs[i]);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    raw.push_back({"subgroup: " + sg.predicate.ToString(), std::move(rows)});
  }
  std::vector<RawCandidate> out;
  for (RawCandidate& c : raw) {
    const bool repeated =
        std::any_of(out.begin(), out.end(), [&](const RawCandidate& o) {
          return o.second == c.second;
        });
    if (!repeated) out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every candidate Enumerate builds, unscored and sorted.
std::vector<RawCandidate> EnumerateAll(const World& w,
                                       const PreprocessResult& pre,
                                       const std::vector<RowId>& dprime,
                                       const FeatureView& view,
                                       const DatasetEnumeratorOptions& options,
                                       std::vector<RowId>* cleaned) {
  const std::vector<CandidateDataset> candidates =
      *DatasetEnumerator(options).Enumerate(
          *w.table, w.result, w.suspicious_groups, pre, dprime, view,
          *w.metric, 0, ExecContext::None(), cleaned);
  std::vector<RawCandidate> out;
  for (const CandidateDataset& c : candidates) {
    out.push_back({c.source, c.rows});
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Options under which Enumerate keeps every candidate it builds.
DatasetEnumeratorOptions KeepEveryCandidate() {
  DatasetEnumeratorOptions options;
  options.require_error_reduction = false;
  options.max_candidates = 1000;
  return options;
}

/// Searches run beside the D' clean, by outcome.
struct GuessCounts {
  uint64_t hits = MetricsRegistry::Global()
                      .GetCounter("enumerate.guess_hits")
                      ->value();
  uint64_t misses = MetricsRegistry::Global()
                        .GetCounter("enumerate.guess_misses")
                        ->value();
};

/// When the clean keeps all of D', the search that ran beside it on
/// that guess stands: Enumerate equals the clean followed by discovery.
TEST(DatasetEnumeratorTest, GuessHitEqualsCleanThenDiscover) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  FeatureView view = *FeatureView::Create(*w.table, {"tag", "knob", "v"});
  const std::vector<RowId> dprime(w.bad_rows.begin(),
                                  w.bad_rows.begin() + 15);
  const DatasetEnumeratorOptions options = KeepEveryCandidate();
  std::vector<RowId> want_cleaned, got_cleaned;
  const std::vector<RawCandidate> want =
      CleanThenDiscover(w, pre, dprime, view, options, &want_cleaned);
  ASSERT_EQ(want_cleaned, dprime) << "the clean must keep all of D'";
  const GuessCounts before;
  const std::vector<RawCandidate> got =
      EnumerateAll(w, pre, dprime, view, options, &got_cleaned);
  const GuessCounts after;
  EXPECT_EQ(got_cleaned, want_cleaned);
  EXPECT_EQ(got, want);
  EXPECT_GT(std::count_if(got.begin(), got.end(),
                          [](const RawCandidate& c) {
                            return c.first.rfind("subgroup: ", 0) == 0;
                          }),
            0);
  // With a pool worker the search ran beside the clean, and stood.
  const bool beside = ThreadPool::Global().num_threads() > 0;
  EXPECT_EQ(after.hits - before.hits, beside ? 1u : 0u);
  EXPECT_EQ(after.misses, before.misses);
}

/// When the clean drops rows, the guess misses: the search beside it
/// stops and discovery reruns on the cleaned labels.
TEST(DatasetEnumeratorTest, GuessMissRediscoversOnCleanedLabels) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  // CleanDPrimeDropsStrayExamples's world: 15 bad rows, 2 strays.
  FeatureView view = *FeatureView::Create(*w.table, {"knob", "v"});
  std::vector<RowId> dprime(w.bad_rows.begin(), w.bad_rows.begin() + 15);
  for (RowId r : pre.suspect_inputs) {
    if (!std::binary_search(w.bad_rows.begin(), w.bad_rows.end(), r)) {
      dprime.push_back(r);
      if (dprime.size() == 17) break;
    }
  }
  std::sort(dprime.begin(), dprime.end());
  const DatasetEnumeratorOptions options = KeepEveryCandidate();
  std::vector<RowId> want_cleaned, got_cleaned;
  const std::vector<RawCandidate> want =
      CleanThenDiscover(w, pre, dprime, view, options, &want_cleaned);
  ASSERT_LT(want_cleaned.size(), dprime.size())
      << "the clean must drop the strays";
  const GuessCounts before;
  const std::vector<RawCandidate> got =
      EnumerateAll(w, pre, dprime, view, options, &got_cleaned);
  const GuessCounts after;
  EXPECT_EQ(got_cleaned, want_cleaned);
  EXPECT_EQ(got, want);
  const bool beside = ThreadPool::Global().num_threads() > 0;
  EXPECT_EQ(after.misses - before.misses, beside ? 1u : 0u);
  EXPECT_EQ(after.hits, before.hits);
}

/// The subgroups of two searches, field for field.
void ExpectSameSubgroups(const std::vector<Subgroup>& got,
                         const std::vector<Subgroup>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].predicate.ToString(), want[i].predicate.ToString());
    EXPECT_EQ(std::memcmp(&got[i].wracc, &want[i].wracc, sizeof(double)), 0);
    EXPECT_EQ(got[i].coverage, want[i].coverage);
    EXPECT_EQ(got[i].positives, want[i].positives);
    EXPECT_EQ(got[i].covered, want[i].covered);
  }
}

/// Discovery checks its context before every beam level: a stopped
/// context ends it with the interrupt, a live one changes nothing, and
/// a deadline that expires during the search gives the interrupt, never
/// a partial answer.
TEST(DatasetEnumeratorTest, StoppedDiscoveryReturnsTheInterrupt) {
  Rng rng(17);
  auto t = std::make_shared<Table>(Schema{{"a", DataType::kDouble},
                                          {"b", DataType::kDouble},
                                          {"c", DataType::kDouble},
                                          {"tag", DataType::kString}},
                                   "s");
  const char* tags[] = {"p", "q", "r", "s", "u"};
  std::vector<RowId> rows;
  std::vector<int> labels;
  for (int i = 0; i < 30000; ++i) {
    const double a = rng.UniformDouble(0.0, 1.0);
    const char* tag = tags[rng.UniformInt(uint64_t{5})];
    DBW_CHECK_OK(t->AppendRow({Value(a), Value(rng.Normal(0, 1)),
                               Value(rng.UniformDouble(0.0, 9.0)),
                               Value(tag)}));
    rows.push_back(static_cast<RowId>(i));
    labels.push_back((a > 0.7 && tag[0] == 'p') ||
                     rng.UniformDouble(0.0, 1.0) < 0.03);
  }
  FeatureView view = *FeatureView::Create(*t, {"a", "b", "c", "tag"});
  const FeatureColumns columns = view.Snapshot(rows);

  CancellationSource source;
  source.Cancel("stop");
  ExecContext cancelled;
  cancelled.token = source.token();
  ExecContext expired;
  expired.deadline = Deadline::After(0.0);
  EXPECT_TRUE(DiscoverSubgroups(columns, labels, {}, {}, cancelled)
                  .status()
                  .IsCancelled());
  EXPECT_TRUE(DiscoverSubgroups(columns, labels, {}, {}, expired)
                  .status()
                  .IsDeadlineExceeded());

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Subgroup> want =
      *DiscoverSubgroups(columns, labels, {}, {});
  const double full_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  ASSERT_GE(want.size(), 2u);
  CancellationSource live_source;
  ExecContext live;
  live.token = live_source.token();
  live.deadline = Deadline::After(600000.0);
  ExpectSameSubgroups(*DiscoverSubgroups(columns, labels, {}, {}, live),
                      want);
  for (int tenth = 1; tenth < 10; ++tenth) {
    ExecContext stopping;
    stopping.deadline = Deadline::After(full_ms * tenth / 10.0);
    const Result<std::vector<Subgroup>> got =
        DiscoverSubgroups(columns, labels, {}, {}, stopping);
    if (got.ok()) {
      ExpectSameSubgroups(*got, want);
    } else {
      EXPECT_TRUE(got.status().IsDeadlineExceeded())
          << got.status().ToString();
    }
  }
}

TEST(DatasetEnumeratorTest, CleanMethodNoneKeepsEverything) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  FeatureView view = *FeatureView::Create(*w.table, {"knob", "v"});
  DatasetEnumeratorOptions opts;
  opts.clean_method = CleanMethod::kNone;
  DatasetEnumerator enumerator(opts);
  // Two bad rows plus three ordinary (non-bad) suspect rows.
  std::vector<RowId> dprime = {w.bad_rows[0], w.bad_rows[1]};
  for (RowId r : pre.suspect_inputs) {
    if (dprime.size() == 5) break;
    if (!std::binary_search(w.bad_rows.begin(), w.bad_rows.end(), r)) {
      dprime.push_back(r);
    }
  }
  std::sort(dprime.begin(), dprime.end());
  auto cleaned = *enumerator.CleanDPrime(*w.table, dprime, pre.suspect_inputs,
                                         pre.influences, view);
  EXPECT_EQ(cleaned, dprime);
}

TEST(DatasetEnumeratorTest, MaxCandidatesHonored) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  FeatureView view = *FeatureView::Create(*w.table, {"g", "tag", "knob"});
  DatasetEnumeratorOptions opts;
  opts.max_candidates = 2;
  DatasetEnumerator enumerator(opts);
  auto candidates = *enumerator.Enumerate(*w.table, w.result,
                                          w.suspicious_groups, pre, {}, view,
                                          *w.metric);
  EXPECT_LE(candidates.size(), 2u);
}

// ---------- Predicate Enumerator ----------

TEST(PredicateEnumeratorTest, TreesRecoverTheTagPredicate) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  FeatureView view = *FeatureView::Create(*w.table, {"g", "tag", "knob"});
  CandidateDataset cand;
  cand.rows = w.bad_rows;  // perfect candidate
  cand.source = "truth";
  PredicateEnumerator enumerator;
  auto predicates = *enumerator.Enumerate(view, pre.suspect_inputs, {cand});
  ASSERT_FALSE(predicates.empty());
  bool found_tag = false;
  for (const EnumeratedPredicate& ep : predicates) {
    if (ep.predicate.ToString() == "tag = 'bad'") found_tag = true;
  }
  EXPECT_TRUE(found_tag);
}

TEST(PredicateEnumeratorTest, DeduplicatesAcrossStrategies) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  FeatureView view = *FeatureView::Create(*w.table, {"tag"});
  CandidateDataset cand;
  cand.rows = w.bad_rows;
  PredicateEnumerator enumerator;
  auto predicates = *enumerator.Enumerate(view, pre.suspect_inputs, {cand});
  std::set<std::string> canon;
  for (const EnumeratedPredicate& ep : predicates) {
    EXPECT_TRUE(canon.insert(ep.predicate.CanonicalString()).second)
        << "duplicate " << ep.predicate.ToString();
  }
}

TEST(PredicateEnumeratorTest, BoundingDescriptionWhenFIsAllAnomalous) {
  // Groups are per-sensor, so selecting the broken sensor's group
  // yields an F with no negative examples for the trees. The bounding
  // description still produces the paper's "sensorid = 15 AND
  // minute >= t0" shape by spanning the candidate against the table.
  Rng rng(44);
  auto t = std::make_shared<Table>(Schema{{"sensorid", DataType::kInt64},
                                          {"minute", DataType::kInt64},
                                          {"temp", DataType::kDouble}},
                                   "r");
  for (int s = 0; s < 10; ++s) {
    for (int m = 0; m < 100; ++m) {
      const bool hot = s == 7 && m >= 50;
      DBW_CHECK_OK(t->AppendRow({Value(static_cast<int64_t>(s)),
                                 Value(static_cast<int64_t>(m)),
                                 Value(hot ? rng.Normal(120, 2)
                                           : rng.Normal(20, 1))}));
    }
  }
  QueryResult result = *ExecuteQuery(
      *ParseQuery("SELECT sensorid, avg(temp) AS a FROM r WHERE minute >= 50 "
                  "GROUP BY sensorid"),
      *t);
  auto metric = TooHigh(25.0);
  std::vector<size_t> selected = {7};
  PreprocessResult pre = *Preprocessor::Run(*t, result, selected, *metric);
  // Everything in F belongs to the broken sensor.
  FeatureView view = *FeatureView::Create(*t, {"sensorid", "minute"});
  CandidateDataset cand;
  cand.rows = pre.suspect_inputs;
  PredicateEnumerator enumerator;
  auto predicates = *enumerator.Enumerate(view, pre.suspect_inputs, {cand});
  ASSERT_FALSE(predicates.empty());
  bool found = false;
  for (const EnumeratedPredicate& ep : predicates) {
    if (ep.strategy == "bounding") {
      found = true;
      const std::string text = ep.predicate.ToString();
      EXPECT_NE(text.find("sensorid = 7"), std::string::npos) << text;
      EXPECT_NE(text.find("minute >= 50"), std::string::npos) << text;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PredicateEnumeratorTest, DegenerateCandidatesSkipped) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  FeatureView view = *FeatureView::Create(*w.table, {"tag"});
  CandidateDataset all;
  all.rows = pre.suspect_inputs;  // covers everything -> no negatives
  auto r = PredicateEnumerator().Enumerate(view, pre.suspect_inputs, {all});
  EXPECT_FALSE(r.ok());
}

// ---------- Predicate Ranker ----------

TEST(PredicateRankerTest, TruePredicateOutranksBroadAndNarrow) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  std::vector<EnumeratedPredicate> candidates;
  auto add = [&](Predicate p) {
    EnumeratedPredicate ep;
    ep.predicate = std::move(p);
    ep.strategy = "test";
    candidates.push_back(std::move(ep));
  };
  add(Predicate({Clause::Make("tag", CompareOp::kEq, Value("bad"))}));
  // Over-broad: matches everything.
  add(Predicate({Clause::Make("knob", CompareOp::kGe, Value(-100.0))}));
  // Under-broad: matches a couple of bad rows.
  add(Predicate({Clause::Make("tag", CompareOp::kEq, Value("bad")),
                 Clause::Make("knob", CompareOp::kGe, Value(1.0))}));

  PredicateRanker ranker;
  auto ranked = *ranker.Rank(*w.table, w.result, w.suspicious_groups,
                             *w.metric, 0, pre.suspect_inputs, w.bad_rows,
                             pre.per_group_baseline_error, candidates);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].predicate.ToString(), "tag = 'bad'");
  EXPECT_NEAR(ranked[0].error_improvement, 1.0, 1e-9);
  EXPECT_NEAR(ranked[0].f1, 1.0, 1e-9);
  EXPECT_NEAR(ranked[0].error_after, 0.0, 1e-9);
}

TEST(PredicateRankerTest, EquivalentRepairsCollapseToTheShortest) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  // Two predicates removing the same tuples, one padded with a
  // redundant clause: interchangeable repairs collapse to one entry,
  // and the complexity penalty makes the shorter description win.
  std::vector<EnumeratedPredicate> candidates(2);
  candidates[0].predicate =
      Predicate({Clause::Make("tag", CompareOp::kEq, Value("bad"))});
  candidates[1].predicate =
      Predicate({Clause::Make("tag", CompareOp::kEq, Value("bad")),
                 Clause::Make("knob", CompareOp::kGe, Value(-1000.0))});
  PredicateRanker ranker;
  auto ranked = *ranker.Rank(*w.table, w.result, w.suspicious_groups,
                             *w.metric, 0, pre.suspect_inputs, w.bad_rows,
                             pre.per_group_baseline_error, candidates);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].predicate.num_clauses(), 1u);
}

TEST(PredicateRankerTest, TopKLimit) {
  World w = MakeWorld();
  PreprocessResult pre = *Preprocessor::Run(*w.table, w.result,
                                            w.suspicious_groups, *w.metric);
  std::vector<EnumeratedPredicate> candidates;
  for (int i = 0; i < 20; ++i) {
    EnumeratedPredicate ep;
    ep.predicate = Predicate(
        {Clause::Make("knob", CompareOp::kGe, Value(i * 0.1))});
    candidates.push_back(std::move(ep));
  }
  RankerOptions opts;
  opts.top_k = 5;
  auto ranked = *PredicateRanker(opts).Rank(
      *w.table, w.result, w.suspicious_groups, *w.metric, 0,
      pre.suspect_inputs, {}, pre.per_group_baseline_error, candidates);
  EXPECT_EQ(ranked.size(), 5u);
}

// ---------- full facade ----------

TEST(DBWipesTest, ExplainEndToEndRecoversTruth) {
  World w = MakeWorld();
  auto db = std::make_shared<Database>();
  db->RegisterTable(w.table);
  DBWipes engine(db);
  ExplanationRequest request;
  request.selected_groups = w.suspicious_groups;
  request.metric = w.metric;
  Explanation exp = *engine.Explain(w.result, request);
  ASSERT_FALSE(exp.predicates.empty());
  EXPECT_EQ(exp.predicates[0].predicate.ToString(), "tag = 'bad'");
  EXPECT_NEAR(exp.predicates[0].error_improvement, 1.0, 1e-9);
  EXPECT_GT(exp.preprocess.baseline_error, 0.0);
  EXPECT_GE(exp.profile.total_ms, 0.0);
}

TEST(DBWipesTest, CleanRemovesTheAnomaly) {
  World w = MakeWorld();
  auto db = std::make_shared<Database>();
  db->RegisterTable(w.table);
  DBWipes engine(db);
  Predicate p({Clause::Make("tag", CompareOp::kEq, Value("bad"))});
  QueryResult cleaned = *engine.Clean(w.result, p);
  for (size_t g = 0; g < cleaned.num_groups(); ++g) {
    EXPECT_LT(cleaned.AggValue(g, 0), 15.0);
  }
  EXPECT_NE(cleaned.query.ToSql().find("NOT"), std::string::npos);
}

// DBWipes::Clean deletes from the lineage of a current result, for
// every predicate (literals of the other type included), and
// re-executes a stale one (rows appended, or a new table object under
// the name). Either way the bytes equal re-execution's, and the output
// is current; `sql.queries` counts only the re-executions.
TEST(DBWipesTest, CleanDeletesFromCurrentLineageOrReexecutes) {
  World w = MakeWorld();
  auto db = std::make_shared<Database>();
  db->RegisterShardSet("w", *ShardSet::Create(*w.table, 2));
  DBWipes engine(db);
  const MetricCounter* queries =
      MetricsRegistry::Global().GetCounter("sql.queries");
  auto check = [&](const QueryResult& result, const Predicate& p,
                   uint64_t executions) {
    const uint64_t before = queries->value();
    Result<QueryResult> cleaned = engine.Clean(result, p);
    EXPECT_EQ(queries->value() - before, executions) << p.ToString();
    if (!cleaned.ok()) {
      ADD_FAILURE() << p.ToString() << ": " << cleaned.status().ToString();
      return QueryResult{};
    }
    QueryResult slow = *db->Execute(result.query.WithCleaningPredicate(p));
    EXPECT_EQ(QueryResultToJson(*cleaned, false),
              QueryResultToJson(slow, false));
    EXPECT_EQ(cleaned->lineage, slow.lineage);
    EXPECT_TRUE(engine.IsCurrent(*cleaned));
    return *std::move(cleaned);
  };
  const Predicate bad({Clause::Make("tag", CompareOp::kEq, Value("bad"))});

  QueryResult result =
      *engine.Query("SELECT g, avg(v) AS a FROM w GROUP BY g");
  EXPECT_TRUE(engine.IsCurrent(result));
  check(check(result, bad, 0),
        Predicate({Clause::Make("v", CompareOp::kGt, Value(11.0))}), 0);
  for (const Clause& c :
       {Clause::Make("tag", CompareOp::kGt, Value("c")),
        Clause::Make("tag", CompareOp::kEq, Value(int64_t{5})),
        Clause::Make("v", CompareOp::kEq, Value("x")),
        Clause::In("v", {Value("a"), Value(int64_t{1})})}) {
    check(result, Predicate({c}), 0);
  }

  std::shared_ptr<ShardSet> set = db->GetShardSet("w");
  ASSERT_TRUE(set->Append({Value(int64_t{2}), Value("bad"), Value(0.5),
                           Value(99.0)})
                  .ok());
  EXPECT_FALSE(engine.IsCurrent(result));
  QueryResult fresh = check(result, bad, 1);

  // Same rows, new table object: stale all the same.
  db->RegisterShardSet("w", *ShardSet::Create(*set->fused(), 3));
  EXPECT_FALSE(engine.IsCurrent(fresh));
  check(fresh, bad, 1);

  // Without lineage there is nothing to delete from.
  ExecOptions no_lineage;
  no_lineage.capture_lineage = false;
  check(*db->Execute(result.query, no_lineage), bad, 1);
}

TEST(DBWipesTest, CleanWithNullLiteralFollowsClauseMatches) {
  // Cleaning deletes the rows Clause::Matches selects, and no SQL
  // three-valued UNKNOWN enters it: `v = NULL` matches no row and
  // `v != NULL` every row whose v is not NULL (see
  // BoolExprTest.NullLiteralIsTheLeastValueNotUnknown).
  World w = MakeWorld();
  const RowId null_row = static_cast<RowId>(w.table->num_rows());
  ASSERT_TRUE(w.table
                  ->AppendRow({Value(int64_t{1}), Value("fine"), Value(0.5),
                               Value::Null()})
                  .ok());
  auto db = std::make_shared<Database>();
  db->RegisterTable(w.table);
  DBWipes engine(db);
  const QueryResult result =
      *engine.Query("SELECT g, avg(v) AS a FROM w GROUP BY g");
  ASSERT_EQ(result.num_groups(), 4u);

  const Predicate none = *ParsePredicate("v = NULL");
  const QueryResult kept = *engine.Clean(result, none);
  EXPECT_EQ(kept.lineage, result.lineage);
  ASSERT_EQ(kept.num_groups(), 4u);
  for (size_t g = 0; g < 4; ++g) {
    EXPECT_EQ(kept.AggValue(g, 0), result.AggValue(g, 0)) << g;
  }

  const Predicate non_null = *ParsePredicate("v != NULL");
  const QueryResult emptied = *engine.Clean(result, non_null);
  ASSERT_EQ(emptied.num_groups(), 1u);
  EXPECT_EQ(emptied.GroupKey(0), std::vector<Value>{Value(int64_t{1})});
  EXPECT_EQ(emptied.lineage.offsets, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(emptied.lineage.rows, std::vector<RowId>{null_row});
  EXPECT_TRUE(std::isnan(emptied.AggValue(0, 0)));

  // Re-executing the rewritten query deletes the same rows.
  for (const Predicate* p : {&none, &non_null}) {
    const QueryResult slow =
        *db->Execute(result.query.WithCleaningPredicate(*p));
    EXPECT_EQ(slow.lineage, (p == &none ? kept : emptied).lineage)
        << p->ToString();
  }
}

TEST(DBWipesTest, ExplainValidation) {
  World w = MakeWorld();
  auto db = std::make_shared<Database>();
  db->RegisterTable(w.table);
  DBWipes engine(db);
  ExplanationRequest request;  // no metric
  request.selected_groups = {0};
  EXPECT_TRUE(engine.Explain(w.result, request).status().IsInvalidArgument());
  request.metric = w.metric;
  request.selected_groups = {};
  EXPECT_FALSE(engine.Explain(w.result, request).ok());
}

/// One debug runs the k-means D' cleaning once (inside the Dataset
/// Enumerator), and the explanation exports exactly its output.
TEST(DBWipesTest, DebugCleansDPrimeOnce) {
  World w = MakeWorld();
  auto db = std::make_shared<Database>();
  db->RegisterTable(w.table);
  Session session(db);
  ASSERT_TRUE(
      session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g").ok());
  ASSERT_TRUE(session.SelectResults(w.suspicious_groups).ok());
  // The bad rows plus a few ordinary rows swept in by mistake.
  ASSERT_TRUE(session.SelectInputsWhere("v > 50 OR knob > 1.5").ok());
  ASSERT_TRUE(session.SetMetric(w.metric).ok());

  FaultInjector faults;
  FaultInjector::Fault count_only;
  count_only.skip = 1000;  // never fires; hits are still counted
  faults.Arm("enumerate/clean", count_only);
  ExecContext ctx;
  ctx.faults = &faults;
  auto exp = session.Debug(ctx);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  EXPECT_FALSE(exp->partial);
  EXPECT_EQ(faults.hits("enumerate/clean"), 1u);

  FeatureView view = *FeatureView::Create(
      *w.table, DefaultExplainColumns(*w.table, session.result().query, 0));
  DatasetEnumerator enumerator(ExplainOptions{}.enumerator);
  const std::vector<RowId> cleaned = *enumerator.CleanDPrime(
      *w.table, session.selected_inputs(), exp->preprocess.suspect_inputs,
      exp->preprocess.influences, view);
  ASSERT_FALSE(cleaned.empty());
  EXPECT_EQ(exp->cleaned_dprime, cleaned);
  const std::string json = ExplanationToJson(*exp, /*pretty=*/false);
  EXPECT_NE(json.find("\"num_cleaned_dprime\":" +
                      std::to_string(cleaned.size()) + ","),
            std::string::npos)
      << json.substr(0, 300);
}

/// What two runs of one debug must share: the cleaned D', every
/// candidate, and every ranked predicate's text and score bits.
std::string DebugDigest(const Explanation& exp) {
  std::string out = "cleaned:" + std::to_string(exp.cleaned_dprime.size());
  for (RowId r : exp.cleaned_dprime) out += " " + std::to_string(r);
  for (const CandidateDataset& c : exp.candidates) {
    out += "\ncandidate " + c.source + ":";
    for (RowId r : c.rows) out += " " + std::to_string(r);
  }
  for (const RankedPredicate& p : exp.predicates) {
    uint64_t bits = 0;
    std::memcpy(&bits, &p.score, sizeof bits);
    out += "\npredicate " + p.predicate.ToString() + " " +
           std::to_string(bits) + " " + p.strategy;
  }
  return out;
}

/// Two sessions that debug at once get the answers of serial runs, one
/// whose D' clean keeps every example and one whose clean drops some.
TEST(DBWipesTest, ConcurrentDebugsMatchSerialRuns) {
  World w = MakeWorld();
  auto db = std::make_shared<Database>();
  db->RegisterTable(w.table);
  const std::vector<std::string> inputs = {"v > 50",
                                           "v > 50 OR knob > 1.5"};
  auto debug = [&](const std::string& where) {
    Session session(db);
    DBW_CHECK_OK(
        session.ExecuteSql("SELECT g, avg(v) AS a FROM w GROUP BY g"));
    DBW_CHECK_OK(session.SelectResults(w.suspicious_groups));
    DBW_CHECK_OK(session.SelectInputsWhere(where));
    DBW_CHECK_OK(session.SetMetric(w.metric));
    Result<Explanation> exp = session.Debug();
    return exp.ok() ? DebugDigest(*exp) : exp.status().ToString();
  };
  std::vector<std::string> serial;
  for (const std::string& where : inputs) serial.push_back(debug(where));
  EXPECT_NE(serial[0], serial[1]);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::string> concurrent(inputs.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < inputs.size(); ++i) {
      threads.emplace_back([&, i] { concurrent[i] = debug(inputs[i]); });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(concurrent, serial) << "round " << round;
  }
}

/// D' is read within F: rows of D' outside F change neither the
/// cleaned D', nor a candidate, nor the ranking, with either clean.
TEST(DBWipesTest, DPrimeRowsOutsideFChangeNothing) {
  World w = MakeWorld();
  auto db = std::make_shared<Database>();
  db->RegisterTable(w.table);
  // 15 bad rows and two ordinary rows of F; F is groups 2 and 3.
  std::vector<RowId> within(w.bad_rows.begin(), w.bad_rows.begin() + 15);
  within.push_back(120);
  within.push_back(170);
  // Twelve rows of groups 0 and 1, outside F.
  std::vector<RowId> with_outside = within;
  for (RowId r = 0; r < 6; ++r) {
    with_outside.push_back(r);
    with_outside.push_back(50 + r);
  }
  for (CleanMethod method : {CleanMethod::kKMeans, CleanMethod::kClassifier}) {
    ExplainOptions options;
    options.enumerator.clean_method = method;
    DBWipes engine(db, options);
    ExplanationRequest request;
    request.selected_groups = w.suspicious_groups;
    request.metric = w.metric;
    request.suspicious_inputs = within;
    const Explanation want = *engine.Explain(w.result, request);
    request.suspicious_inputs = with_outside;
    const Explanation got = *engine.Explain(w.result, request);
    EXPECT_FALSE(want.cleaned_dprime.empty());
    EXPECT_EQ(DebugDigest(got), DebugDigest(want))
        << "clean method " << static_cast<int>(method);
  }
}

TEST(DBWipesTest, DefaultExplainColumnsExcludeMeasure) {
  World w = MakeWorld();
  auto cols = DefaultExplainColumns(*w.table, w.result.query, 0);
  EXPECT_EQ(cols, (std::vector<std::string>{"g", "tag", "knob"}));
}

}  // namespace
}  // namespace dbwipes
