#include "dbwipes/core/dataset_enumerator.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/parallel.h"
#include "dbwipes/common/telemetry.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/core/removal_scorer.h"
#include "dbwipes/learn/kmeans.h"
#include "dbwipes/learn/naive_bayes.h"

namespace dbwipes {

namespace {

std::vector<RowId> SortedUnique(std::vector<RowId> rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

/// rows[i] for each of `positions`, in their order.
std::vector<RowId> RowsAt(const std::vector<RowId>& rows,
                          const std::vector<uint32_t>& positions) {
  std::vector<RowId> out;
  out.reserve(positions.size());
  for (uint32_t i : positions) out.push_back(rows[i]);
  return out;
}

std::vector<RowId> UnionOf(const std::vector<RowId>& a,
                           const std::vector<RowId>& b) {
  std::vector<RowId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace

bool DatasetEnumerator::KeepsDPrimeWhole(size_t num_examples) const {
  // Too few examples to judge consistency; trust the user.
  return num_examples < 4 || options_.clean_method == CleanMethod::kNone;
}

Result<std::vector<RowId>> DatasetEnumerator::CleanDPrime(
    const Table& /*table*/, const std::vector<RowId>& dprime,
    const std::vector<RowId>& suspect_inputs,
    const std::vector<TupleInfluence>& influences,
    const FeatureView& view, const ExecContext& ctx) const {
  return CleanDPrime(view.Snapshot(suspect_inputs), suspect_inputs,
                     PositionsIn(suspect_inputs, SortedUnique(dprime)),
                     influences, ctx);
}

Result<std::vector<RowId>> DatasetEnumerator::CleanDPrime(
    const FeatureColumns& columns, const std::vector<RowId>& suspects,
    const std::vector<uint32_t>& dprime,
    const std::vector<TupleInfluence>& influences,
    const ExecContext& ctx) const {
  DBW_FAULT(ctx, "enumerate/clean");
  DBW_TRACE_SPAN("enumerate/clean");
  DBW_RETURN_NOT_OK(ctx.CheckContinue());
  const std::vector<RowId> sorted = RowsAt(suspects, dprime);
  if (KeepsDPrimeWhole(sorted.size())) return sorted;

  if (options_.clean_method == CleanMethod::kKMeans) {
    DenseMatrix matrix;
    std::vector<size_t> numeric_features;
    columns.NumericMatrix(dprime, &matrix, &numeric_features);
    if (numeric_features.empty()) return sorted;

    Rng rng(options_.seed);
    Result<KMeansResult> clustered = [&] {
      DBW_TRACE_SPAN("enumerate/kmeans");
      return KMeansAuto(matrix, /*max_k=*/3, &rng);
    }();
    DBW_ASSIGN_OR_RETURN(KMeansResult clusters, std::move(clustered));
    const size_t k =
        1 + static_cast<size_t>(*std::max_element(
                clusters.assignment.begin(), clusters.assignment.end()));
    if (k <= 1) return sorted;  // D' already looks homogeneous

    // Each D' member's influence, by its position in D' (0 for a row
    // without one), for majority-cluster selection.
    std::vector<double> influence(sorted.size(), 0.0);
    for (const TupleInfluence& ti : influences) {
      auto at = std::lower_bound(sorted.begin(), sorted.end(), ti.row);
      if (at != sorted.end() && *at == ti.row) {
        influence[at - sorted.begin()] = ti.influence;
      }
    }
    // Drop only clusters that look like selection mistakes: much lower
    // mean influence than the best cluster AND small. A heterogeneous
    // but genuine D' (e.g. two failing motes) keeps all its modes.
    std::vector<double> mean_influence(k, 0.0);
    std::vector<size_t> sizes(k, 0);
    for (size_t i = 0; i < sorted.size(); ++i) {
      const int c = clusters.assignment[i];
      ++sizes[c];
      mean_influence[c] += influence[i];
    }
    double best_mean = 0.0;
    for (size_t c = 0; c < k; ++c) {
      if (sizes[c] > 0) {
        mean_influence[c] /= static_cast<double>(sizes[c]);
        best_mean = std::max(best_mean, mean_influence[c]);
      }
    }
    std::vector<bool> keep_cluster(k, true);
    for (size_t c = 0; c < k; ++c) {
      const bool low_influence =
          best_mean > 0.0 && mean_influence[c] < 0.25 * best_mean;
      const bool small =
          sizes[c] * 5 < sorted.size();  // under 20% of D'
      keep_cluster[c] = !(low_influence && small);
    }
    std::vector<RowId> kept;
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (keep_cluster[clusters.assignment[i]]) kept.push_back(sorted[i]);
    }
    // Never throw away the whole selection.
    return kept.empty() ? sorted : kept;
  }

  // Classifier-based cleaning: train D' (=1) against the rest of F
  // (=0) and drop D' members the model finds unlikely to be positive.
  if (dprime.size() == suspects.size()) return sorted;  // no negative
  std::vector<int> labels(suspects.size(), 0);
  for (uint32_t i : dprime) labels[i] = 1;
  auto model = NaiveBayes::Fit(columns, labels);
  if (!model.ok()) return sorted;
  std::vector<RowId> kept;
  for (size_t j = 0; j < dprime.size(); ++j) {
    if (model->PredictProba(columns, dprime[j]) >= 0.4) {
      kept.push_back(sorted[j]);
    }
  }
  return kept.empty() ? sorted : kept;
}

Result<std::vector<CandidateDataset>> DatasetEnumerator::Enumerate(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups,
    const PreprocessResult& preprocess, const std::vector<RowId>& dprime,
    const FeatureView& view, const ErrorMetric& metric,
    size_t agg_index, const ExecContext& ctx,
    std::vector<RowId>* cleaned_dprime) const {
  return Enumerate(table, result, selected_groups, preprocess, dprime,
                   view.Snapshot(preprocess.suspect_inputs), metric, agg_index,
                   ctx, cleaned_dprime);
}

Result<std::vector<CandidateDataset>> DatasetEnumerator::Enumerate(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups,
    const PreprocessResult& preprocess, const std::vector<RowId>& dprime,
    const FeatureColumns& columns, const ErrorMetric& metric,
    size_t agg_index, const ExecContext& ctx,
    std::vector<RowId>* cleaned_dprime) const {
  DBW_FAULT(ctx, "enumerate/datasets");
  DBW_TRACE_SPAN("enumerate/datasets");
  const std::vector<RowId>& suspects = preprocess.suspect_inputs;
  if (suspects.empty()) {
    return Status::InvalidArgument(
        "selection has no lineage tuples to explain");
  }
  if (columns.num_rows() != suspects.size()) {
    return Status::InvalidArgument("snapshot/suspects size mismatch");
  }

  const std::vector<RowId> top_influence =
      TopInfluenceRows(preprocess, options_.influence_quantile);
  // Discovery's labels over F: 1 for the cleaned D' and the
  // top-influence rows. Discovery runs only on labels of both values.
  auto discovery_labels = [&](const std::vector<RowId>& cleaned,
                              std::vector<int>* labels) {
    labels->assign(suspects.size(), 0);
    for (const std::vector<RowId>* rows : {&cleaned, &top_influence}) {
      for (uint32_t i : PositionsIn(suspects, *rows)) (*labels)[i] = 1;
    }
    const size_t num_pos = static_cast<size_t>(
        std::count(labels->begin(), labels->end(), 1));
    return num_pos > 0 && num_pos < suspects.size();
  };

  // Discovery on the labels of `cleaned`; empty when those have one
  // value only.
  auto discover = [&](const std::vector<RowId>& cleaned,
                      const ExecContext& search_ctx)
      -> std::optional<Result<std::vector<Subgroup>>> {
    std::vector<int> labels;
    if (!discovery_labels(cleaned, &labels)) return std::nullopt;
    DBW_TRACE_SPAN("enumerate/subgroups");
    return DiscoverSubgroups(columns, labels, /*init_weights=*/{},
                             options_.subgroup_options, search_ctx);
  };

  // 1. Clean D', read within F: its rows outside F are dropped. When
  //    the clean runs a model, discovery runs beside it on a pool
  //    worker, on the labels the clean gives if it keeps all of D'.
  //    That guess stands when it does; otherwise a token stops the
  //    search at its next beam level while this thread discovers on
  //    the cleaned labels. With no free pool worker both steps run
  //    here, clean first (DESIGN.md §5m).
  const std::vector<uint32_t> dprime_positions =
      PositionsIn(suspects, SortedUnique(dprime));
  const std::vector<RowId> sorted_dprime =
      RowsAt(suspects, dprime_positions);
  std::optional<Result<std::vector<RowId>>> clean;
  std::optional<Result<std::vector<Subgroup>>> found;
  bool discovered = false;
  if (options_.extend_with_subgroups &&
      !KeepsDPrimeWhole(sorted_dprime.size())) {
    CancellationSource stop;
    ExecContext search_ctx;
    search_ctx.token = stop.token();
    search_ctx.deadline = ctx.deadline;
    const uint64_t rid = CurrentRequestId();
    std::optional<Result<std::vector<Subgroup>>> guess;
    bool guess_hit = false;
    discovered = ThreadPool::Global().TryRunBeside(
        [&] {
          RequestScope scope(rid);
          guess = discover(sorted_dprime, search_ctx);
        },
        [&] {
          clean = CleanDPrime(columns, suspects, dprime_positions,
                              preprocess.influences, ctx);
          guess_hit = clean->ok() && **clean == sorted_dprime;
          if (!guess_hit || ctx.StopRequested()) {
            stop.Cancel("the search on the guess is not needed");
          }
          // A miss: rediscover while the search stops.
          if (!guess_hit && clean->ok() && !ctx.StopRequested()) {
            found = discover(**clean, ctx);
          }
        });
    if (discovered) {
      static MetricCounter* const hits =
          MetricsRegistry::Global().GetCounter("enumerate.guess_hits");
      static MetricCounter* const misses =
          MetricsRegistry::Global().GetCounter("enumerate.guess_misses");
      (guess_hit ? hits : misses)->Increment();
      if (guess_hit) found = std::move(guess);
    }
  }
  if (!clean) {
    clean = CleanDPrime(columns, suspects, dprime_positions,
                        preprocess.influences, ctx);
  }
  DBW_ASSIGN_OR_RETURN(std::vector<RowId> cleaned, std::move(*clean));
  if (cleaned_dprime != nullptr) *cleaned_dprime = cleaned;

  // Raw candidate row sets before scoring.
  struct RawCandidate {
    std::vector<RowId> rows;
    std::string source;
  };
  std::vector<RawCandidate> raw;
  if (!cleaned.empty()) {
    raw.push_back({cleaned, "cleaned-dprime"});
  }
  if (options_.include_top_influence_candidate && !top_influence.empty()) {
    raw.push_back({top_influence, "top-influence"});
  }

  // 2. Extend via subgroup discovery over F, on the cleaned D' plus the
  //    top-influence rows. Discovery is the expensive step, so it is
  //    skipped entirely once a stop is requested (the cheap candidates
  //    above still get scored).
  DBW_RETURN_NOT_OK(ctx.CheckContinue());
  if (options_.extend_with_subgroups && !discovered) {
    found = discover(cleaned, ctx);
  }
  if (found && found->status().IsInterrupt()) return found->status();
  const std::vector<Subgroup> subgroups =
      found && found->ok() ? std::move(**found) : std::vector<Subgroup>{};
  for (const Subgroup& sg : subgroups) {
    std::vector<RowId> rows;
    rows.reserve(sg.covered.size());
    for (size_t idx : sg.covered) rows.push_back(suspects[idx]);
    rows = UnionOf(SortedUnique(std::move(rows)), cleaned);
    raw.push_back({std::move(rows), "subgroup: " + sg.predicate.ToString()});
  }

  if (raw.empty()) {
    return Status::InvalidArgument(
        "no candidate datasets: D' is empty and no tuple has positive "
        "influence");
  }

  // 3. Score by error reduction; epsilon controls the extension
  //    (candidates that do not reduce the error are dropped). The
  //    scorer snapshots the selected groups' aggregator state once;
  //    each candidate then costs Remove() deltas instead of a full
  //    lineage rebuild.
  DBW_ASSIGN_OR_RETURN(RemovalScorer scorer,
                       RemovalScorer::Create(table, result, selected_groups,
                                             agg_index, suspects, ctx));
  // A row list met before is skipped, whether or not it was kept.
  std::vector<bool> repeated(raw.size(), false);
  for (size_t i = 0; i < raw.size(); ++i) {
    for (size_t j = 0; j < i && !repeated[i]; ++j) {
      repeated[i] = raw[j].rows == raw[i].rows;
    }
  }
  std::vector<CandidateDataset> out;
  for (size_t i = 0; i < raw.size(); ++i) {
    DBW_RETURN_NOT_OK(ctx.CheckContinue());
    RawCandidate& rc = raw[i];
    if (rc.rows.empty() || repeated[i]) continue;

    // Score against the per-group mean error (smooth in partial
    // progress; see PerGroupError).
    const double err_after = scorer.ErrorsAfterRows(metric, rc.rows).per_group;
    CandidateDataset cd;
    cd.rows = std::move(rc.rows);
    cd.source = std::move(rc.source);
    cd.error_after_removal = err_after;
    cd.error_reduction = preprocess.per_group_baseline_error - err_after;
    if (options_.require_error_reduction && cd.error_reduction <= 0.0) {
      continue;
    }
    out.push_back(std::move(cd));
  }

  std::sort(out.begin(), out.end(),
            [](const CandidateDataset& a, const CandidateDataset& b) {
              return a.error_reduction > b.error_reduction;
            });
  if (out.size() > options_.max_candidates) {
    out.resize(options_.max_candidates);
  }
  if (out.empty()) {
    return Status::NotFound(
        "no candidate dataset reduces the error metric; try a different "
        "metric or selection");
  }
  static MetricCounter* const emitted =
      MetricsRegistry::Global().GetCounter("enumerate.datasets");
  emitted->Increment(out.size());
  return out;
}

}  // namespace dbwipes
