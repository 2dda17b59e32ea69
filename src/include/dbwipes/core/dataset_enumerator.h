#ifndef DBWIPES_CORE_DATASET_ENUMERATOR_H_
#define DBWIPES_CORE_DATASET_ENUMERATOR_H_

#include <string>
#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/common/random.h"
#include "dbwipes/core/preprocessor.h"
#include "dbwipes/learn/feature.h"
#include "dbwipes/learn/subgroup.h"

namespace dbwipes {

/// \brief One candidate D* — a hypothesized set of error-causing
/// input tuples (paper §2.1, sub-problem 1).
struct CandidateDataset {
  /// Sorted base-table RowIds (subset of F).
  std::vector<RowId> rows;
  /// Where the candidate came from ("cleaned-dprime",
  /// "subgroup: <pred>", "top-influence"), for diagnostics.
  std::string source;
  /// eps after removing the candidate (lower is better).
  double error_after_removal = 0.0;
  /// baseline - error_after_removal.
  double error_reduction = 0.0;
};

/// How the user's noisy example set D' is made self-consistent.
enum class CleanMethod { kNone, kKMeans, kClassifier };

struct DatasetEnumeratorOptions {
  CleanMethod clean_method = CleanMethod::kKMeans;
  /// Extend the cleaned D' with subgroup discovery over F.
  bool extend_with_subgroups = true;
  /// Add the top-influence tuple set as its own candidate.
  bool include_top_influence_candidate = true;
  /// Tuples whose influence is above this quantile of F's influence
  /// distribution count as positives for subgroup discovery.
  double influence_quantile = 0.90;
  /// Candidates kept (best error reduction first).
  size_t max_candidates = 6;
  /// Candidates that do not reduce eps at all are discarded.
  bool require_error_reduction = true;
  SubgroupOptions subgroup_options;
  uint64_t seed = 42;
};

/// \brief Second backend stage: clean D' into a self-consistent
/// subset, then extend it into candidate D* datasets guided by the
/// error metric (paper §2.2.2).
class DatasetEnumerator {
 public:
  explicit DatasetEnumerator(DatasetEnumeratorOptions options = {})
      : options_(std::move(options)) {}

  /// `columns` is the snapshot of F, FeatureView::Snapshot of
  /// preprocess.suspect_inputs, and its view defines the attributes
  /// subgroups may describe; `dprime` holds the user's example
  /// suspicious inputs (base-table RowIds, read within F: rows outside
  /// F are dropped; may be empty — then influence alone drives the
  /// search);
  /// `preprocess` supplies F, the influence ranking, and the baseline
  /// error; `metric`/`agg_index` evaluate candidates. `ctx` is checked
  /// between candidates and before every beam level of the subgroup
  /// search, so an expired deadline or tripped token stops the
  /// enumeration with an interrupt Status (fault site
  /// "enumerate/datasets"). When `cleaned_dprime` is non-null it
  /// receives the CleanDPrime output the candidates are built from, as
  /// soon as cleaning finishes (so also on a later interrupt). With a
  /// free ThreadPool worker, the subgroup search runs on it while D' is
  /// cleaned (DESIGN.md §5m); the candidates are the same either way.
  Result<std::vector<CandidateDataset>> Enumerate(
      const Table& table, const QueryResult& result,
      const std::vector<size_t>& selected_groups,
      const PreprocessResult& preprocess, const std::vector<RowId>& dprime,
      const FeatureColumns& columns, const ErrorMetric& metric,
      size_t agg_index = 0, const ExecContext& ctx = ExecContext::None(),
      std::vector<RowId>* cleaned_dprime = nullptr) const;

  /// Enumerate over view.Snapshot(preprocess.suspect_inputs).
  Result<std::vector<CandidateDataset>> Enumerate(
      const Table& table, const QueryResult& result,
      const std::vector<size_t>& selected_groups,
      const PreprocessResult& preprocess, const std::vector<RowId>& dprime,
      const FeatureView& view, const ErrorMetric& metric,
      size_t agg_index = 0, const ExecContext& ctx = ExecContext::None(),
      std::vector<RowId>* cleaned_dprime = nullptr) const;

  /// The D'-cleaning step alone (exposed for tests and ablations):
  /// returns the subset of `dprime` judged self-consistent, over
  /// view.Snapshot(suspect_inputs), which must ascend. D' is read
  /// within F: its rows outside `suspect_inputs` are dropped first.
  /// Fault site "enumerate/clean".
  Result<std::vector<RowId>> CleanDPrime(
      const Table& table, const std::vector<RowId>& dprime,
      const std::vector<RowId>& suspect_inputs,
      const std::vector<TupleInfluence>& influences,
      const FeatureView& view,
      const ExecContext& ctx = ExecContext::None()) const;

 private:
  /// True when CleanDPrime returns D' as it is, without a model.
  bool KeepsDPrimeWhole(size_t num_examples) const;

  /// CleanDPrime of the D' at positions `dprime` (ascending) of
  /// `columns`, the snapshot of `suspects`.
  Result<std::vector<RowId>> CleanDPrime(
      const FeatureColumns& columns, const std::vector<RowId>& suspects,
      const std::vector<uint32_t>& dprime,
      const std::vector<TupleInfluence>& influences,
      const ExecContext& ctx) const;

  DatasetEnumeratorOptions options_;
};

}  // namespace dbwipes

#endif  // DBWIPES_CORE_DATASET_ENUMERATOR_H_
