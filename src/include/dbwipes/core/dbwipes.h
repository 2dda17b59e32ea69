#ifndef DBWIPES_CORE_DBWIPES_H_
#define DBWIPES_CORE_DBWIPES_H_

#include <memory>
#include <string>
#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/core/dataset_enumerator.h"
#include "dbwipes/core/merger.h"
#include "dbwipes/core/predicate_enumerator.h"
#include "dbwipes/core/predicate_ranker.h"
#include "dbwipes/core/profile.h"
#include "dbwipes/query/database.h"

namespace dbwipes {

/// \brief One ranked-provenance request: everything the frontend
/// collects before clicking "debug!" (paper Figure 1, top row).
struct ExplanationRequest {
  /// S: indices of suspicious result rows.
  std::vector<size_t> selected_groups;
  /// D': example suspicious input tuples (base-table RowIds), read
  /// within F: rows outside F are dropped. May be empty; the influence
  /// ranking then drives the search alone.
  std::vector<RowId> suspicious_inputs;
  /// eps.
  ErrorMetricPtr metric;
  /// Which aggregate of the query the metric reads (0-based).
  size_t agg_index = 0;
  /// Attributes predicates may mention; empty = every table column
  /// except the aggregate's own input column(s).
  std::vector<std::string> explain_columns;
};

struct ExplainOptions {
  DatasetEnumeratorOptions enumerator;
  PredicateEnumeratorOptions predicates =
      PredicateEnumeratorOptions::Defaults();
  RankerOptions ranker;
  /// Influence mode (see InfluenceOptions::per_group).
  bool per_group_influence = true;
  /// Scorpion-style post-pass: try to merge top predicates into more
  /// general descriptions and keep merges that score as well.
  bool merge_predicates = true;
  MergerOptions merger;
};

/// \brief Full output of the backend pipeline.
struct Explanation {
  /// Ranked predicates, best first (Figure 6's list).
  std::vector<RankedPredicate> predicates;
  /// Anytime outcome: true when the run was wound down early by a
  /// deadline or cancellation. The predicates are then the best
  /// ranking over a deterministic prefix of the candidate list
  /// (possibly empty when the stop landed before the ranking stage) —
  /// degraded, never wrong.
  bool partial = false;
  /// Why the run stopped early ("" when complete).
  std::string partial_reason;
  /// Candidate predicates the ranker considered / was given. Equal
  /// when the ranking stage ran to completion.
  size_t ranked_considered = 0;
  size_t total_enumerated = 0;
  /// Stage artifacts for inspection/ablation.
  PreprocessResult preprocess;
  std::vector<CandidateDataset> candidates;
  std::vector<RowId> cleaned_dprime;
  /// Wall-clock milliseconds per backend stage, each taken as its stage
  /// returns, interrupted or not.
  double preprocess_ms = 0.0;
  double enumerate_ms = 0.0;
  double predicates_ms = 0.0;
  double rank_ms = 0.0;

  /// Telemetry summary (always collected; see profile.h). The stage
  /// clocks above are mirrored into it together with the wall total,
  /// work counts, MatchEngine cache behavior, pool utilization, and
  /// anytime events.
  ExplainProfile profile;
};

/// \brief The DBWipes backend facade: run aggregate queries, explain
/// suspicious results as ranked predicates, clean by deleting a
/// predicate's matches from a result's captured lineage.
class DBWipes {
 public:
  explicit DBWipes(std::shared_ptr<Database> db, ExplainOptions options = {})
      : db_(std::move(db)), options_(std::move(options)) {}

  const Database& database() const { return *db_; }

  /// Parses and executes SQL with lineage capture.
  Result<QueryResult> Query(const std::string& sql) const {
    return db_->ExecuteSql(sql);
  }

  /// Runs the four backend stages (Preprocessor, Dataset Enumerator,
  /// Predicate Enumerator, Predicate Ranker) on a query result.
  ///
  /// `ctx` makes the run anytime: on cancellation or deadline expiry
  /// the pipeline stops cooperatively and returns a *partial*
  /// Explanation (partial=true + reason) holding whatever completed
  /// deterministically, instead of an error. Real failures
  /// (bad requests, injected faults) still surface as error Status.
  Result<Explanation> Explain(
      const QueryResult& result, const ExplanationRequest& request,
      const ExecContext& ctx = ExecContext::None()) const;

  /// The cleaning interaction: `result.query` with `AND NOT predicate`
  /// appended to its filter. When `result` is current and `predicate`
  /// is not empty, the matches are deleted from the captured lineage
  /// (IncrementalClean, traced as `sql/clean`); otherwise the rewritten
  /// query is re-executed (`sql/execute`). Both give the same bytes.
  /// The check and the deletion share one shard read lease.
  Result<QueryResult> Clean(const QueryResult& result,
                            const Predicate& predicate) const;

  /// True when `result`'s version stamp matches the catalog: the table
  /// now registered under its query's name is the object it read, and
  /// no row has been appended since. A current result's lineage
  /// describes the table exactly; a stale one needs re-execution.
  bool IsCurrent(const QueryResult& result) const;

 private:
  std::shared_ptr<Database> db_;
  ExplainOptions options_;
};

/// Default explanation attributes for a query: every table column
/// except the columns the scored aggregate reads (predicates over the
/// measure itself are usually the user's intent only when they list
/// the column explicitly).
std::vector<std::string> DefaultExplainColumns(const Table& table,
                                               const AggregateQuery& query,
                                               size_t agg_index);

}  // namespace dbwipes

#endif  // DBWIPES_CORE_DBWIPES_H_
