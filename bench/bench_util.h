#ifndef DBWIPES_BENCH_BENCH_UTIL_H_
#define DBWIPES_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "dbwipes/common/parallel.h"
#include "dbwipes/core/dbwipes.h"
#include "dbwipes/core/evaluation.h"
#include "dbwipes/core/session.h"
#include "dbwipes/datagen/labeled_dataset.h"

namespace dbwipes {
namespace bench {

/// Declarative description of one demo scenario: the query, how the
/// "user" brushes S and D', and which aggregate the metric reads.
struct Scenario {
  std::string sql;
  /// Select result groups whose aggregate `select_agg` lies in
  /// [select_lo, select_hi].
  std::string select_agg;
  double select_lo = 0.0;
  double select_hi = 0.0;
  /// Optional D' filter over the zoomed tuples ("" = no D').
  std::string dprime_filter;
  /// Error metric and the aggregate it applies to.
  ErrorMetricPtr metric;
  size_t agg_index = 0;
};

struct ScenarioOutcome {
  bool ok = false;
  std::string error;
  Explanation explanation;
  /// Quality of the top-ranked predicate vs ground truth (whole table).
  ExplanationQuality top1;
  /// Best quality among the top-5 predicates.
  ExplanationQuality best5;
  double total_ms = 0.0;
  size_t num_suspect_inputs = 0;
  std::string top1_text;
};

/// What ThreadPool::Global() did per run over some timed runs: the
/// growth of its counters (ThreadPool::StatsSnapshot) divided by the
/// number of runs.
struct PoolUse {
  double regions = 0.0;
  double chunks = 0.0;
  /// Wall time inside chunk bodies, summed over the threads.
  double busy_ms = 0.0;

  double mean_chunk_ms() const { return chunks > 0 ? busy_ms / chunks : 0.0; }
};

/// Calls `fn`, which makes `runs` timed runs, and returns the pool's
/// work per run.
template <typename Fn>
PoolUse PoolUsePerRun(int runs, const Fn& fn) {
  const ThreadPool::StatsSnapshot before = ThreadPool::Global().stats();
  fn();
  const ThreadPool::StatsSnapshot after = ThreadPool::Global().stats();
  const double n = static_cast<double>(runs);
  return {static_cast<double>(after.regions - before.regions) / n,
          static_cast<double>(after.chunks - before.chunks) / n,
          (after.busy_ms - before.busy_ms) / n};
}

/// One report line for a parallel run of median wall time `wall_ms`.
inline void PrintPoolUse(const PoolUse& use, double wall_ms) {
  std::printf(
      "thread pool per parallel run (%zu workers + caller): %.1f regions, "
      "%.1f chunks, %.2f ms busy in chunks (mean chunk %.3f ms) in %.2f ms "
      "wall\n",
      ThreadPool::Global().num_threads(), use.regions, use.chunks, use.busy_ms,
      use.mean_chunk_ms(), wall_ms);
}

/// The same as a JSON object, for the BENCH files.
inline std::string PoolJson(const PoolUse& use, double wall_ms) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"workers\": %zu, \"regions_per_run\": %.1f, "
                "\"chunks_per_run\": %.1f, \"busy_ms_per_run\": %.3f, "
                "\"mean_chunk_ms\": %.4f, \"wall_ms\": %.3f}",
                ThreadPool::Global().num_threads(), use.regions, use.chunks,
                use.busy_ms, use.mean_chunk_ms(), wall_ms);
  return buf;
}

/// Runs a full frontend/backend loop on a labeled dataset and scores
/// the result against the generator's ground truth.
inline ScenarioOutcome RunScenario(const LabeledDataset& data,
                                   const Scenario& scenario,
                                   const ExplainOptions& options = {}) {
  ScenarioOutcome out;
  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);
  Session session(db, options);

  auto fail = [&out](const Status& s) {
    out.ok = false;
    out.error = s.ToString();
    return out;
  };
  Status st = session.ExecuteSql(scenario.sql);
  if (!st.ok()) return fail(st);
  st = session.SelectResultsInRange(scenario.select_agg, scenario.select_lo,
                                    scenario.select_hi);
  if (!st.ok()) return fail(st);
  if (!scenario.dprime_filter.empty()) {
    st = session.SelectInputsWhere(scenario.dprime_filter);
    if (!st.ok()) return fail(st);
  }
  st = session.SetMetric(scenario.metric, scenario.agg_index);
  if (!st.ok()) return fail(st);

  const auto t0 = std::chrono::steady_clock::now();
  auto exp = session.Debug();
  out.total_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  if (!exp.ok()) return fail(exp.status());
  out.explanation = *exp;
  out.num_suspect_inputs = exp->preprocess.suspect_inputs.size();

  const std::vector<RowId> truth = data.AllAnomalousRows();
  if (!exp->predicates.empty()) {
    out.top1_text = exp->predicates[0].predicate.ToString();
    auto q = ScorePredicate(*data.table, exp->predicates[0].predicate, truth);
    if (q.ok()) out.top1 = *q;
    for (size_t i = 0; i < std::min<size_t>(5, exp->predicates.size()); ++i) {
      auto qi =
          ScorePredicate(*data.table, exp->predicates[i].predicate, truth);
      if (qi.ok() && qi->f1 > out.best5.f1) out.best5 = *qi;
    }
  }
  out.ok = true;
  return out;
}

/// Minimal fixed-width table printer for the report sections.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : widths_(headers.size()) {
    rows_.push_back(std::move(headers));
  }

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() {
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths_.size(); ++c) {
        widths_[c] = std::max(widths_[c], row[c].size());
      }
    }
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::string line;
      for (size_t c = 0; c < rows_[i].size(); ++c) {
        if (c > 0) line += "  ";
        line += rows_[i][c];
        line += std::string(widths_[c] - rows_[i][c].size(), ' ');
      }
      std::printf("%s\n", line.c_str());
      if (i == 0) {
        size_t total = 0;
        for (size_t c = 0; c < widths_.size(); ++c) {
          total += widths_[c] + (c > 0 ? 2 : 0);
        }
        std::printf("%s\n", std::string(total, '-').c_str());
      }
    }
  }

 private:
  std::vector<std::vector<std::string>> rows_;
  std::vector<size_t> widths_;
};

inline std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace bench
}  // namespace dbwipes

#endif  // DBWIPES_BENCH_BENCH_UTIL_H_
