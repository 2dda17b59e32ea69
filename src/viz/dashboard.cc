#include "dbwipes/viz/dashboard.h"

#include <algorithm>
#include <iterator>
#include <span>

#include "dbwipes/common/string_util.h"

namespace dbwipes {

std::string Dashboard::RenderQueryForm() const {
  std::string out = "=== Query ===\n";
  const std::string sql = session_->CurrentSql();
  out += (sql.empty() ? "(no query)" : sql) + "\n";
  if (!session_->applied_predicates().empty()) {
    out += "cleaning predicates applied:\n";
    for (const Predicate& p : session_->applied_predicates()) {
      out += "  - NOT (" + p.ToString() + ")\n";
    }
  }
  return out;
}

Result<std::string> Dashboard::RenderVisualization(const std::string& y_column,
                                                   size_t width,
                                                   size_t height) const {
  if (!session_->has_result()) {
    return std::string("=== Visualization ===\n(no result)\n");
  }
  const QueryResult& result = session_->result();
  std::string y = y_column;
  if (y.empty()) {
    if (result.query.aggregates.empty()) {
      return Status::InvalidArgument("query has no aggregates to plot");
    }
    y = result.query.aggregates[0].output_name;
  }
  DBW_ASSIGN_OR_RETURN(ScatterPlot plot, ScatterPlot::FromResult(result, y));
  for (size_t g : session_->selected_groups()) {
    // Re-mark the session's selection on the fresh plot.
    plot.Brush(plot.points()[g].x, plot.points()[g].x, plot.points()[g].y,
               plot.points()[g].y);
  }
  return "=== Visualization ===\n" + plot.Render(width, height);
}

Result<std::string> Dashboard::RenderErrorForms(size_t agg_index) const {
  DBW_ASSIGN_OR_RETURN(std::vector<MetricSuggestion> suggestions,
                       session_->SuggestErrorMetrics(agg_index));
  std::string out = "=== Error metric ===\n";
  for (size_t i = 0; i < suggestions.size(); ++i) {
    out += "  [" + std::to_string(i) + "] " + suggestions[i].label +
           " (default expected: " +
           FormatDouble(suggestions[i].default_expected, 4) + ")\n";
  }
  return out;
}

std::string Dashboard::RenderRankedPredicates() const {
  std::string out = "=== Ranked predicates ===\n";
  if (!session_->has_explanation()) {
    out += "(click debug! first)\n";
    return out;
  }
  const Explanation& exp = session_->explanation();
  if (exp.predicates.empty()) {
    out += "(no predicates found)\n";
    return out;
  }
  for (size_t i = 0; i < exp.predicates.size(); ++i) {
    const RankedPredicate& rp = exp.predicates[i];
    out += "  [" + std::to_string(i) + "] " + rp.predicate.ToString() + "\n";
    out += "       score=" + FormatDouble(rp.score, 3) +
           "  err_improvement=" + FormatDouble(rp.error_improvement, 3) +
           "  f1(D')=" + FormatDouble(rp.f1, 3) + "  matches " +
           std::to_string(rp.matched_in_suspects) + " suspect tuples\n";
  }
  return out;
}

std::string Dashboard::RenderProfile(size_t width) const {
  std::string out = "=== Profile ===\n";
  if (!session_->has_explanation()) {
    out += "(click debug! first)\n";
    return out;
  }
  const ExplainProfile& p = session_->explanation().profile;
  if (width == 0) width = 1;

  // One bar per stage clock; the wall total, listed last, gets a line
  // of its own.
  const std::span<const StageClock> stages =
      std::span(kStageClocks).first(std::size(kStageClocks) - 1);
  double max_ms = 0.0;
  for (const StageClock& s : stages) max_ms = std::max(max_ms, p.*s.ms);

  for (const StageClock& s : stages) {
    const double ms = p.*s.ms;
    const size_t bar =
        max_ms > 0.0
            ? static_cast<size_t>(ms / max_ms * static_cast<double>(width))
            : 0;
    std::string line = "  ";
    line += s.name;
    line.resize(14, ' ');
    line += std::string(bar, '#');
    line += " " + FormatDouble(ms, 2) + " ms\n";
    out += line;
  }
  out += "  total        " + FormatDouble(p.total_ms, 2) + " ms\n";

  if (!p.simd_tier.empty()) {
    out += "  match cache: " + std::to_string(p.cache_hits) + " hits / " +
           std::to_string(p.cache_misses) + " misses (" +
           std::to_string(p.bitmaps_materialized) + " bitmaps)\n";
  }
  out += "  pool: " + std::to_string(p.pool_threads) + " threads, " +
         std::to_string(p.pool_chunks) + " chunks, utilization " +
         FormatDouble(p.pool_utilization * 100.0, 1) + "%\n";
  if (p.partial) {
    out += "  PARTIAL: " + p.partial_reason + " (" +
           std::to_string(p.scoring_blocks_done) + "/" +
           std::to_string(p.scoring_blocks_total) + " scoring blocks)\n";
  }
  return out;
}

Result<std::string> Dashboard::RenderAll() const {
  std::string out = RenderQueryForm();
  DBW_ASSIGN_OR_RETURN(std::string viz, RenderVisualization());
  out += viz;
  if (session_->has_result() && !session_->selected_groups().empty()) {
    DBW_ASSIGN_OR_RETURN(std::string forms, RenderErrorForms());
    out += forms;
  }
  out += RenderRankedPredicates();
  if (session_->has_explanation()) out += RenderProfile();
  return out;
}

}  // namespace dbwipes
