#include "dbwipes/core/session.h"

#include <algorithm>
#include <cmath>

#include "dbwipes/common/trace.h"
#include "dbwipes/expr/bool_expr.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/provenance/lineage.h"

namespace dbwipes {

Status Session::ExecuteSql(const std::string& sql) {
  // Same span as Database::ExecuteSql — the session parses directly.
  Result<AggregateQuery> parsed = [&]() -> Result<AggregateQuery> {
    DBW_TRACE_SPAN("sql/parse");
    return ParseQuery(sql);
  }();
  DBW_ASSIGN_OR_RETURN(AggregateQuery query, std::move(parsed));
  DBW_ASSIGN_OR_RETURN(QueryResult res, engine_.database().Execute(query));
  uncleaned_ = std::make_shared<const QueryResult>(std::move(res));
  applied_predicates_.clear();
  Show(uncleaned_);
  return Status::OK();
}

Status Session::Rebuild(std::vector<Predicate> predicates) {
  std::shared_ptr<const QueryResult> uncleaned = uncleaned_;
  if (!engine_.IsCurrent(*uncleaned)) {
    DBW_ASSIGN_OR_RETURN(QueryResult res,
                         engine_.database().Execute(uncleaned->query));
    uncleaned = std::make_shared<const QueryResult>(std::move(res));
  }
  std::shared_ptr<const QueryResult> result = uncleaned;
  for (const Predicate& p : predicates) {
    DBW_ASSIGN_OR_RETURN(QueryResult cleaned, engine_.Clean(*result, p));
    result = std::make_shared<const QueryResult>(std::move(cleaned));
  }
  uncleaned_ = std::move(uncleaned);
  applied_predicates_ = std::move(predicates);
  Show(std::move(result));
  return Status::OK();
}

void Session::Show(std::shared_ptr<const QueryResult> result) {
  result_ = std::move(result);
  selected_groups_.clear();
  selected_inputs_.clear();
  explanation_.reset();
}

const QueryResult& Session::result() const {
  DBW_CHECK(result_ != nullptr) << "no query executed";
  return *result_;
}

std::string Session::CurrentSql() const {
  return result_ ? result_->query.ToSql() : "";
}

Status Session::SelectResults(const std::vector<size_t>& groups) {
  if (!result_) return Status::InvalidArgument("execute a query first");
  for (size_t g : groups) {
    if (g >= result_->num_groups()) {
      return Status::OutOfRange("group " + std::to_string(g) +
                                " out of range");
    }
  }
  selected_groups_ = groups;
  std::sort(selected_groups_.begin(), selected_groups_.end());
  selected_groups_.erase(
      std::unique(selected_groups_.begin(), selected_groups_.end()),
      selected_groups_.end());
  selected_inputs_.clear();
  explanation_.reset();
  return Status::OK();
}

Status Session::SelectResultsInRange(const std::string& agg_output_name,
                                     double lo, double hi) {
  if (!result_) return Status::InvalidArgument("execute a query first");
  DBW_ASSIGN_OR_RETURN(size_t col,
                       result_->rows->schema().GetIndex(agg_output_name));
  std::vector<size_t> groups;
  for (RowId r = 0; r < result_->rows->num_rows(); ++r) {
    const Column& c = result_->rows->column(col);
    if (c.IsNull(r)) continue;
    const double v = c.AsDouble(r);
    if (v >= lo && v <= hi) groups.push_back(r);
  }
  if (groups.empty()) {
    return Status::NotFound("no result rows with " + agg_output_name +
                            " in [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]");
  }
  return SelectResults(groups);
}

Result<Table> Session::Zoom() const {
  if (!result_) return Status::InvalidArgument("execute a query first");
  if (selected_groups_.empty()) {
    return Status::InvalidArgument("select suspicious results first");
  }
  DBW_ASSIGN_OR_RETURN(std::shared_ptr<const Table> base,
                       engine_.database().GetTable(result_->query.table_name));
  const std::vector<RowId> rows =
      result_->lineage.BackwardUnion(selected_groups_);

  // Result: _rowid column followed by the base schema.
  std::vector<Field> fields;
  fields.push_back(Field{"_rowid", DataType::kInt64});
  for (const Field& f : base->schema().fields()) fields.push_back(f);
  Table out(Schema(std::move(fields)), "zoom");
  for (RowId r : rows) {
    std::vector<Value> row;
    row.reserve(base->num_columns() + 1);
    row.push_back(Value(static_cast<int64_t>(r)));
    for (size_t c = 0; c < base->num_columns(); ++c) {
      row.push_back(base->GetValue(r, c));
    }
    DBW_RETURN_NOT_OK(out.AppendRow(row));
  }
  return out;
}

Status Session::SelectInputs(const std::vector<RowId>& rows) {
  if (!result_) return Status::InvalidArgument("execute a query first");
  if (selected_groups_.empty()) {
    return Status::InvalidArgument("select suspicious results first");
  }
  selected_inputs_ = rows;
  std::sort(selected_inputs_.begin(), selected_inputs_.end());
  selected_inputs_.erase(
      std::unique(selected_inputs_.begin(), selected_inputs_.end()),
      selected_inputs_.end());
  explanation_.reset();
  return Status::OK();
}

Status Session::SelectInputsWhere(const std::string& filter) {
  if (!result_) return Status::InvalidArgument("execute a query first");
  if (selected_groups_.empty()) {
    return Status::InvalidArgument("select suspicious results first");
  }
  DBW_ASSIGN_OR_RETURN(BoolExprPtr expr, ParseFilter(filter));
  DBW_ASSIGN_OR_RETURN(std::shared_ptr<const Table> base,
                       engine_.database().GetTable(result_->query.table_name));
  DBW_RETURN_NOT_OK(expr->Validate(base->schema()));

  const std::vector<RowId> zoomed =
      result_->lineage.BackwardUnion(selected_groups_);
  DBW_ASSIGN_OR_RETURN(Bitmap match,
                       FilterBitmap(*expr, *base, ScanUniverse::Of(zoomed)));
  std::vector<RowId> rows;
  match.ForEachSet([&](size_t i) { rows.push_back(zoomed[i]); });
  if (rows.empty()) {
    return Status::NotFound("no zoomed tuples match: " + filter);
  }
  return SelectInputs(rows);
}

Result<std::vector<MetricSuggestion>> Session::SuggestErrorMetrics(
    size_t agg_index) const {
  if (!result_) return Status::InvalidArgument("execute a query first");
  if (selected_groups_.empty()) {
    return Status::InvalidArgument("select suspicious results first");
  }
  if (agg_index >= result_->query.aggregates.size()) {
    return Status::OutOfRange("agg_index out of range");
  }
  std::vector<double> selected, unselected;
  for (size_t g = 0; g < result_->num_groups(); ++g) {
    const double v = result_->AggValue(g, agg_index);
    if (std::binary_search(selected_groups_.begin(), selected_groups_.end(),
                           g)) {
      selected.push_back(v);
    } else {
      unselected.push_back(v);
    }
  }
  return SuggestMetrics(result_->query.aggregates[agg_index].kind, selected,
                        unselected);
}

Status Session::SetMetric(ErrorMetricPtr metric, size_t agg_index) {
  if (!result_) return Status::InvalidArgument("execute a query first");
  if (metric == nullptr) return Status::InvalidArgument("null metric");
  if (agg_index >= result_->query.aggregates.size()) {
    return Status::OutOfRange("agg_index out of range");
  }
  metric_ = std::move(metric);
  agg_index_ = agg_index;
  explanation_.reset();
  return Status::OK();
}

Result<Explanation> Session::Debug() { return Debug(ExecContext::None()); }

Result<Explanation> Session::Debug(const ExecContext& ctx) {
  DBW_TRACE_SPAN("session/debug");
  if (!result_) return Status::InvalidArgument("execute a query first");
  if (selected_groups_.empty()) {
    return Status::InvalidArgument("select suspicious results first");
  }
  if (!metric_) return Status::InvalidArgument("choose an error metric first");

  ExplanationRequest request;
  request.selected_groups = selected_groups_;
  request.suspicious_inputs = selected_inputs_;
  request.metric = metric_;
  request.agg_index = agg_index_;
  DBW_ASSIGN_OR_RETURN(Explanation exp,
                       engine_.Explain(*result_, request, ctx));
  explanation_ = exp;
  return exp;
}

const Explanation& Session::explanation() const {
  DBW_CHECK(explanation_.has_value()) << "no explanation computed";
  return *explanation_;
}

Status Session::ApplyPredicate(size_t index) {
  if (!explanation_) return Status::InvalidArgument("run Debug() first");
  if (index >= explanation_->predicates.size()) {
    return Status::OutOfRange("predicate index out of range");
  }
  return ApplyPredicateDirect(explanation_->predicates[index].predicate);
}

Status Session::ApplyPredicateDirect(const Predicate& predicate) {
  if (!result_) return Status::InvalidArgument("execute a query first");
  if (predicate.empty()) {
    return Status::InvalidArgument("cannot clean with an empty predicate");
  }
  DBW_ASSIGN_OR_RETURN(QueryResult cleaned, engine_.Clean(*result_, predicate));
  applied_predicates_.push_back(predicate);
  Show(std::make_shared<const QueryResult>(std::move(cleaned)));
  return Status::OK();
}

Status Session::UndoLastPredicate() {
  if (!result_) return Status::InvalidArgument("no query to undo");
  if (applied_predicates_.empty()) {
    return Status::InvalidArgument("no cleaning predicate to undo");
  }
  return Rebuild(std::vector<Predicate>(applied_predicates_.begin(),
                                        applied_predicates_.end() - 1));
}

Status Session::ResetCleaning() {
  if (!result_) return Status::InvalidArgument("no query to reset");
  return Rebuild({});
}

Result<std::string> Session::DescribePlan() const {
  if (!result_) return Status::InvalidArgument("execute a query first");
  return DescribeQueryPlan(result_->query).ToString();
}

}  // namespace dbwipes
