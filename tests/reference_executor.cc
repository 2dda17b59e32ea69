#include "reference_executor.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "dbwipes/query/aggregate.h"

namespace dbwipes::reference {

namespace {

struct KeyHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t h = 0x9E3779B97F4A7C15ULL;
    for (const Value& v : key) {
      h ^= v.Hash() + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct KeyEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
};

bool KeyLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
  }
  return a.size() < b.size();
}

}  // namespace

Result<bool> Eval(const BoolExpr& expr, const Table& table, RowId row) {
  switch (expr.kind()) {
    case BoolExpr::Kind::kTrue:
      return true;
    case BoolExpr::Kind::kComparison: {
      const Clause& clause = static_cast<const ComparisonExpr&>(expr).clause();
      DBW_ASSIGN_OR_RETURN(size_t idx,
                           table.schema().GetIndex(clause.attribute));
      return clause.Matches(table.column(idx).GetValue(row));
    }
    case BoolExpr::Kind::kAnd: {
      const auto& e = static_cast<const AndExpr&>(expr);
      DBW_ASSIGN_OR_RETURN(bool l, Eval(*e.left(), table, row));
      if (!l) return false;
      return Eval(*e.right(), table, row);
    }
    case BoolExpr::Kind::kOr: {
      const auto& e = static_cast<const OrExpr&>(expr);
      DBW_ASSIGN_OR_RETURN(bool l, Eval(*e.left(), table, row));
      if (l) return true;
      return Eval(*e.right(), table, row);
    }
    case BoolExpr::Kind::kNot: {
      DBW_ASSIGN_OR_RETURN(
          bool v, Eval(*static_cast<const NotExpr&>(expr).child(), table, row));
      return !v;
    }
  }
  return Status::RuntimeError("unknown filter node");
}

Result<QueryResult> ExecuteQuery(const AggregateQuery& query,
                                 const Table& table,
                                 const ExecOptions& options) {
  DBW_RETURN_NOT_OK(query.Validate(table.schema()));

  // Resolve group-by column indices.
  std::vector<size_t> group_cols;
  group_cols.reserve(query.group_by.size());
  for (const std::string& g : query.group_by) {
    DBW_ASSIGN_OR_RETURN(size_t idx, table.schema().GetIndex(g));
    group_cols.push_back(idx);
  }

  struct GroupState {
    std::vector<Value> key;
    std::vector<AggregatorPtr> aggs;
    std::vector<RowId> lineage;
  };
  std::unordered_map<std::vector<Value>, size_t, KeyHash, KeyEq> group_index;
  std::vector<GroupState> groups;

  const size_t nrows = table.num_rows();
  std::vector<Value> key(group_cols.size());
  for (RowId r = 0; r < nrows; ++r) {
    DBW_ASSIGN_OR_RETURN(bool pass, Eval(*query.where, table, r));
    if (!pass) continue;

    for (size_t i = 0; i < group_cols.size(); ++i) {
      key[i] = table.column(group_cols[i]).GetValue(r);
    }
    auto it = group_index.find(key);
    size_t gi;
    if (it == group_index.end()) {
      gi = groups.size();
      group_index.emplace(key, gi);
      GroupState state;
      state.key = key;
      for (const AggSpec& a : query.aggregates) {
        state.aggs.push_back(MakeAggregator(a.kind));
      }
      groups.push_back(std::move(state));
    } else {
      gi = it->second;
    }
    GroupState& g = groups[gi];

    for (size_t ai = 0; ai < query.aggregates.size(); ++ai) {
      const AggSpec& spec = query.aggregates[ai];
      if (!spec.argument) {
        g.aggs[ai]->Add(0.0);  // count(*)
        continue;
      }
      DBW_ASSIGN_OR_RETURN(Value v, spec.argument->Eval(table, r));
      if (v.is_null()) continue;  // SQL: aggregates skip NULLs
      DBW_ASSIGN_OR_RETURN(double d, v.AsDouble());
      g.aggs[ai]->Add(d);
    }
    if (options.capture_lineage) g.lineage.push_back(r);
  }

  // Deterministic ordering: sort groups by key.
  std::vector<size_t> order(groups.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return KeyLess(groups[a].key, groups[b].key);
  });

  // Build the result table schema: group-by columns, then aggregates.
  std::vector<Field> fields;
  for (size_t i = 0; i < group_cols.size(); ++i) {
    fields.push_back(table.schema().field(group_cols[i]));
  }
  for (const AggSpec& a : query.aggregates) {
    fields.push_back(Field{a.output_name, AggOutputType(a.kind)});
  }

  QueryResult result;
  result.query = query;
  result.rows = std::make_shared<Table>(Schema(std::move(fields)), "result");
  // Lineage in ExecuteQuery's CSR form: each group's rows in key order,
  // and no offsets at all without capture.
  if (options.capture_lineage) result.lineage.offsets.push_back(0);

  std::vector<Value> out_row(group_cols.size() + query.aggregates.size());
  for (size_t oi : order) {
    GroupState& g = groups[oi];
    for (size_t i = 0; i < g.key.size(); ++i) out_row[i] = g.key[i];
    for (size_t ai = 0; ai < g.aggs.size(); ++ai) {
      const double v = g.aggs[ai]->Value();
      const size_t col = group_cols.size() + ai;
      if (std::isnan(v)) {
        out_row[col] = Value::Null();
      } else if (query.aggregates[ai].kind == AggKind::kCount) {
        out_row[col] = Value(static_cast<int64_t>(v));
      } else {
        out_row[col] = Value(v);
      }
    }
    DBW_RETURN_NOT_OK(result.rows->AppendRow(out_row));
    if (options.capture_lineage) {
      result.lineage.rows.insert(result.lineage.rows.end(),
                                 g.lineage.begin(), g.lineage.end());
      result.lineage.offsets.push_back(result.lineage.rows.size());
    }
  }
  return result;
}

}  // namespace dbwipes::reference
