#include "dbwipes/query/database.h"

#include <algorithm>
#include <chrono>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/expr/parser.h"

namespace dbwipes {

namespace {

/// SQL front-door counters; one increment / observe per statement.
struct SqlMetrics {
  MetricCounter* queries;
  MetricCounter* parse_errors;
  MetricHistogram* execute_ms;
};

const SqlMetrics& Metrics() {
  static const SqlMetrics m = {
      MetricsRegistry::Global().GetCounter("sql.queries"),
      MetricsRegistry::Global().GetCounter("sql.parse_errors"),
      MetricsRegistry::Global().GetHistogram("sql.execute_ms"),
  };
  return m;
}

}  // namespace

void Database::RegisterTable(std::shared_ptr<const Table> table) {
  DBW_CHECK(table != nullptr);
  const std::string name = table->name();
  RegisterTable(name, std::move(table));
}

void Database::RegisterTable(const std::string& name,
                             std::shared_ptr<const Table> table) {
  DBW_CHECK(table != nullptr);
  std::unique_lock<std::shared_mutex> lock(mu_);
  tables_[name] = std::move(table);
  shard_sets_.erase(name);  // a plain table supersedes any shard layout
}

void Database::RegisterShardSet(const std::string& name,
                                std::shared_ptr<ShardSet> set) {
  DBW_CHECK(set != nullptr);
  std::unique_lock<std::shared_mutex> lock(mu_);
  tables_[name] = set->fused();
  shard_sets_[name] = std::move(set);
}

Result<std::shared_ptr<const Table>> Database::GetTable(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second;
}

std::shared_ptr<ShardSet> Database::GetShardSet(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = shard_sets_.find(name);
  return it == shard_sets_.end() ? nullptr : it->second;
}

std::vector<std::string> Database::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> Database::ShardedNames() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(shard_sets_.size());
  for (const auto& [name, set] : shard_sets_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<QueryResult> Database::ExecuteSql(const std::string& sql,
                                         const ExecOptions& options) const {
  Result<AggregateQuery> query = [&]() -> Result<AggregateQuery> {
    DBW_TRACE_SPAN("sql/parse");
    return ParseQuery(sql);
  }();
  if (!query.ok()) {
    Metrics().parse_errors->Increment();
    return query.status();
  }
  return Execute(*query, options);
}

Result<QueryResult> Database::Execute(const AggregateQuery& query,
                                      const ExecOptions& options) const {
  DBW_TRACE_SPAN("sql/execute");
  Metrics().queries->Increment();
  const auto t0 = std::chrono::steady_clock::now();
  DBW_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                       GetTable(query.table_name));
  // A sharded table's fused view grows on Append; the lease keeps the
  // scan on one epoch. (Plain tables are immutable once registered.)
  std::shared_ptr<ShardSet> set = GetShardSet(query.table_name);
  std::shared_lock<std::shared_mutex> lease;
  if (set != nullptr) lease = set->ReadLease();
  Result<QueryResult> r = ExecuteQuery(query, *table, options);
  if (r.ok() && options.capture_lineage) {
    r->source = table;
    r->source_rows = table->num_rows();
  }
  Metrics().execute_ms->Observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return r;
}

}  // namespace dbwipes
