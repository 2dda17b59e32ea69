#ifndef DBWIPES_QUERY_DATABASE_H_
#define DBWIPES_QUERY_DATABASE_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbwipes/query/executor.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {

/// \brief Named-table catalog plus a SQL entry point.
///
/// The role PostgreSQL plays in the paper's deployment: hold the
/// imported datasets and execute the dashboard's aggregate queries.
///
/// A table may additionally be *sharded*: RegisterShardSet binds the
/// name to a ShardSet whose fused view doubles as the catalog entry,
/// so plain SQL keeps working while shard-aware consumers (the explain
/// pipeline, the service's append path) fetch the set and take its
/// read lease. The catalog itself is guarded by an internal lock —
/// the service mutates it (shard/append commands) while sessions read
/// it concurrently.
class Database {
 public:
  /// Registers (or replaces) a table under its own name.
  void RegisterTable(std::shared_ptr<const Table> table);
  /// Registers under an explicit name.
  void RegisterTable(const std::string& name,
                     std::shared_ptr<const Table> table);

  /// Binds `name` to a shard set; the set's fused view becomes the
  /// catalog's table for the name (replacing any plain table).
  void RegisterShardSet(const std::string& name,
                        std::shared_ptr<ShardSet> set);

  Result<std::shared_ptr<const Table>> GetTable(const std::string& name) const;
  /// The shard set bound to `name`, or nullptr when the name is
  /// unsharded or unknown.
  std::shared_ptr<ShardSet> GetShardSet(const std::string& name) const;
  std::vector<std::string> TableNames() const;
  /// Names currently bound to shard sets, sorted.
  std::vector<std::string> ShardedNames() const;

  /// Parses and runs a SQL aggregate query against the catalog.
  Result<QueryResult> ExecuteSql(const std::string& sql,
                                 const ExecOptions& options = {}) const;

  /// Runs an already-parsed query. When the target is sharded, the
  /// whole execution runs under the set's read lease so a concurrent
  /// Append cannot grow the fused view mid-scan. A result with lineage
  /// carries the version stamp of the table it read.
  Result<QueryResult> Execute(const AggregateQuery& query,
                              const ExecOptions& options = {}) const;

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Table>> tables_;
  std::unordered_map<std::string, std::shared_ptr<ShardSet>> shard_sets_;
};

}  // namespace dbwipes

#endif  // DBWIPES_QUERY_DATABASE_H_
