#ifndef DBWIPES_STORAGE_SHARD_H_
#define DBWIPES_STORAGE_SHARD_H_

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "dbwipes/common/result.h"
#include "dbwipes/storage/table.h"

namespace dbwipes {

/// \brief A horizontally-partitioned table: S physical shard Tables
/// plus a fused global view, under one reader/writer lock.
///
/// Each shard owns a contiguous global RowId range and is a full
/// columnar Table with its OWN string dictionaries (codes are assigned
/// by first appearance within the shard, so a shard's dictionary is a
/// deterministic function of the fused content and the boundaries —
/// re-partitioning the same rows at the same boundaries reproduces
/// every code byte for byte). The fused view keeps every global-RowId
/// consumer (executor lineage, preprocessing) working unchanged;
/// shard-local consumers (per-shard MatchEngines, the ranker's
/// per-slice FilterBitmap fallback) translate global ids to local ones by
/// subtracting the shard's begin offset.
///
/// Appends route to the tail shard and the fused view together, under
/// the writer side of the lock. Because only the tail shard's Table
/// ever grows, snapshot caches bound to the other shards (clause
/// bitmaps in per-shard MatchEngines) stay valid across appends —
/// this is the fix for the whole-cache-nuke the monolithic table
/// forced on every ingest.
///
/// Thread safety: all reads that may overlap an Append must hold
/// ReadLease() for their duration (the explain pipeline and SQL
/// execution take one lease for the whole run). Append takes the
/// writer side. The extension slot has its own mutex.
class ShardSet {
 public:
  /// Partitions `fused` into `num_shards` contiguous near-equal range
  /// shards (the first `rows % num_shards` shards get one extra row).
  /// The set deep-copies the rows, so the source table is not aliased.
  /// num_shards must be in [1, kMaxShards]; shards may be empty when
  /// there are fewer rows than shards.
  static Result<std::shared_ptr<ShardSet>> Create(const Table& fused,
                                                  size_t num_shards);

  /// Re-partitions at explicit boundaries: shard s gets shard_rows[s]
  /// rows; the counts must sum to fused.num_rows(). This is the
  /// snapshot-restore entry point — identical boundaries reproduce
  /// identical per-shard dictionaries, hence identical clause bitmaps.
  static Result<std::shared_ptr<ShardSet>> CreateWithRows(
      const Table& fused, const std::vector<size_t>& shard_rows);

  /// Hard cap on the shard count (beyond this, per-shard fixed costs
  /// dwarf any locality or cache-retention win at demo scale).
  static constexpr size_t kMaxShards = 256;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_shards() const { return shards_.size(); }

  /// The fused global view. The Table object mutates on Append, so
  /// consumers that may overlap one must hold ReadLease().
  std::shared_ptr<const Table> fused() const { return fused_; }

  /// Takes the reader side of the data lock. Not recursive: a holder
  /// must not re-enter (the explain pipeline takes exactly one lease
  /// for the whole run).
  std::shared_lock<std::shared_mutex> ReadLease() const {
    return std::shared_lock<std::shared_mutex>(data_mu_);
  }

  /// Appends one row to the tail shard and the fused view atomically
  /// (writer lock). Validation errors leave both untouched.
  Status Append(const std::vector<Value>& values);

  // --- Layout accessors (hold ReadLease() if appends may overlap) ---

  size_t num_rows() const { return fused_->num_rows(); }
  /// Row count per shard, in shard order.
  std::vector<size_t> ShardRowCounts() const;
  /// First global RowId shard `s` owns.
  RowId shard_begin(size_t s) const { return shards_[s].begin; }
  /// The shard's physical table (local RowIds start at 0).
  const Table& shard_table(size_t s) const { return *shards_[s].table; }
  /// Shard owning global row `row` (row must be < num_rows()).
  size_t ShardOfRow(RowId row) const;
  /// Total appends routed to the tail shard since construction.
  size_t appends() const { return appends_; }

  /// Opaque per-set extension slot: higher layers (the expr-level
  /// per-shard engine cache) hang state here so it lives exactly as
  /// long as the shards it indexes. Get-or-create under the slot's own
  /// mutex; `make` runs at most once per set.
  std::shared_ptr<void> GetOrCreateExtension(
      const std::function<std::shared_ptr<void>()>& make) const;

 private:
  struct Shard {
    std::shared_ptr<Table> table;
    RowId begin = 0;
  };

  ShardSet() = default;

  std::string name_;
  Schema schema_;
  std::shared_ptr<Table> fused_;
  std::vector<Shard> shards_;
  size_t appends_ = 0;

  mutable std::shared_mutex data_mu_;
  mutable std::mutex extension_mu_;
  mutable std::shared_ptr<void> extension_;
};

/// \brief One shard's slice of an explain's row universe (the suspect
/// set F), in shard-local coordinates.
struct ShardSlice {
  size_t shard_index = 0;
  /// The shard's physical table (kept alive by the plan holder's
  /// shared_ptr<ShardSet>).
  const Table* table = nullptr;
  /// Universe members this shard owns, as shard-local RowIds,
  /// ascending.
  std::vector<RowId> local_rows;
  /// Position of this slice's first member in the global (sorted)
  /// universe: global universe index = offset + local position. Slices
  /// are in shard order, so offsets ascend — iterating slices in order
  /// visits universe indices in ascending order, which is what keeps
  /// per-shard delta scoring bit-identical to the fused path.
  size_t offset = 0;
};

/// \brief A per-explain partition of a sorted global row universe
/// across a ShardSet's shards. One slice per shard, in shard order
/// (slices may be empty). Built once per explain; the ranker and
/// enumerators consume it read-only.
struct ShardPlan {
  ShardSet* set = nullptr;
  std::vector<ShardSlice> slices;

  /// Partitions `sorted_rows` (ascending global RowIds, all <
  /// set.num_rows()) by the set's shard boundaries. Caller holds the
  /// set's ReadLease().
  static ShardPlan Build(ShardSet& set, const std::vector<RowId>& sorted_rows);
};

}  // namespace dbwipes

#endif  // DBWIPES_STORAGE_SHARD_H_
