#ifndef DBWIPES_EXPR_SHARD_CACHE_H_
#define DBWIPES_EXPR_SHARD_CACHE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "dbwipes/expr/match_kernels.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {

/// \brief Per-ShardSet pool of MatchEngines, one slot per shard.
///
/// This is what turns sharding into cache retention: a MatchEngine's
/// clause bitmaps are valid for one (table size, row universe) pair,
/// so the monolithic table loses its whole cache on every append. With
/// one engine per shard, an append touches only the tail shard's table
/// — every other shard's engine still passes the freshness check and
/// is handed back with its bitmaps warm.
///
/// The cache lives in the ShardSet's extension slot (the storage layer
/// cannot name MatchEngine, which sits a layer above it), so it shares
/// the set's lifetime exactly.
///
/// Concurrency: Checkout removes the slot's engine under the cache
/// mutex, so two overlapping explains never share one engine — the
/// second simply builds fresh and the later Checkin wins the slot.
/// Engine internals therefore never need cross-thread protection
/// beyond what MatchEngine already documents for a serialized caller.
class ShardEngineCache {
 public:
  /// The cache for `set`, created on first use (one per set).
  static std::shared_ptr<ShardEngineCache> For(const ShardSet& set);

  struct Checkout {
    std::unique_ptr<MatchEngine> engine;
    /// True when the engine came out of the slot with its clause cache
    /// intact; false when it had to be built (first use, stale table
    /// size, different row universe, or slot checked out elsewhere).
    bool reused = false;
  };

  /// An engine over `table` restricted to `local_rows`. The slot's
  /// engine is reused iff it was built against exactly table.num_rows()
  /// rows and the same universe; otherwise a fresh engine is built.
  Checkout CheckoutEngine(size_t shard, const Table& table,
                          std::vector<RowId> local_rows);

  /// Returns an engine to its slot (replacing any later occupant).
  void Checkin(size_t shard, std::unique_ptr<MatchEngine> engine);

  /// Cached clause-bitmap count per shard slot (0 while checked out or
  /// never built). Sums to the retained-cache size the bench reports.
  std::vector<size_t> CachedClausesPerShard() const;

  size_t num_shards() const { return num_shards_; }
  size_t engines_built() const;
  size_t engines_reused() const;

 private:
  explicit ShardEngineCache(size_t num_shards);

  const size_t num_shards_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<MatchEngine>> slots_;
  size_t built_ = 0;
  size_t reused_ = 0;
};

}  // namespace dbwipes

#endif  // DBWIPES_EXPR_SHARD_CACHE_H_
