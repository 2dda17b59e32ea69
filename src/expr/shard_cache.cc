#include "dbwipes/expr/shard_cache.h"

#include "dbwipes/common/metrics.h"

namespace dbwipes {

ShardEngineCache::ShardEngineCache(size_t num_shards)
    : num_shards_(num_shards), slots_(num_shards) {}

std::shared_ptr<ShardEngineCache> ShardEngineCache::For(const ShardSet& set) {
  const size_t shards = set.num_shards();
  auto ext = set.GetOrCreateExtension([shards]() -> std::shared_ptr<void> {
    return std::shared_ptr<void>(new ShardEngineCache(shards),
                                 [](void* p) {
                                   delete static_cast<ShardEngineCache*>(p);
                                 });
  });
  return std::shared_ptr<ShardEngineCache>(
      ext, static_cast<ShardEngineCache*>(ext.get()));
}

ShardEngineCache::Checkout ShardEngineCache::CheckoutEngine(
    size_t shard, const Table& table, std::vector<RowId> local_rows) {
  static MetricCounter* const built_metric =
      MetricsRegistry::Global().GetCounter("shard.engines_built");
  static MetricCounter* const reused_metric =
      MetricsRegistry::Global().GetCounter("shard.engines_reused");
  DBW_CHECK(shard < num_shards_);
  Checkout out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<MatchEngine>& slot = slots_[shard];
    if (slot != nullptr && slot->built_table_rows() == table.num_rows() &&
        slot->rows() == local_rows) {
      out.engine = std::move(slot);
      out.reused = true;
      ++reused_;
    }
  }
  if (out.engine == nullptr) {
    out.engine = std::make_unique<MatchEngine>(table, std::move(local_rows));
    std::lock_guard<std::mutex> lock(mu_);
    ++built_;
  }
  (out.reused ? reused_metric : built_metric)->Increment();
  return out;
}

void ShardEngineCache::Checkin(size_t shard,
                               std::unique_ptr<MatchEngine> engine) {
  DBW_CHECK(shard < num_shards_);
  std::lock_guard<std::mutex> lock(mu_);
  slots_[shard] = std::move(engine);
}

std::vector<size_t> ShardEngineCache::CachedClausesPerShard() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t> out(num_shards_, 0);
  for (size_t s = 0; s < num_shards_; ++s) {
    if (slots_[s] != nullptr) out[s] = slots_[s]->num_cached_clauses();
  }
  return out;
}

size_t ShardEngineCache::engines_built() const {
  std::lock_guard<std::mutex> lock(mu_);
  return built_;
}

size_t ShardEngineCache::engines_reused() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reused_;
}

}  // namespace dbwipes
