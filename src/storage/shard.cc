#include "dbwipes/storage/shard.h"

#include <algorithm>

#include "dbwipes/common/logging.h"
#include "dbwipes/common/metrics.h"

namespace dbwipes {

namespace {

/// Near-equal contiguous split: the first rows % shards shards get one
/// extra row, so boundaries are a pure function of (rows, shards).
std::vector<size_t> EvenSplit(size_t rows, size_t num_shards) {
  std::vector<size_t> out(num_shards, rows / num_shards);
  for (size_t s = 0; s < rows % num_shards; ++s) ++out[s];
  return out;
}

}  // namespace

Result<std::shared_ptr<ShardSet>> ShardSet::Create(const Table& fused,
                                                   size_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("shard count must be at least 1");
  }
  return CreateWithRows(fused, EvenSplit(fused.num_rows(), num_shards));
}

Result<std::shared_ptr<ShardSet>> ShardSet::CreateWithRows(
    const Table& fused, const std::vector<size_t>& shard_rows) {
  if (shard_rows.empty()) {
    return Status::InvalidArgument("shard count must be at least 1");
  }
  if (shard_rows.size() > kMaxShards) {
    return Status::InvalidArgument(
        "shard count " + std::to_string(shard_rows.size()) +
        " exceeds the maximum of " + std::to_string(kMaxShards));
  }
  size_t total = 0;
  for (size_t n : shard_rows) total += n;
  if (total != fused.num_rows()) {
    return Status::InvalidArgument(
        "shard row counts sum to " + std::to_string(total) + " but table '" +
        fused.name() + "' has " + std::to_string(fused.num_rows()) + " rows");
  }

  auto set = std::shared_ptr<ShardSet>(new ShardSet());
  set->name_ = fused.name();
  set->schema_ = fused.schema();
  // Deep copy: the set's fused view must not alias a table some other
  // holder could keep mutating (Append must be the only writer). Tables
  // only append, so every dictionary lists its strings in the order
  // their rows first use them, and the copy has the codes that a
  // Select of every row would give.
  set->fused_ = std::make_shared<Table>(fused);

  RowId begin = 0;
  set->shards_.reserve(shard_rows.size());
  for (size_t s = 0; s < shard_rows.size(); ++s) {
    Shard shard;
    shard.begin = begin;
    // Rows land in global order, so each shard's dictionary codes are
    // first-appearance order within the shard — reproducible from the
    // fused content plus the boundaries alone.
    shard.table = std::make_shared<Table>(
        set->fused_->Select([&] {
          std::vector<RowId> rows(shard_rows[s]);
          for (size_t i = 0; i < shard_rows[s]; ++i) {
            rows[i] = begin + static_cast<RowId>(i);
          }
          return rows;
        }()));
    begin += static_cast<RowId>(shard_rows[s]);
    set->shards_.push_back(std::move(shard));
  }
  return set;
}

Status ShardSet::Append(const std::vector<Value>& values) {
  static MetricCounter* const appends =
      MetricsRegistry::Global().GetCounter("shard.appends");
  std::unique_lock<std::shared_mutex> lock(data_mu_);
  // Validate against the fused view first so a bad row mutates
  // neither copy; the tail append then cannot fail (same schema).
  DBW_RETURN_NOT_OK(fused_->AppendRow(values));
  DBW_CHECK_OK(shards_.back().table->AppendRow(values));
  ++appends_;
  appends->Increment();
  return Status::OK();
}

std::vector<size_t> ShardSet::ShardRowCounts() const {
  std::vector<size_t> out;
  out.reserve(shards_.size());
  for (const Shard& s : shards_) out.push_back(s.table->num_rows());
  return out;
}

size_t ShardSet::ShardOfRow(RowId row) const {
  DBW_DCHECK(row < fused_->num_rows());
  // Boundaries ascend; the owning shard is the last with begin <= row.
  size_t s = shards_.size() - 1;
  while (s > 0 && shards_[s].begin > row) --s;
  return s;
}

std::shared_ptr<void> ShardSet::GetOrCreateExtension(
    const std::function<std::shared_ptr<void>()>& make) const {
  std::lock_guard<std::mutex> lock(extension_mu_);
  if (extension_ == nullptr) extension_ = make();
  return extension_;
}

ShardPlan ShardPlan::Build(ShardSet& set,
                           const std::vector<RowId>& sorted_rows) {
  ShardPlan plan;
  plan.set = &set;
  plan.slices.resize(set.num_shards());
  size_t i = 0;
  size_t offset = 0;
  for (size_t s = 0; s < set.num_shards(); ++s) {
    ShardSlice& slice = plan.slices[s];
    slice.shard_index = s;
    slice.table = &set.shard_table(s);
    slice.offset = offset;
    const RowId begin = set.shard_begin(s);
    const RowId end = begin + static_cast<RowId>(slice.table->num_rows());
    while (i < sorted_rows.size() && sorted_rows[i] < end) {
      DBW_DCHECK(sorted_rows[i] >= begin);
      slice.local_rows.push_back(sorted_rows[i] - begin);
      ++i;
    }
    offset += slice.local_rows.size();
  }
  DBW_DCHECK(i == sorted_rows.size());
  return plan;
}

}  // namespace dbwipes
