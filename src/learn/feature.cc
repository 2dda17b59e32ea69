#include "dbwipes/learn/feature.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "dbwipes/common/stats.h"
#include "dbwipes/common/trace.h"

namespace dbwipes {

Result<FeatureView> FeatureView::Create(
    const Table& table, const std::vector<std::string>& columns) {
  std::vector<FeatureSpec> specs;
  specs.reserve(columns.size());
  for (const std::string& name : columns) {
    DBW_ASSIGN_OR_RETURN(size_t idx, table.schema().GetIndex(name));
    FeatureSpec spec;
    spec.column = idx;
    spec.categorical = table.column(idx).type() == DataType::kString;
    spec.name = name;
    specs.push_back(std::move(spec));
  }
  return FeatureView(&table, std::move(specs));
}

Result<FeatureView> FeatureView::CreateExcluding(
    const Table& table, const std::vector<std::string>& exclude) {
  std::vector<std::string> columns;
  for (const Field& f : table.schema().fields()) {
    if (std::find(exclude.begin(), exclude.end(), f.name) == exclude.end()) {
      columns.push_back(f.name);
    }
  }
  return Create(table, columns);
}

double FeatureView::Get(RowId row, size_t f) const {
  const FeatureSpec& spec = features_[f];
  const Column& col = table_->column(spec.column);
  if (col.IsNull(row)) return std::numeric_limits<double>::quiet_NaN();
  if (spec.categorical) return static_cast<double>(col.StringCode(row));
  return col.AsDouble(row);
}

bool FeatureView::IsNull(RowId row, size_t f) const {
  return table_->column(features_[f].column).IsNull(row);
}

namespace {

/// Renumbers `codes` (dictionary codes, -1 = NULL) in place to their
/// ranks among the distinct codes present, which are appended to
/// `categories` in ascending order. Work and memory are bounded by the
/// rows: a table indexed by code when the dictionary holds at most 4
/// codes per row, a sort of the codes otherwise.
void RankCodes(size_t dictionary_size, std::vector<int32_t>* codes,
               std::vector<int32_t>* categories) {
  if (dictionary_size <= 4 * codes->size()) {
    std::vector<int32_t> rank_of(dictionary_size, -1);
    for (int32_t c : *codes) {
      if (c >= 0) rank_of[static_cast<size_t>(c)] = 0;  // present
    }
    for (size_t c = 0; c < dictionary_size; ++c) {
      if (rank_of[c] < 0) continue;
      rank_of[c] = static_cast<int32_t>(categories->size());
      categories->push_back(static_cast<int32_t>(c));
    }
    for (int32_t& c : *codes) {
      if (c >= 0) c = rank_of[static_cast<size_t>(c)];
    }
    return;
  }
  for (int32_t c : *codes) {
    if (c >= 0) categories->push_back(c);
  }
  std::sort(categories->begin(), categories->end());
  categories->erase(std::unique(categories->begin(), categories->end()),
                    categories->end());
  for (int32_t& c : *codes) {
    if (c < 0) continue;
    c = static_cast<int32_t>(
        std::lower_bound(categories->begin(), categories->end(), c) -
        categories->begin());
  }
}

/// An unsigned image of a non-NaN double that orders like `<`: the
/// bits with the sign flipped, and every bit inverted for a negative
/// value. -0.0 takes +0.0's image, so the two zeros tie.
uint64_t OrderKey(double v) {
  if (v == 0.0) v = 0.0;
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return bits >> 63 != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

/// The positions of the non-NaN `values` in (value, position) order: a
/// least-significant-digit radix sort of their OrderKeys, starting from
/// ascending positions, with one stable counting pass per key byte. A
/// byte that every key shares needs no pass.
std::vector<uint32_t> Presort(const std::vector<double>& values) {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> order;
  keys.reserve(values.size());
  order.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) continue;
    keys.push_back(OrderKey(values[i]));
    order.push_back(static_cast<uint32_t>(i));
  }
  const size_t m = keys.size();
  if (m < 2) return order;
  std::array<std::array<uint32_t, 256>, 8> counts{};
  for (uint64_t key : keys) {
    for (size_t b = 0; b < 8; ++b) ++counts[b][(key >> (8 * b)) & 0xFF];
  }
  std::vector<uint64_t> keys_out(m);
  std::vector<uint32_t> order_out(m);
  for (size_t b = 0; b < 8; ++b) {
    std::array<uint32_t, 256>& next = counts[b];
    const size_t shift = 8 * b;
    if (next[(keys[0] >> shift) & 0xFF] == m) continue;
    uint32_t start = 0;
    for (uint32_t& slot : next) start += std::exchange(slot, start);
    for (size_t i = 0; i < m; ++i) {
      const uint32_t slot = next[(keys[i] >> shift) & 0xFF]++;
      keys_out[slot] = keys[i];
      order_out[slot] = order[i];
    }
    keys.swap(keys_out);
    order.swap(order_out);
  }
  return order;
}

}  // namespace

FeatureColumns FeatureView::Snapshot(const std::vector<RowId>& rows) const {
  DBW_TRACE_SPAN("learn/snapshot");
  FeatureColumns out(this);
  const size_t n = rows.size();
  out.num_rows_ = n;
  out.ranks_.resize(features_.size());
  out.categories_.resize(features_.size());
  out.values_.resize(features_.size());
  out.sorted_.resize(features_.size());
  for (size_t f = 0; f < features_.size(); ++f) {
    const Column& col = table_->column(features_[f].column);
    if (features_[f].categorical) {
      std::vector<int32_t>& ranks = out.ranks_[f];
      ranks.resize(n);
      for (size_t i = 0; i < n; ++i) {
        ranks[i] = col.IsNull(rows[i]) ? -1 : col.StringCode(rows[i]);
      }
      RankCodes(col.dictionary_size(), &ranks, &out.categories_[f]);
    } else {
      std::vector<double>& values = out.values_[f];
      values.resize(n);
      for (size_t i = 0; i < n; ++i) {
        values[i] = col.IsNull(rows[i])
                        ? std::numeric_limits<double>::quiet_NaN()
                        : col.AsDouble(rows[i]);
      }
      out.sorted_[f] = Presort(values);
    }
  }
  return out;
}

const std::string& FeatureView::CategoryName(size_t f, int32_t code) const {
  DBW_CHECK(features_[f].categorical);
  return table_->column(features_[f].column).DictionaryValue(code);
}

void FeatureColumns::NumericMatrix(
    const std::vector<uint32_t>& positions, DenseMatrix* matrix,
    std::vector<size_t>* feature_indices) const {
  feature_indices->clear();
  for (size_t f = 0; f < num_features(); ++f) {
    if (!categorical(f)) feature_indices->push_back(f);
  }
  const size_t d = feature_indices->size();
  matrix->rows = positions.size();
  matrix->cols = d;
  matrix->values.assign(positions.size() * d, 0.0);

  for (size_t j = 0; j < d; ++j) {
    const std::vector<double>& column = values_[(*feature_indices)[j]];
    OnlineStats stats;
    for (uint32_t p : positions) {
      if (!std::isnan(column[p])) stats.Add(column[p]);
    }
    const double mean = stats.mean();
    const double sd = stats.stddev();
    for (size_t i = 0; i < positions.size(); ++i) {
      double v = column[positions[i]];
      if (std::isnan(v)) v = mean;  // mean imputation
      matrix->row(i)[j] = sd > 0.0 ? (v - mean) / sd : 0.0;
    }
  }
}

std::vector<uint32_t> PositionsIn(const std::vector<RowId>& rows,
                                  const std::vector<RowId>& subset) {
  std::vector<uint32_t> out;
  out.reserve(subset.size());
  auto it = rows.begin();
  for (RowId r : subset) {
    it = std::lower_bound(it, rows.end(), r);
    if (it == rows.end()) break;
    if (*it == r) out.push_back(static_cast<uint32_t>(it - rows.begin()));
  }
  return out;
}

}  // namespace dbwipes
