#include "dbwipes/query/executor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "dbwipes/common/trace.h"
#include "dbwipes/expr/fused_kernels.h"
#include "dbwipes/query/aggregate.h"

namespace dbwipes {

namespace {

/// Key word of a NULL numeric cell: a NaN bit pattern that a value
/// never gets, since KeyWords folds every NaN to the quiet NaN.
constexpr uint64_t kNullWord = 0xFFF0000000000001ULL;

/// How far ahead a gather over ascending rows prefetches. The rows
/// leave gaps, and once a column is out of cache the hardware
/// prefetcher alone leaves such a gather waiting on memory.
constexpr size_t kPrefetchRows = 64;

/// Prefetches data[rows[p + kPrefetchRows]], if there is such a row.
template <typename T>
void PrefetchAhead(const T* data, std::span<const RowId> rows, size_t p) {
  if (p + kPrefetchRows < rows.size()) {
    __builtin_prefetch(data + rows[p + kPrefetchRows]);
  }
}

/// Writes the key word of `col` at rows[p] to out[p * stride]. Equal
/// words mean equal cells under Value equality, which compares
/// numerics as doubles (so int64 keys widen too, and ±0.0 are one
/// key); every NaN is one key.
void KeyWords(const Column& col, std::span<const RowId> rows, size_t stride,
              uint64_t* out) {
  auto fill = [&](const auto* data, auto word) {
    for (size_t p = 0; p < rows.size(); ++p) {
      PrefetchAhead(data, rows, p);
      out[p * stride] = word(rows[p], data[rows[p]]);
    }
  };
  if (col.type() == DataType::kString) {
    // Dictionary codes are unique per string; a null is code -1.
    return fill(col.code_data().data(), [](RowId, int32_t code) {
      return static_cast<uint64_t>(static_cast<int64_t>(code));
    });
  }
  const bool nullable = col.has_nulls();
  auto number = [&](RowId r, double d) {
    if (nullable && col.IsNull(r)) return kNullWord;
    if (d == 0.0) d = 0.0;
    if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
    return std::bit_cast<uint64_t>(d);
  };
  if (col.type() == DataType::kInt64) {
    return fill(col.int64_data().data(), [&](RowId r, int64_t v) {
      return number(r, static_cast<double>(v));
    });
  }
  fill(col.double_data().data(), number);
}

/// Open-addressing map from a key of `width` words to a dense group
/// id; ids are assigned in first-seen order. Per group it keeps the
/// first row, whose cells are the key, and the number of rows.
class GroupTable {
 public:
  explicit GroupTable(size_t width) : width_(width), slots_(16, kEmpty) {}

  /// Writes the group id of rows[p], whose key is words[p * width,
  /// (p + 1) * width), to ids[p].
  void Assign(const uint64_t* words, std::span<const RowId> rows,
              uint32_t* ids) {
    auto assign = [&]<size_t kWidth>(std::integral_constant<size_t, kWidth>) {
      const size_t width = kWidth != 0 ? kWidth : width_;
      for (size_t p = 0; p < rows.size(); ++p) {
        const uint32_t g = FindOrInsert<kWidth>(words + p * width, rows[p]);
        ++sizes_[g];
        ids[p] = g;
      }
    };
    // One-word keys, the common case, probe with a constant width.
    if (width_ == 1) return assign(std::integral_constant<size_t, 1>{});
    assign(std::integral_constant<size_t, 0>{});
  }

  size_t num_groups() const { return num_groups_; }
  const std::vector<RowId>& first_rows() const { return first_rows_; }
  const std::vector<size_t>& sizes() const { return sizes_; }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  /// kWidth is the key width, or 0 for width_.
  template <size_t kWidth>
  uint32_t FindOrInsert(const uint64_t* key, RowId row) {
    const size_t width = kWidth != 0 ? kWidth : width_;
    if (4 * (size_t{num_groups_} + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t s = Hash(key, width) & mask;; s = (s + 1) & mask) {
      const uint32_t g = slots_[s];
      if (g == kEmpty) {
        slots_[s] = num_groups_;
        keys_.insert(keys_.end(), key, key + width);
        first_rows_.push_back(row);
        sizes_.push_back(0);
        return num_groups_++;
      }
      // A word loop, not std::equal: that is a memcmp call per row.
      const uint64_t* stored = keys_.data() + size_t{g} * width;
      size_t i = 0;
      while (i < width && key[i] == stored[i]) ++i;
      if (i == width) return g;
    }
  }

  /// One multiply per word (MurmurHash3's finalizer, halved): the
  /// hash is on every row's path, so a short one keeps mispredicted
  /// probes cheap.
  static uint64_t Hash(const uint64_t* key, size_t width) {
    uint64_t h = 0;
    for (size_t i = 0; i < width; ++i) {
      h ^= key[i];
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDULL;
    }
    return h ^ (h >> 33);
  }

  void Grow() {
    std::vector<uint32_t> slots(slots_.size() * 2, kEmpty);
    const size_t mask = slots.size() - 1;
    for (uint32_t g = 0; g < num_groups_; ++g) {
      size_t s = Hash(keys_.data() + size_t{g} * width_, width_) & mask;
      while (slots[s] != kEmpty) s = (s + 1) & mask;
      slots[s] = g;
    }
    slots_ = std::move(slots);
  }

  size_t width_;
  uint32_t num_groups_ = 0;
  std::vector<uint64_t> keys_;   // group g's key at [g*width, (g+1)*width)
  std::vector<RowId> first_rows_;
  std::vector<size_t> sizes_;
  // Power-of-two size, at most a quarter full: a probe that runs past
  // its first slot is a mispredicted branch.
  std::vector<uint32_t> slots_;
};

/// How one aggregate reads its argument: count(*) reads nothing, a
/// plain numeric column reads its typed array, and anything else
/// (arithmetic, functions, string columns) goes through
/// ScalarExpr::Eval, values and errors alike.
struct AggInput {
  AggInput(const AggSpec& spec, const Table& table)
      : expr(spec.argument.get()) {
    if (expr == nullptr || expr->kind() != ScalarExpr::Kind::kColumnRef) {
      return;
    }
    const auto& ref = static_cast<const ColumnRefExpr&>(*expr);
    Result<const Column*> col = table.GetColumn(ref.name());
    if (!col.ok()) return;  // Eval reports it
    if ((*col)->type() == DataType::kInt64) {
      i64 = (*col)->int64_data().data();
    } else if ((*col)->type() == DataType::kDouble) {
      dbl = (*col)->double_data().data();
    } else {
      return;
    }
    if ((*col)->has_nulls()) nulls = *col;
  }

  /// Folds rows[p] into states[group_of(p)] for p in order, skipping
  /// NULL arguments. Returns rows.size(), or the position of the first
  /// row whose argument fails to evaluate, with its error in `*error`.
  template <typename Agg, typename GroupOf>
  size_t Fold(const Table& table, std::span<const RowId> rows,
              const GroupOf& group_of, Agg* states, Status* error) const {
    if (expr == nullptr) {  // count(*)
      for (size_t p = 0; p < rows.size(); ++p) states[group_of(p)].Add(0.0);
      return rows.size();
    }
    auto typed = [&](const auto* data) {
      for (size_t p = 0; p < rows.size(); ++p) {
        PrefetchAhead(data, rows, p);
        const RowId r = rows[p];
        if (nulls != nullptr && nulls->IsNull(r)) continue;
        // int64 widens exactly as Column::AsDouble does.
        states[group_of(p)].Add(static_cast<double>(data[r]));
      }
      return rows.size();
    };
    if (i64 != nullptr) return typed(i64);
    if (dbl != nullptr) return typed(dbl);
    auto add = [&](size_t p) -> Status {
      DBW_ASSIGN_OR_RETURN(Value v, expr->Eval(table, rows[p]));
      if (v.is_null()) return Status::OK();
      DBW_ASSIGN_OR_RETURN(double d, v.AsDouble());
      states[group_of(p)].Add(d);
      return Status::OK();
    };
    for (size_t p = 0; p < rows.size(); ++p) {
      Status st = add(p);
      if (!st.ok()) {
        *error = std::move(st);
        return p;
      }
    }
    return rows.size();
  }

  const ScalarExpr* expr;
  const int64_t* i64 = nullptr;
  const double* dbl = nullptr;
  const Column* nulls = nullptr;  // set when the typed column has nulls
};

/// Calls fn(std::type_identity<A>{}), A the final aggregator class of
/// `kind`, so that a fold over A's states calls Add without dispatch.
template <typename Fn>
auto WithAggregatorClass(AggKind kind, Fn&& fn) {
  switch (kind) {
    case AggKind::kCount:
      return fn(std::type_identity<CountAggregator>{});
    case AggKind::kSum:
      return fn(std::type_identity<SumAggregator>{});
    case AggKind::kAvg:
      return fn(std::type_identity<AvgAggregator>{});
    case AggKind::kMin:
      return fn(std::type_identity<MinAggregator>{});
    case AggKind::kMax:
      return fn(std::type_identity<MaxAggregator>{});
    case AggKind::kStddev:
      return fn(std::type_identity<StddevAggregator>{});
    case AggKind::kVar:
      return fn(std::type_identity<VarAggregator>{});
    case AggKind::kMedian:
      return fn(std::type_identity<MedianAggregator>{});
  }
  DBW_CHECK(false) << "unknown AggKind";
  return fn(std::type_identity<CountAggregator>{});
}

/// Folds every aggregate of `query` over `rows`, row p into group
/// group_of(p) of `num_groups`, each group seeing its rows in order,
/// and writes aggregate a's value for group g to
/// values[a * num_groups + g]. Each aggregate folds once, in one loop,
/// and stops at its first failing row. The error returned is the one
/// with the smallest (row position, aggregate index): the one a loop
/// over rows, then aggregates, meets first.
template <typename GroupOf>
Status FoldAggregates(const AggregateQuery& query, const Table& table,
                      std::span<const RowId> rows, const GroupOf& group_of,
                      size_t num_groups, double* values) {
  Status first_error;
  size_t limit = rows.size();  // an error at or after it cannot be first
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const AggSpec& spec = query.aggregates[a];
    const AggInput input(spec, table);
    double* out = values + a * num_groups;
    WithAggregatorClass(spec.kind, [&]<typename Agg>(std::type_identity<Agg>) {
      std::vector<Agg> states(num_groups);
      Status error;
      const size_t stop = input.Fold(table, rows.first(limit), group_of,
                                     states.data(), &error);
      if (!error.ok()) {
        limit = stop;
        first_error = std::move(error);
      }
      for (size_t g = 0; g < num_groups; ++g) out[g] = states[g].Value();
    });
  }
  return first_error;
}

/// An aggregate's result cell: NaN is NULL, a count is an int64.
Value BoxAggregate(AggKind kind, double value) {
  if (std::isnan(value)) return Value::Null();
  if (kind == AggKind::kCount) return Value(static_cast<int64_t>(value));
  return Value(value);
}

/// One group-by column's cell in a group's key, as the group order
/// compares it: a rank (NULL, a value, NaN), then the value itself.
struct KeyCell {
  int rank = 0;                        // 0 NULL, 1 a value, 2 NaN
  double number = 0.0;                 // a numeric value
  const std::string* text = nullptr;   // a string value
};

KeyCell ReadKeyCell(const Column& col, RowId row) {
  if (col.IsNull(row)) return {};
  if (col.type() == DataType::kString) {
    return {1, 0.0, &col.DictionaryValue(col.StringCode(row))};
  }
  // int64 widens exactly as Column::AsDouble does.
  const double number = col.AsDouble(row);
  return {std::isnan(number) ? 2 : 1, number, nullptr};
}

/// Value order on one key column, made a strict weak order and read
/// three-way: NULL first, then the values (numerics as doubles, as
/// Value's operator< compares them, strings by their bytes), then every
/// NaN as one key. All cells of one column have the column's type.
int CompareKeyCells(const KeyCell& a, const KeyCell& b) {
  if (a.rank != b.rank) return a.rank < b.rank ? -1 : 1;
  if (a.rank != 1) return 0;
  if (a.text != nullptr) return a.text->compare(*b.text);
  return (a.number > b.number) - (a.number < b.number);
}

/// Whether key `a` sorts before `b` (`width` cells each).
bool SortsBefore(const KeyCell* a, const KeyCell* b, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    const int c = CompareKeyCells(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return false;
}

}  // namespace

Result<size_t> QueryResult::AggColumnIndex(
    const std::string& output_name) const {
  if (!rows) return Status::RuntimeError("empty query result");
  return rows->schema().GetIndex(output_name);
}

double QueryResult::AggValue(size_t group, size_t agg_idx) const {
  const size_t col = query.group_by.size() + agg_idx;
  const Column& c = rows->column(col);
  if (c.IsNull(static_cast<RowId>(group))) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return c.AsDouble(static_cast<RowId>(group));
}

std::vector<Value> QueryResult::GroupKey(size_t group) const {
  std::vector<Value> key;
  key.reserve(query.group_by.size());
  for (size_t c = 0; c < query.group_by.size(); ++c) {
    key.push_back(rows->GetValue(static_cast<RowId>(group), c));
  }
  return key;
}

Status AggregateRows(const AggregateQuery& query, const Table& table,
                     std::span<const RowId> rows, Value* out) {
  std::vector<double> values(query.aggregates.size());
  DBW_RETURN_NOT_OK(FoldAggregates(
      query, table, rows, [](size_t) { return 0; }, 1, values.data()));
  for (size_t a = 0; a < values.size(); ++a) {
    out[a] = BoxAggregate(query.aggregates[a].kind, values[a]);
  }
  return Status::OK();
}

Status Lineage::CheckCaptured() const {
  if (captured()) return Status::OK();
  return Status::InvalidArgument(
      "result was executed without lineage capture");
}

std::vector<RowId> Lineage::BackwardUnion(
    const std::vector<size_t>& groups) const {
  std::vector<RowId> out;
  for (size_t g : groups) {
    DBW_CHECK(g < size()) << "group " << g << " has no lineage";
    const std::span<const RowId> slice = (*this)[g];
    out.insert(out.end(), slice.begin(), slice.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<QueryResult> ExecuteQuery(const AggregateQuery& query,
                                 const Table& table,
                                 const ExecOptions& options) {
  DBW_RETURN_NOT_OK(query.Validate(table.schema()));

  std::vector<size_t> group_cols;
  group_cols.reserve(query.group_by.size());
  for (const std::string& g : query.group_by) {
    DBW_ASSIGN_OR_RETURN(size_t idx, table.schema().GetIndex(g));
    group_cols.push_back(idx);
  }

  Bitmap pass;
  {
    DBW_TRACE_SPAN("sql/filter");
    DBW_ASSIGN_OR_RETURN(
        pass, FilterBitmap(*query.where, table,
                           ScanUniverse::Range(0, table.num_rows())));
  }

  DBW_TRACE_SPAN("sql/group");
  // Pass 1: the passing rows, ascending, then each one's group id, in
  // first-seen order. The key words are read a column at a time, a
  // block of rows at a time, so that they stay in L1. Both arrays are
  // written in full, so neither is zeroed first.
  const size_t num_rows = pass.CountOnes();
  const std::unique_ptr<RowId[]> row_ids =
      std::make_unique_for_overwrite<RowId[]>(num_rows);
  {
    size_t p = 0;
    pass.ForEachSet([&](size_t r) { row_ids[p++] = static_cast<RowId>(r); });
  }
  const std::span<const RowId> rows(row_ids.get(), num_rows);
  const size_t width = group_cols.size();
  const std::unique_ptr<uint32_t[]> group_of =
      std::make_unique_for_overwrite<uint32_t[]>(num_rows);
  GroupTable index(width);
  {
    constexpr size_t kBlock = 1024;
    std::vector<uint64_t> words(kBlock * width);
    for (size_t begin = 0; begin < rows.size(); begin += kBlock) {
      const std::span<const RowId> block =
          rows.subspan(begin, std::min(kBlock, rows.size() - begin));
      for (size_t k = 0; k < width; ++k) {
        KeyWords(table.column(group_cols[k]), block, width, words.data() + k);
      }
      index.Assign(words.data(), block, group_of.get() + begin);
    }
  }
  const size_t num_groups = index.num_groups();

  // Pass 2: each aggregate folds over every group at once.
  std::vector<double> values(query.aggregates.size() * num_groups);
  DBW_RETURN_NOT_OK(FoldAggregates(
      query, table, rows, [&](size_t p) { return group_of[p]; }, num_groups,
      values.data()));

  // Deterministic ordering: sort groups by their keys' typed cells.
  std::vector<KeyCell> keys;
  keys.reserve(num_groups * width);
  for (RowId r : index.first_rows()) {
    for (size_t c : group_cols) keys.push_back(ReadKeyCell(table.column(c), r));
  }
  std::vector<size_t> order(num_groups);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return SortsBefore(keys.data() + a * width, keys.data() + b * width,
                       width);
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

  // Each key is boxed once, into its result row.
  std::vector<Value> out_row(group_cols.size() + query.aggregates.size());
  for (size_t oi : order) {
    for (size_t i = 0; i < width; ++i) {
      out_row[i] = table.GetValue(index.first_rows()[oi], group_cols[i]);
    }
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      out_row[width + a] = BoxAggregate(query.aggregates[a].kind,
                                        values[a * num_groups + oi]);
    }
    DBW_RETURN_NOT_OK(result.rows->AppendRow(out_row));
  }

  // Pass 3: a counting sort scatters the rows into the lineage, each
  // group's slice at its rank in key order, ascending within it.
  if (options.capture_lineage) {
    Lineage& lineage = result.lineage;
    std::vector<size_t> next(num_groups);  // each group's cursor
    lineage.offsets.resize(num_groups + 1);
    lineage.offsets[0] = 0;
    for (size_t i = 0; i < num_groups; ++i) {
      next[order[i]] = lineage.offsets[i];
      lineage.offsets[i + 1] = lineage.offsets[i] + index.sizes()[order[i]];
    }
    lineage.rows.resize(rows.size());
    for (size_t p = 0; p < rows.size(); ++p) {
      lineage.rows[next[group_of[p]]++] = rows[p];
    }
  }
  return result;
}

}  // namespace dbwipes
