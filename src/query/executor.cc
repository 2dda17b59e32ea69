#include "dbwipes/query/executor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "dbwipes/common/trace.h"
#include "dbwipes/expr/fused_kernels.h"
#include "dbwipes/query/aggregate.h"

namespace dbwipes {

namespace {

/// Key word of a NULL numeric cell: a NaN bit pattern that a value
/// never gets, since KeyColumn folds every NaN to the quiet NaN.
constexpr uint64_t kNullWord = 0xFFF0000000000001ULL;

/// One group-by column read as raw key words. Equal words mean equal
/// cells under Value equality, which compares numerics as doubles (so
/// int64 keys widen too, and ±0.0 are one key); every NaN is one key.
struct KeyColumn {
  explicit KeyColumn(const Column& col)
      : column(&col), type(col.type()), nullable(col.has_nulls()) {
    switch (type) {
      case DataType::kInt64:
        i64 = col.int64_data().data();
        break;
      case DataType::kDouble:
        dbl = col.double_data().data();
        break;
      case DataType::kString:
        codes = col.code_data().data();
        break;
    }
  }

  uint64_t Word(RowId r) const {
    // Dictionary codes are unique per string; a null is code -1.
    if (type == DataType::kString) {
      return static_cast<uint64_t>(static_cast<int64_t>(codes[r]));
    }
    if (nullable && column->IsNull(r)) return kNullWord;
    double d = type == DataType::kInt64 ? static_cast<double>(i64[r]) : dbl[r];
    if (d == 0.0) d = 0.0;
    if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
    return std::bit_cast<uint64_t>(d);
  }

  const Column* column;
  DataType type;
  bool nullable;
  const int64_t* i64 = nullptr;
  const double* dbl = nullptr;
  const int32_t* codes = nullptr;
};

/// Open-addressing map from a key of `width` words to a dense group
/// id; ids are assigned in first-seen order.
class GroupTable {
 public:
  explicit GroupTable(size_t width) : width_(width), slots_(16, kEmpty) {}

  uint32_t FindOrInsert(const uint64_t* key) {
    if (2 * (size_t{num_groups_} + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t s = Hash(key) & mask;; s = (s + 1) & mask) {
      const uint32_t g = slots_[s];
      if (g == kEmpty) {
        slots_[s] = num_groups_;
        keys_.insert(keys_.end(), key, key + width_);
        return num_groups_++;
      }
      if (std::equal(key, key + width_, keys_.data() + size_t{g} * width_)) {
        return g;
      }
    }
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  uint64_t Hash(const uint64_t* key) const {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (size_t i = 0; i < width_; ++i) {
      h ^= key[i];
      h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
      h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
      h ^= h >> 31;
    }
    return h;
  }

  void Grow() {
    std::vector<uint32_t> slots(slots_.size() * 2, kEmpty);
    const size_t mask = slots.size() - 1;
    for (uint32_t g = 0; g < num_groups_; ++g) {
      size_t s = Hash(keys_.data() + size_t{g} * width_) & mask;
      while (slots[s] != kEmpty) s = (s + 1) & mask;
      slots[s] = g;
    }
    slots_ = std::move(slots);
  }

  size_t width_;
  uint32_t num_groups_ = 0;
  std::vector<uint64_t> keys_;   // group g's key at [g*width, (g+1)*width)
  std::vector<uint32_t> slots_;  // power-of-two size, at most half full
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

  /// Folds row `r` into `agg`; NULL arguments are skipped. Forced
  /// inline: with two callers the compiler would otherwise call it
  /// once per row from ExecuteQuery's group loop.
  [[gnu::always_inline]] Status Feed(const Table& table, RowId r,
                                     Aggregator* agg) const {
    if (expr == nullptr) {
      agg->Add(0.0);  // count(*)
    } else if (i64 != nullptr || dbl != nullptr) {
      if (nulls != nullptr && nulls->IsNull(r)) return Status::OK();
      // int64 widens exactly as Column::AsDouble does.
      agg->Add(i64 != nullptr ? static_cast<double>(i64[r]) : dbl[r]);
    } else {
      DBW_ASSIGN_OR_RETURN(Value v, expr->Eval(table, r));
      if (v.is_null()) return Status::OK();
      DBW_ASSIGN_OR_RETURN(double d, v.AsDouble());
      agg->Add(d);
    }
    return Status::OK();
  }

  const ScalarExpr* expr;
  const int64_t* i64 = nullptr;
  const double* dbl = nullptr;
  const Column* nulls = nullptr;  // set when the typed column has nulls
};

/// An aggregate's result cell: NaN is NULL, a count is an int64.
Value BoxAggregate(AggKind kind, double value) {
  if (std::isnan(value)) return Value::Null();
  if (kind == AggKind::kCount) return Value(static_cast<int64_t>(value));
  return Value(value);
}

/// Value order on one key column, made a strict weak order: NULL
/// first, then the values, then every NaN as one key.
int KeyRank(const Value& v) {
  if (v.is_null()) return 0;
  return v.is_double() && std::isnan(v.dbl()) ? 2 : 1;
}

/// Whether boxed key `a` sorts before `b` (`width` cells each).
bool SortsBefore(const Value* a, const Value* b, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    const int ra = KeyRank(a[i]);
    const int rb = KeyRank(b[i]);
    if (ra != rb) return ra < rb;
    if (ra != 1) continue;
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
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
                     const std::vector<RowId>& rows, Value* out) {
  for (size_t ai = 0; ai < query.aggregates.size(); ++ai) {
    const AggSpec& spec = query.aggregates[ai];
    const AggInput input(spec, table);
    AggregatorPtr agg = MakeAggregator(spec.kind);
    for (RowId r : rows) DBW_RETURN_NOT_OK(input.Feed(table, r, agg.get()));
    out[ai] = BoxAggregate(spec.kind, agg->Value());
  }
  return Status::OK();
}

Result<QueryResult> ExecuteQuery(const AggregateQuery& query,
                                 const Table& table,
                                 const ExecOptions& options) {
  DBW_RETURN_NOT_OK(query.Validate(table.schema()));

  std::vector<size_t> group_cols;
  std::vector<KeyColumn> key_cols;
  group_cols.reserve(query.group_by.size());
  key_cols.reserve(query.group_by.size());
  for (const std::string& g : query.group_by) {
    DBW_ASSIGN_OR_RETURN(size_t idx, table.schema().GetIndex(g));
    group_cols.push_back(idx);
    key_cols.emplace_back(table.column(idx));
  }

  Bitmap pass;
  {
    DBW_TRACE_SPAN("sql/filter");
    DBW_ASSIGN_OR_RETURN(
        pass, FilterBitmap(*query.where, table,
                           ScanUniverse::Range(0, table.num_rows())));
  }

  DBW_TRACE_SPAN("sql/group");
  std::vector<AggInput> inputs;
  inputs.reserve(query.aggregates.size());
  for (const AggSpec& a : query.aggregates) inputs.emplace_back(a, table);

  struct GroupState {
    RowId first_row;  // its cells are the group's key
    std::vector<AggregatorPtr> aggs;
    std::vector<RowId> lineage;
  };
  std::vector<GroupState> groups;
  GroupTable index(key_cols.size());
  std::vector<uint64_t> key(key_cols.size());

  // Passing rows in ascending order, so every fold sees its inputs in
  // scan order.
  for (size_t wi = 0; wi < pass.num_words(); ++wi) {
    for (uint64_t w = pass.word(wi); w != 0; w &= w - 1) {
      const RowId r = static_cast<RowId>(wi * 64 + std::countr_zero(w));
      for (size_t k = 0; k < key_cols.size(); ++k) key[k] = key_cols[k].Word(r);
      const uint32_t gi = index.FindOrInsert(key.data());
      if (gi == groups.size()) {
        GroupState state;
        state.first_row = r;
        for (const AggSpec& a : query.aggregates) {
          state.aggs.push_back(MakeAggregator(a.kind));
        }
        groups.push_back(std::move(state));
      }
      GroupState& g = groups[gi];
      for (size_t ai = 0; ai < inputs.size(); ++ai) {
        DBW_RETURN_NOT_OK(inputs[ai].Feed(table, r, g.aggs[ai].get()));
      }
      if (options.capture_lineage) g.lineage.push_back(r);
    }
  }

  // Deterministic ordering: sort groups by key, boxed once per group.
  const size_t width = group_cols.size();
  std::vector<Value> keys;
  keys.reserve(groups.size() * width);
  for (const GroupState& g : groups) {
    for (size_t c : group_cols) keys.push_back(table.GetValue(g.first_row, c));
  }
  std::vector<size_t> order(groups.size());
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
  result.lineage.reserve(groups.size());

  std::vector<Value> out_row(group_cols.size() + query.aggregates.size());
  for (size_t oi : order) {
    GroupState& g = groups[oi];
    for (size_t i = 0; i < width; ++i) out_row[i] = keys[oi * width + i];
    for (size_t ai = 0; ai < g.aggs.size(); ++ai) {
      out_row[width + ai] =
          BoxAggregate(query.aggregates[ai].kind, g.aggs[ai]->Value());
    }
    DBW_RETURN_NOT_OK(result.rows->AppendRow(out_row));
    result.lineage.push_back(std::move(g.lineage));
  }
  return result;
}

}  // namespace dbwipes
