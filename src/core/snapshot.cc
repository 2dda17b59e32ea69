#include "dbwipes/core/snapshot.h"

#include <cstring>

#include "dbwipes/storage/durable_io.h"

namespace dbwipes {

namespace {

// File envelope: magic(8) version(4) payload_size(8) checksum(8) payload.
constexpr char kMagic[8] = {'D', 'B', 'W', 'S', 'N', 'A', 'P', '\0'};
constexpr size_t kHeaderSize = 8 + 4 + 8 + 8;

// ---------------------------------------------------------------------------
// Payload encoding: little-endian fixed-width integers, doubles as
// their 8 bytes, strings as u32 length + bytes. Every read is
// bounds-checked against the declared payload size.
// ---------------------------------------------------------------------------

class PayloadWriter {
 public:
  /// `reserved` zero bytes lead the buffer (room for the file header).
  explicit PayloadWriter(size_t reserved = 0) : out_(reserved, '\0') {}

  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  void Boxed(const Value& v) {
    if (v.is_null()) {
      U8(0);
    } else if (v.is_int64()) {
      U8(1);
      I64(v.int64());
    } else if (v.is_double()) {
      U8(2);
      F64(v.dbl());
    } else {
      U8(3);
      Str(v.str());
    }
  }

  std::string Take() { return std::move(out_); }

 private:
  void Raw(const void* p, size_t n) {
    out_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string out_;
};

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status U8(uint8_t* v, const char* what) {
    return Fixed(v, sizeof(*v), what);
  }
  Status U32(uint32_t* v, const char* what) {
    return Fixed(v, sizeof(*v), what);
  }
  Status U64(uint64_t* v, const char* what) {
    return Fixed(v, sizeof(*v), what);
  }
  Status I32(int32_t* v, const char* what) {
    return Fixed(v, sizeof(*v), what);
  }
  Status I64(int64_t* v, const char* what) {
    return Fixed(v, sizeof(*v), what);
  }
  Status F64(double* v, const char* what) {
    return Fixed(v, sizeof(*v), what);
  }
  Status Str(std::string* s, const char* what) {
    uint32_t n = 0;
    DBW_RETURN_NOT_OK(U32(&n, what));
    if (n > remaining()) {
      return Corrupt(what, std::string("string of ") + std::to_string(n) +
                               " bytes exceeds remaining payload");
    }
    s->assign(data_.substr(pos_, n));
    pos_ += n;
    return Status::OK();
  }
  Status Boxed(Value* v, const char* what) {
    uint8_t tag = 0;
    DBW_RETURN_NOT_OK(U8(&tag, what));
    switch (tag) {
      case 0:
        *v = Value::Null();
        return Status::OK();
      case 1: {
        int64_t i = 0;
        DBW_RETURN_NOT_OK(I64(&i, what));
        *v = Value(i);
        return Status::OK();
      }
      case 2: {
        double d = 0.0;
        DBW_RETURN_NOT_OK(F64(&d, what));
        *v = Value(d);
        return Status::OK();
      }
      case 3: {
        std::string s;
        DBW_RETURN_NOT_OK(Str(&s, what));
        *v = Value(std::move(s));
        return Status::OK();
      }
      default:
        return Corrupt(what, "unknown value tag " + std::to_string(tag));
    }
  }

  Status ExpectExhausted() const {
    if (pos_ != data_.size()) {
      return Status::IoError("corrupt snapshot: " +
                             std::to_string(data_.size() - pos_) +
                             " trailing payload bytes after the last field");
    }
    return Status::OK();
  }

  Status Corrupt(const char* what, const std::string& detail) const {
    return Status::IoError("corrupt snapshot: " + std::string(what) +
                           " at payload offset " + std::to_string(pos_) +
                           ": " + detail);
  }

 private:
  Status Fixed(void* v, size_t n, const char* what) {
    if (n > remaining()) {
      return Corrupt(what, "needs " + std::to_string(n) + " bytes, " +
                               std::to_string(remaining()) + " remain");
    }
    std::memcpy(v, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Tables: schema, then column-major typed data with a validity byte
// per row. String columns persist their dictionary + codes so the
// restored column is code-for-code identical (the match kernels'
// bitmaps, and therefore Explain output, depend on dictionary order).
// ---------------------------------------------------------------------------

void WriteTable(PayloadWriter* w, const std::string& reg_name,
                const Table& t) {
  w->Str(reg_name);
  w->Str(t.name());
  w->U32(static_cast<uint32_t>(t.schema().num_fields()));
  for (const Field& f : t.schema().fields()) {
    w->Str(f.name);
    w->U8(static_cast<uint8_t>(f.type));
  }
  w->U64(t.num_rows());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    for (RowId r = 0; r < t.num_rows(); ++r) {
      w->U8(col.IsNull(r) ? 0 : 1);
    }
    switch (col.type()) {
      case DataType::kInt64:
        for (int64_t v : col.int64_data()) w->I64(v);
        break;
      case DataType::kDouble:
        for (double v : col.double_data()) w->F64(v);
        break;
      case DataType::kString: {
        w->U32(static_cast<uint32_t>(col.dictionary_size()));
        for (size_t i = 0; i < col.dictionary_size(); ++i) {
          w->Str(col.DictionaryValue(static_cast<int32_t>(i)));
        }
        for (int32_t code : col.code_data()) w->I32(code);
        break;
      }
    }
  }
}

Result<std::pair<std::string, TablePtr>> ReadTable(PayloadReader* r) {
  std::string reg_name, table_name;
  DBW_RETURN_NOT_OK(r->Str(&reg_name, "table registration name"));
  DBW_RETURN_NOT_OK(r->Str(&table_name, "table name"));
  uint32_t num_fields = 0;
  DBW_RETURN_NOT_OK(r->U32(&num_fields, "table field count"));
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint32_t i = 0; i < num_fields; ++i) {
    Field f;
    DBW_RETURN_NOT_OK(r->Str(&f.name, "field name"));
    uint8_t type = 0;
    DBW_RETURN_NOT_OK(r->U8(&type, "field type"));
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return r->Corrupt("field type", "unknown type tag " +
                                          std::to_string(type));
    }
    f.type = static_cast<DataType>(type);
    fields.push_back(std::move(f));
  }
  uint64_t num_rows = 0;
  DBW_RETURN_NOT_OK(r->U64(&num_rows, "table row count"));
  // A row costs at least one validity byte per column; refuse counts
  // the remaining payload cannot possibly hold.
  if (num_fields > 0 && num_rows > r->remaining()) {
    return r->Corrupt("table row count",
                      std::to_string(num_rows) +
                          " rows exceed the remaining payload");
  }

  auto table = std::make_shared<Table>(Schema(std::move(fields)), table_name);
  // Columns arrive column-major but Table only appends row-major;
  // buffer the boxed values and append whole rows.
  std::vector<std::vector<Value>> columns(num_fields);
  for (uint32_t c = 0; c < num_fields; ++c) {
    std::vector<uint8_t> valid(num_rows);
    for (uint64_t rrow = 0; rrow < num_rows; ++rrow) {
      DBW_RETURN_NOT_OK(r->U8(&valid[rrow], "validity byte"));
      if (valid[rrow] > 1) {
        return r->Corrupt("validity byte",
                          "expected 0 or 1, got " +
                              std::to_string(valid[rrow]));
      }
    }
    std::vector<Value>& out = columns[c];
    out.reserve(num_rows);
    switch (table->schema().field(c).type) {
      case DataType::kInt64:
        for (uint64_t rrow = 0; rrow < num_rows; ++rrow) {
          int64_t v = 0;
          DBW_RETURN_NOT_OK(r->I64(&v, "int64 cell"));
          out.push_back(valid[rrow] ? Value(v) : Value::Null());
        }
        break;
      case DataType::kDouble:
        for (uint64_t rrow = 0; rrow < num_rows; ++rrow) {
          double v = 0.0;
          DBW_RETURN_NOT_OK(r->F64(&v, "double cell"));
          out.push_back(valid[rrow] ? Value(v) : Value::Null());
        }
        break;
      case DataType::kString: {
        uint32_t dict_size = 0;
        DBW_RETURN_NOT_OK(r->U32(&dict_size, "dictionary size"));
        std::vector<std::string> dict(dict_size);
        for (uint32_t i = 0; i < dict_size; ++i) {
          DBW_RETURN_NOT_OK(r->Str(&dict[i], "dictionary entry"));
        }
        for (uint64_t rrow = 0; rrow < num_rows; ++rrow) {
          int32_t code = 0;
          DBW_RETURN_NOT_OK(r->I32(&code, "string code"));
          if (!valid[rrow]) {
            out.push_back(Value::Null());
            continue;
          }
          if (code < 0 || static_cast<uint32_t>(code) >= dict_size) {
            return r->Corrupt("string code",
                              "code " + std::to_string(code) +
                                  " outside dictionary of " +
                                  std::to_string(dict_size));
          }
          out.push_back(Value(dict[code]));
        }
        break;
      }
    }
  }
  std::vector<Value> row(num_fields);
  for (uint64_t rrow = 0; rrow < num_rows; ++rrow) {
    for (uint32_t c = 0; c < num_fields; ++c) row[c] = columns[c][rrow];
    DBW_RETURN_NOT_OK(table->AppendRow(row));
  }
  return std::make_pair(std::move(reg_name), TablePtr(std::move(table)));
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

void WritePredicate(PayloadWriter* w, const Predicate& p) {
  w->U32(static_cast<uint32_t>(p.num_clauses()));
  for (const Clause& c : p.clauses()) {
    w->Str(c.attribute);
    w->U8(static_cast<uint8_t>(c.op));
    w->Boxed(c.literal);
    w->U32(static_cast<uint32_t>(c.in_set.size()));
    for (const Value& v : c.in_set) w->Boxed(v);
  }
}

Result<Predicate> ReadPredicate(PayloadReader* r) {
  uint32_t num_clauses = 0;
  DBW_RETURN_NOT_OK(r->U32(&num_clauses, "clause count"));
  std::vector<Clause> clauses;
  clauses.reserve(num_clauses);
  for (uint32_t i = 0; i < num_clauses; ++i) {
    Clause c;
    DBW_RETURN_NOT_OK(r->Str(&c.attribute, "clause attribute"));
    uint8_t op = 0;
    DBW_RETURN_NOT_OK(r->U8(&op, "clause operator"));
    if (op > static_cast<uint8_t>(CompareOp::kContains)) {
      return r->Corrupt("clause operator",
                        "unknown operator tag " + std::to_string(op));
    }
    c.op = static_cast<CompareOp>(op);
    DBW_RETURN_NOT_OK(r->Boxed(&c.literal, "clause literal"));
    uint32_t in_n = 0;
    DBW_RETURN_NOT_OK(r->U32(&in_n, "IN-set size"));
    c.in_set.resize(in_n);
    for (uint32_t j = 0; j < in_n; ++j) {
      DBW_RETURN_NOT_OK(r->Boxed(&c.in_set[j], "IN-set value"));
    }
    clauses.push_back(std::move(c));
  }
  return Predicate(std::move(clauses));
}

void WriteSession(PayloadWriter* w, const ServiceSnapshot::SessionState& s) {
  w->Str(s.name);
  w->F64(s.settings.deadline_ms);
  w->U8(s.settings.profile_enabled ? 1 : 0);
  w->Str(s.replay.original_sql);
  w->U32(static_cast<uint32_t>(s.replay.applied_predicates.size()));
  for (const Predicate& p : s.replay.applied_predicates) WritePredicate(w, p);
  w->U32(static_cast<uint32_t>(s.replay.selected_groups.size()));
  for (size_t g : s.replay.selected_groups) w->U64(g);
  w->U32(static_cast<uint32_t>(s.replay.selected_inputs.size()));
  for (RowId rid : s.replay.selected_inputs) w->U32(rid);
  w->U8(s.replay.has_metric ? 1 : 0);
  w->Str(s.replay.metric_kind);
  w->F64(s.replay.metric_expected);
  w->U64(s.replay.agg_index);
}

Result<ServiceSnapshot::SessionState> ReadSession(PayloadReader* r) {
  ServiceSnapshot::SessionState s;
  DBW_RETURN_NOT_OK(r->Str(&s.name, "session name"));
  DBW_RETURN_NOT_OK(SessionManager::ValidateName(s.name));
  DBW_RETURN_NOT_OK(r->F64(&s.settings.deadline_ms, "session deadline"));
  uint8_t profile_enabled = 0;
  DBW_RETURN_NOT_OK(r->U8(&profile_enabled, "profile flag"));
  s.settings.profile_enabled = profile_enabled != 0;
  DBW_RETURN_NOT_OK(r->Str(&s.replay.original_sql, "original sql"));
  uint32_t num_preds = 0;
  DBW_RETURN_NOT_OK(r->U32(&num_preds, "predicate count"));
  s.replay.applied_predicates.reserve(num_preds);
  for (uint32_t i = 0; i < num_preds; ++i) {
    DBW_ASSIGN_OR_RETURN(Predicate p, ReadPredicate(r));
    s.replay.applied_predicates.push_back(std::move(p));
  }
  uint32_t num_groups = 0;
  DBW_RETURN_NOT_OK(r->U32(&num_groups, "selected-group count"));
  s.replay.selected_groups.reserve(num_groups);
  for (uint32_t i = 0; i < num_groups; ++i) {
    uint64_t g = 0;
    DBW_RETURN_NOT_OK(r->U64(&g, "selected group"));
    s.replay.selected_groups.push_back(static_cast<size_t>(g));
  }
  uint32_t num_inputs = 0;
  DBW_RETURN_NOT_OK(r->U32(&num_inputs, "selected-input count"));
  s.replay.selected_inputs.reserve(num_inputs);
  for (uint32_t i = 0; i < num_inputs; ++i) {
    uint32_t rid = 0;
    DBW_RETURN_NOT_OK(r->U32(&rid, "selected input"));
    s.replay.selected_inputs.push_back(rid);
  }
  uint8_t has_metric = 0;
  DBW_RETURN_NOT_OK(r->U8(&has_metric, "metric flag"));
  s.replay.has_metric = has_metric != 0;
  DBW_RETURN_NOT_OK(r->Str(&s.replay.metric_kind, "metric kind"));
  DBW_RETURN_NOT_OK(r->F64(&s.replay.metric_expected, "metric expected"));
  uint64_t agg_index = 0;
  DBW_RETURN_NOT_OK(r->U64(&agg_index, "metric agg index"));
  s.replay.agg_index = static_cast<size_t>(agg_index);
  return s;
}

void WritePayload(PayloadWriter* w, const ServiceSnapshot& snapshot) {
  w->U32(static_cast<uint32_t>(snapshot.tables.size()));
  for (const auto& named : snapshot.tables) {
    WriteTable(w, named.first, *named.second);
  }
  w->U32(static_cast<uint32_t>(snapshot.sessions.size()));
  for (const ServiceSnapshot::SessionState& s : snapshot.sessions) {
    WriteSession(w, s);
  }
  // v2: shard layouts (boundaries only; shard contents are derivable).
  w->U32(static_cast<uint32_t>(snapshot.shard_layouts.size()));
  for (const ServiceSnapshot::ShardLayout& layout : snapshot.shard_layouts) {
    w->Str(layout.table);
    w->U32(static_cast<uint32_t>(layout.shard_rows.size()));
    for (uint64_t rows : layout.shard_rows) w->U64(rows);
  }
  // v3: the WAL LSN this snapshot is consistent through, plus the
  // process-level retry knobs (their logged records may be truncated).
  w->U64(snapshot.wal_lsn);
  w->U32(snapshot.retry_max_attempts);
  w->F64(snapshot.retry_backoff_ms);
}

}  // namespace

std::string SerializeSnapshotPayload(const ServiceSnapshot& snapshot) {
  PayloadWriter w;
  WritePayload(&w, snapshot);
  return w.Take();
}

Result<ServiceSnapshot> ParseSnapshotPayload(std::string_view payload,
                                             uint32_t version) {
  PayloadReader r(payload);
  ServiceSnapshot snap;
  uint32_t num_tables = 0;
  DBW_RETURN_NOT_OK(r.U32(&num_tables, "table count"));
  for (uint32_t i = 0; i < num_tables; ++i) {
    DBW_ASSIGN_OR_RETURN(auto named, ReadTable(&r));
    snap.tables.push_back(std::move(named));
  }
  uint32_t num_sessions = 0;
  DBW_RETURN_NOT_OK(r.U32(&num_sessions, "session count"));
  for (uint32_t i = 0; i < num_sessions; ++i) {
    DBW_ASSIGN_OR_RETURN(ServiceSnapshot::SessionState s, ReadSession(&r));
    snap.sessions.push_back(std::move(s));
  }
  if (version >= 2) {
    uint32_t num_layouts = 0;
    DBW_RETURN_NOT_OK(r.U32(&num_layouts, "shard-layout count"));
    for (uint32_t i = 0; i < num_layouts; ++i) {
      ServiceSnapshot::ShardLayout layout;
      DBW_RETURN_NOT_OK(r.Str(&layout.table, "shard-layout table name"));
      uint32_t num_shards = 0;
      DBW_RETURN_NOT_OK(r.U32(&num_shards, "shard count"));
      layout.shard_rows.reserve(num_shards);
      for (uint32_t s = 0; s < num_shards; ++s) {
        uint64_t rows = 0;
        DBW_RETURN_NOT_OK(r.U64(&rows, "shard row count"));
        layout.shard_rows.push_back(rows);
      }
      snap.shard_layouts.push_back(std::move(layout));
    }
  }
  if (version >= 3) {
    DBW_RETURN_NOT_OK(r.U64(&snap.wal_lsn, "wal checkpoint lsn"));
    DBW_RETURN_NOT_OK(r.U32(&snap.retry_max_attempts, "retry max attempts"));
    DBW_RETURN_NOT_OK(r.F64(&snap.retry_backoff_ms, "retry backoff ms"));
  }
  DBW_RETURN_NOT_OK(r.ExpectExhausted());
  return snap;
}

Status WriteSnapshot(const std::string& path, const ServiceSnapshot& snapshot,
                     FaultInjector* faults) {
  // The payload is serialized behind room for the header, which is
  // filled in once the payload's size and checksum are known: the file
  // image is built in one buffer.
  PayloadWriter w(kHeaderSize);
  WritePayload(&w, snapshot);
  std::string file = w.Take();
  const uint32_t version = kSnapshotFormatVersion;
  const uint64_t payload_size = file.size() - kHeaderSize;
  const uint64_t checksum = Fnv1a64(file.data() + kHeaderSize, payload_size);
  std::memcpy(&file[0], kMagic, sizeof(kMagic));
  std::memcpy(&file[8], &version, sizeof(version));
  std::memcpy(&file[12], &payload_size, sizeof(payload_size));
  std::memcpy(&file[20], &checksum, sizeof(checksum));
  return ReplaceFileDurably(path, file, faults, "snapshot");
}

Result<ServiceSnapshot> ReadSnapshot(const std::string& path) {
  std::string file;
  if (!ReadWholeFile(path, &file).ok()) {
    return Status::IoError("cannot open snapshot '" + path + "'");
  }
  return ReadSnapshotFromBytes(file, path);
}

Result<ServiceSnapshot> ReadSnapshotFromBytes(const std::string& file,
                                              const std::string& origin) {
  const std::string& path = origin;
  if (file.size() < kHeaderSize) {
    return Status::IoError("truncated snapshot '" + path + "': " +
                           std::to_string(file.size()) +
                           " bytes is smaller than the " +
                           std::to_string(kHeaderSize) + "-byte header");
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("'" + path + "' is not a DBWipes snapshot (bad magic)");
  }
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
  std::memcpy(&version, file.data() + 8, sizeof(version));
  std::memcpy(&payload_size, file.data() + 12, sizeof(payload_size));
  std::memcpy(&checksum, file.data() + 20, sizeof(checksum));
  if (version == 0 || version > kSnapshotFormatVersion) {
    // A newer (or nonsense) version must be a precise refusal, never a
    // parse attempt: the payload layout is unknown to this build.
    return Status::IoError(
        "snapshot '" + path + "' has format version " +
        std::to_string(version) + "; this build reads versions 1.." +
        std::to_string(kSnapshotFormatVersion) +
        (version > kSnapshotFormatVersion
             ? " (file was written by a newer build)"
             : ""));
  }
  if (file.size() - kHeaderSize != payload_size) {
    return Status::IoError(
        "truncated snapshot '" + path + "': header declares " +
        std::to_string(payload_size) + " payload bytes but " +
        std::to_string(file.size() - kHeaderSize) + " are present");
  }
  const uint64_t actual = Fnv1a64(file.data() + kHeaderSize, payload_size);
  if (actual != checksum) {
    return Status::IoError("snapshot '" + path +
                           "' failed its checksum (corrupt payload)");
  }
  return ParseSnapshotPayload(std::string_view(file).substr(kHeaderSize),
                              version);
}

}  // namespace dbwipes
