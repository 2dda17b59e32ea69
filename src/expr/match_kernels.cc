#include "dbwipes/expr/match_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/common/logging.h"
#include "dbwipes/common/metrics.h"
#include "dbwipes/common/trace.h"

namespace dbwipes {

namespace {

/// Process-wide counters, mirrored from the per-engine members so the
/// Service `stats` snapshot can report matching behavior across every
/// engine instance. Pointers are resolved once; increments are relaxed
/// atomics on cold-ish paths (per clause lookup / per materialize
/// call), never per row.
struct MatchMetrics {
  MetricCounter* materialize_calls;
  MetricCounter* clause_lookups;
  MetricCounter* cache_hits;
  MetricCounter* cache_misses;
  MetricCounter* bitmaps_materialized;
};

const MatchMetrics& Metrics() {
  static const MatchMetrics m = {
      MetricsRegistry::Global().GetCounter("match.materialize_calls"),
      MetricsRegistry::Global().GetCounter("match.clause_lookups"),
      MetricsRegistry::Global().GetCounter("match.cache_hits"),
      MetricsRegistry::Global().GetCounter("match.cache_misses"),
      MetricsRegistry::Global().GetCounter("match.bitmaps_materialized"),
  };
  return m;
}

/// Exact cache key for a clause. Clause::CanonicalString renders
/// doubles at display precision, which can collapse distinct
/// thresholds into one string; the cache key must never do that, so
/// doubles are encoded by bit pattern. IN sets are sorted by encoding
/// (conjunction members are order-independent ORs).
std::string EncodeValue(const Value& v) {
  if (v.is_null()) return "n";
  if (v.is_int64()) return "i" + std::to_string(v.int64());
  if (v.is_double()) {
    const double d = v.dbl();
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return "d" + std::to_string(bits);
  }
  return "s" + v.str();
}

std::string KeyOf(const Clause& c) {
  std::string key = c.attribute;
  key += '\x1f';
  key += std::to_string(static_cast<int>(c.op));
  if (c.op == CompareOp::kIn) {
    std::vector<std::string> parts;
    parts.reserve(c.in_set.size());
    for (const Value& v : c.in_set) parts.push_back(EncodeValue(v));
    std::sort(parts.begin(), parts.end());
    for (const std::string& p : parts) {
      key += '\x1f';
      key += p;
    }
  } else {
    key += '\x1f';
    key += EncodeValue(c.literal);
  }
  return key;
}

}  // namespace

Result<ClauseScan> CompileClause(const Clause& clause, const Table& table) {
  DBW_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(clause.attribute));
  ClauseScan out;
  out.column = col;
  out.op = clause.op;
  if (col->type() == DataType::kString) {
    out.codes = col->code_data().data();
    const bool by_code = clause.literal.is_string() &&
                         (clause.op == CompareOp::kEq ||
                          clause.op == CompareOp::kNe);
    if (by_code) {
      out.body = clause.op == CompareOp::kEq ? ClauseScan::Body::kCodeEq
                                             : ClauseScan::Body::kCodeNe;
      // FindCode's -1 (absent literal) becomes -2: -1 is the null
      // sentinel in code_data(), and a null row must not equal it.
      out.code = col->FindCode(clause.literal.str());
      if (out.code < 0) out.code = -2;
      return out;
    }
    out.body = ClauseScan::Body::kCodeTable;
    out.table.assign(col->dictionary_size() + 1, 0);
    if (clause.op == CompareOp::kIn) {
      for (const Value& v : clause.in_set) {
        // A string equals no other type; an absent string is code -1.
        const int32_t code = v.is_string() ? col->FindCode(v.str()) : -1;
        if (code >= 0) out.table[code + 1] = 1;
      }
    } else {
      for (size_t code = 0; code < col->dictionary_size(); ++code) {
        out.table[code + 1] = clause.Matches(
            Value(col->DictionaryValue(static_cast<int32_t>(code))));
      }
    }
    return out;
  }

  // The body picks the storage loader; op picks the comparison.
  if (col->type() == DataType::kInt64) {
    out.body = ClauseScan::Body::kInt64Cmp;
    out.i64 = col->int64_data().data();
  } else {
    out.body = ClauseScan::Body::kDoubleCmp;
    out.dbl = col->double_data().data();
  }
  if (clause.op == CompareOp::kIn) {
    for (const Value& v : clause.in_set) {
      if (!v.is_numeric()) continue;  // a number equals no other type
      // NaN is IN nothing under Value equality; it would also break
      // binary_search's ordering.
      const double d = *v.AsDouble();
      if (!std::isnan(d)) out.in_set.push_back(d);
    }
    std::sort(out.in_set.begin(), out.in_set.end());
  } else if (clause.op != CompareOp::kContains && clause.literal.is_numeric()) {
    out.threshold = *clause.literal.AsDouble();
  } else {
    // Every number, NaN included, gets this one answer; != NaN holds
    // for every double and == NaN for none.
    out.op = clause.Matches(Value(0.0)) ? CompareOp::kNe : CompareOp::kEq;
    out.threshold = std::numeric_limits<double>::quiet_NaN();
  }
  return out;
}

MatchEngine::MatchEngine(const Table& table, std::vector<RowId> rows)
    : table_(&table),
      rows_(std::move(rows)),
      built_num_rows_(table.num_rows()),
      universe_(ScanUniverse::Of(rows_)),
      tier_(ResolveSimdTier()),
      validity_(universe_) {}

Status MatchEngine::CheckFresh() const {
  if (table_->num_rows() != built_num_rows_) {
    return Status::InvalidArgument(
        "MatchEngine cache is stale: table '" + table_->name() + "' grew " +
        std::to_string(built_num_rows_) + " -> " +
        std::to_string(table_->num_rows()) +
        " rows since the engine was built; rebuild the engine");
  }
  return Status::OK();
}

size_t MatchEngine::LookupClause(const Clause& clause,
                                 std::vector<PendingScan>* scans) {
  std::string key = KeyOf(clause);
  Metrics().clause_lookups->Increment();
  auto it = index_.find(key);
  if (it != index_.end()) {
    ++cache_hits_;
    Metrics().cache_hits->Increment();
    return it->second;
  }
  ++cache_misses_;
  Metrics().cache_misses->Increment();
  ClauseEntry entry;
  Result<ClauseScan> compiled = CompileClause(clause, *table_);
  if (compiled.ok()) {
    entry.bits = Bitmap(rows_.size());
    const Bitmap* valid = validity_.For(*compiled);
    scans->push_back({entries_.size(), *std::move(compiled), valid});
  } else {
    entry.status = compiled.status();  // an unknown column
  }
  const size_t slot = entries_.size();
  index_.emplace(std::move(key), slot);
  entries_.push_back(std::move(entry));
  return slot;
}

const MatchEngine::ClauseEntry& MatchEngine::EnsureClause(
    const Clause& clause) {
  std::vector<PendingScan> scans;
  const size_t slot = LookupClause(clause, &scans);
  for (const PendingScan& scan : scans) {
    EvalWords(scan, 0, entries_[scan.slot].bits.num_words());
  }
  bitmaps_materialized_ += scans.size();
  Metrics().bitmaps_materialized->Increment(scans.size());
  return entries_[slot];
}

Status MatchEngine::Materialize(
    const std::vector<const Predicate*>& predicates,
    const ParallelOptions& options) {
  DBW_RETURN_NOT_OK(CheckFresh());
  const ExecContext& ctx =
      options.ctx != nullptr ? *options.ctx : ExecContext::None();
  DBW_FAULT(ctx, "match/materialize");
  DBW_TRACE_SPAN("match/materialize");
  Metrics().materialize_calls->Increment();

  // Entries added by this call live at the tail of entries_; on an
  // interrupt or failure they are rolled back wholesale so the cache
  // never holds a partially scanned (i.e. wrong) bitmap.
  const size_t entries_base = entries_.size();
  auto rollback = [&] {
    for (auto it = index_.begin(); it != index_.end();) {
      if (it->second >= entries_base) {
        it = index_.erase(it);
      } else {
        ++it;
      }
    }
    entries_.resize(entries_base);
  };

  // Serial: one lookup per clause occurrence; each distinct new clause
  // compiles once and queues its scan.
  std::vector<PendingScan> scans;
  for (const Predicate* predicate : predicates) {
    for (const Clause& c : predicate->clauses()) LookupClause(c, &scans);
  }

  const size_t num_words = (rows_.size() + 63) / 64;
  constexpr size_t kWordsPerChunk = 256;  // 16k rows per kernel call
  if (!scans.empty() && scans.size() * rows_.size() < (size_t{1} << 16)) {
    // Small batch: chunking + pool dispatch overhead beats any
    // parallel win; scan serially with a stop check per clause.
    for (size_t j = 0; j < scans.size() && !ctx.StopRequested(); ++j) {
      EvalWords(scans[j], 0, num_words);
    }
  } else if (!scans.empty()) {
    // One flat work list of (clause, word-chunk) items; every item owns
    // whole words of one bitmap, so chunk boundaries (and therefore the
    // output) are deterministic at any thread count.
    const size_t chunks_per_clause =
        std::max<size_t>(1, (num_words + kWordsPerChunk - 1) / kWordsPerChunk);
    try {
      ParallelForEach(
          0, scans.size() * chunks_per_clause,
          [&](size_t item) {
            const size_t word_begin =
                (item % chunks_per_clause) * kWordsPerChunk;
            const size_t word_end =
                std::min(num_words, word_begin + kWordsPerChunk);
            if (word_begin < word_end) {
              EvalWords(scans[item / chunks_per_clause], word_begin,
                        word_end);
            }
          },
          options);
    } catch (const std::exception& e) {
      rollback();
      return Status::RuntimeError(std::string("materialize scan failed: ") +
                                  e.what());
    }
  }
  // A cooperative stop skips scan chunks, leaving fresh bitmaps
  // incomplete; drop them so a later retry rebuilds from scratch.
  Status cont = ctx.CheckContinue();
  if (!cont.ok()) {
    rollback();
    return cont;
  }
  // Only fully scanned bitmaps count as materialized (rolled-back
  // partial scans never reach here).
  bitmaps_materialized_ += scans.size();
  Metrics().bitmaps_materialized->Increment(scans.size());
  return cont;
}

void MatchEngine::EvalWords(const PendingScan& scan, size_t word_begin,
                            size_t word_end) {
  EvalFusedWords(scan.scan, scan.valid, tier_, universe_, word_begin,
                 word_end, &entries_[scan.slot].bits);
}

Result<Bitmap> MatchEngine::MatchPrepared(const Predicate& predicate) const {
  DBW_RETURN_NOT_OK(CheckFresh());
  Bitmap out;
  bool first = true;
  for (const Clause& c : predicate.clauses()) {
    auto it = index_.find(KeyOf(c));
    if (it == index_.end()) {
      return Status::InvalidArgument(
          "MatchPrepared: clause was not materialized: " + c.ToString());
    }
    const ClauseEntry& entry = entries_[it->second];
    DBW_RETURN_NOT_OK(entry.status);
    if (first) {
      out = entry.bits;
      first = false;
    } else {
      out.AndWith(entry.bits);
    }
  }
  if (first) {
    out = Bitmap(rows_.size());
    out.SetAll();  // the empty conjunction matches every row
  }
  return out;
}

Result<Bitmap> MatchEngine::Match(const Predicate& predicate) {
  DBW_RETURN_NOT_OK(CheckFresh());
  for (const Clause& c : predicate.clauses()) EnsureClause(c);
  return MatchPrepared(predicate);
}

Result<const Bitmap*> MatchEngine::ClauseBitmap(const Clause& clause) {
  DBW_RETURN_NOT_OK(CheckFresh());
  const ClauseEntry& entry = EnsureClause(clause);
  DBW_RETURN_NOT_OK(entry.status);
  return &entry.bits;
}

}  // namespace dbwipes
