#include "dbwipes/expr/match_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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

Result<CompiledClause> CompileClause(const Clause& clause,
                                     const Table& table) {
  DBW_ASSIGN_OR_RETURN(size_t idx, table.schema().GetIndex(clause.attribute));
  const Column& col = table.column(idx);
  CompiledClause out;
  out.column = &col;
  out.op = clause.op;
  out.is_string = col.type() == DataType::kString;

  // Literal translation mirrors Predicate::Bind clause for clause —
  // including the error messages — so engine users see unchanged
  // failure behavior on ill-typed predicates.
  switch (clause.op) {
    case CompareOp::kEq:
    case CompareOp::kNe:
      if (out.is_string) {
        if (!clause.literal.is_string()) {
          return Status::TypeError("comparing string column '" +
                                   clause.attribute + "' to " +
                                   clause.literal.ToString());
        }
        // Normalize FindCode's -1 (absent literal) to -2: -1 is the
        // null sentinel in code_data(), and a null row must not
        // compare equal to an absent literal.
        out.code = col.FindCode(clause.literal.str());
        if (out.code < 0) out.code = -2;
      } else {
        DBW_ASSIGN_OR_RETURN(out.threshold, clause.literal.AsDouble());
      }
      break;
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe: {
      if (out.is_string) {
        return Status::TypeError("ordered comparison on string column '" +
                                 clause.attribute + "'");
      }
      DBW_ASSIGN_OR_RETURN(out.threshold, clause.literal.AsDouble());
      break;
    }
    case CompareOp::kIn:
      if (out.is_string) {
        out.code_table.assign(col.dictionary_size() + 1, 0);
        for (const Value& v : clause.in_set) {
          if (!v.is_string()) {
            return Status::TypeError("IN set for string column '" +
                                     clause.attribute + "' contains " +
                                     v.ToString());
          }
          const int32_t code = col.FindCode(v.str());
          if (code >= 0) out.code_table[code + 1] = 1;
        }
      } else {
        for (const Value& v : clause.in_set) {
          DBW_ASSIGN_OR_RETURN(double d, v.AsDouble());
          // NaN is IN nothing under Value equality; it would also
          // break binary_search's ordering.
          if (!std::isnan(d)) out.in_numbers.push_back(d);
        }
        std::sort(out.in_numbers.begin(), out.in_numbers.end());
      }
      break;
    case CompareOp::kContains: {
      if (!out.is_string) {
        return Status::TypeError("CONTAINS on non-string column '" +
                                 clause.attribute + "'");
      }
      if (!clause.literal.is_string()) {
        return Status::TypeError("CONTAINS needs a string literal");
      }
      // One substring search per distinct string, not per row.
      const std::string& sub = clause.literal.str();
      out.code_table.assign(col.dictionary_size() + 1, 0);
      for (size_t code = 0; code < col.dictionary_size(); ++code) {
        if (col.DictionaryValue(static_cast<int32_t>(code)).find(sub) !=
            std::string::npos) {
          out.code_table[code + 1] = 1;
        }
      }
      break;
    }
  }
  return out;
}

MatchEngine::MatchEngine(const Table& table, std::vector<RowId> rows)
    : table_(&table),
      rows_(std::move(rows)),
      built_num_rows_(table.num_rows()),
      universe_(ScanUniverse::Of(rows_)),
      tier_(ResolveSimdTier()) {}

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

Result<size_t> MatchEngine::LookupClause(const Clause& clause,
                                         ResourceBudget* budget,
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
  Result<CompiledClause> compiled = CompileClause(clause, *table_);
  if (compiled.ok()) {
    if (budget != nullptr) {
      DBW_RETURN_NOT_OK(budget->ChargeBitmapBytes((rows_.size() + 63) / 64 *
                                                  sizeof(uint64_t)));
    }
    entry.bits = Bitmap(rows_.size());
    scans->push_back({entries_.size(), {}});
    AppendClauseOp(*compiled, EnsureValidity(*compiled),
                   &scans->back().program);
  } else {
    // Cached with its error, which is Bind's error for the clause.
    entry.status = compiled.status();
  }
  const size_t slot = entries_.size();
  index_.emplace(std::move(key), slot);
  entries_.push_back(std::move(entry));
  return slot;
}

const MatchEngine::ClauseEntry& MatchEngine::EnsureClause(
    const Clause& clause) {
  std::vector<PendingScan> scans;
  const size_t slot = *LookupClause(clause, /*budget=*/nullptr, &scans);
  for (const PendingScan& scan : scans) {
    Bitmap& bits = entries_[scan.slot].bits;
    EvalWords(scan.program, 0, bits.num_words(), &bits);
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
    for (const Clause& c : predicate->clauses()) {
      Result<size_t> slot = LookupClause(c, ctx.budget, &scans);
      if (!slot.ok()) {
        rollback();
        return slot.status();
      }
    }
  }

  const size_t num_words = (rows_.size() + 63) / 64;
  constexpr size_t kWordsPerChunk = 256;  // 16k rows per kernel call
  if (!scans.empty() && scans.size() * rows_.size() < (size_t{1} << 16)) {
    // Small batch: chunking + pool dispatch overhead beats any
    // parallel win; scan serially with a stop check per clause.
    for (size_t j = 0; j < scans.size() && !ctx.StopRequested(); ++j) {
      EvalWords(scans[j].program, 0, num_words, &entries_[scans[j].slot].bits);
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
            const PendingScan& scan = scans[item / chunks_per_clause];
            const size_t word_begin =
                (item % chunks_per_clause) * kWordsPerChunk;
            const size_t word_end =
                std::min(num_words, word_begin + kWordsPerChunk);
            if (word_begin < word_end) {
              EvalWords(scan.program, word_begin, word_end,
                        &entries_[scan.slot].bits);
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

const Bitmap* MatchEngine::EnsureValidity(const CompiledClause& cc) {
  // String kernels read the null sentinel code; a column without nulls
  // needs no mask.
  if (cc.is_string || !cc.column->has_nulls()) return nullptr;
  auto [it, inserted] = validity_.try_emplace(cc.column);
  if (inserted) it->second = ValidityBitmap(*cc.column, universe_);
  return &it->second;
}

void MatchEngine::EvalWords(const FusedProgram& prog, size_t word_begin,
                            size_t word_end, Bitmap* out) const {
  EvalFusedWords(prog, tier_, universe_, word_begin, word_end, out);
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
