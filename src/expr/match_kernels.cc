#include "dbwipes/expr/match_kernels.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <unordered_set>

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
  MetricCounter* fused_lookups;
  MetricCounter* fused_hits;
  MetricCounter* fused_compiles;
  MetricCounter* fused_fallbacks;
  MetricCounter* fused_evals;
};

const MatchMetrics& Metrics() {
  static const MatchMetrics m = {
      MetricsRegistry::Global().GetCounter("match.materialize_calls"),
      MetricsRegistry::Global().GetCounter("match.clause_lookups"),
      MetricsRegistry::Global().GetCounter("match.cache_hits"),
      MetricsRegistry::Global().GetCounter("match.cache_misses"),
      MetricsRegistry::Global().GetCounter("match.bitmaps_materialized"),
      MetricsRegistry::Global().GetCounter("match.fused_lookups"),
      MetricsRegistry::Global().GetCounter("match.fused_hits"),
      MetricsRegistry::Global().GetCounter("match.fused_compiles"),
      MetricsRegistry::Global().GetCounter("match.fused_fallbacks"),
      MetricsRegistry::Global().GetCounter("match.fused_evals"),
  };
  return m;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
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

/// Canonical fused-program key: the predicate's clause keys, sorted
/// (conjunctions are order-independent) and joined on a separator one
/// level above KeyOf's field separator. Two predicates with the same
/// clause set share one compiled program.
std::string PredicateKey(std::vector<std::string> clause_keys) {
  std::sort(clause_keys.begin(), clause_keys.end());
  std::string out;
  for (const std::string& k : clause_keys) {
    if (!out.empty()) out += '\x1e';
    out += k;
  }
  return out;
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
      tier_(ResolveSimdTier()) {
  // A contiguous universe (the common full-table / dense-suspect case)
  // lets the SIMD tier use plain loads instead of gathers.
  rows_contiguous_ = true;
  for (size_t i = 1; i < rows_.size(); ++i) {
    if (rows_[i] != rows_[0] + i) {
      rows_contiguous_ = false;
      break;
    }
  }
}

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

MatchEngine::ClauseEntry* MatchEngine::EnsureClause(const Clause& clause,
                                                    const std::string& key) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    ++cache_hits_;
    Metrics().clause_lookups->Increment();
    Metrics().cache_hits->Increment();
    return &entries_[it->second];
  }
  ++cache_misses_;
  Metrics().clause_lookups->Increment();
  Metrics().cache_misses->Increment();
  ClauseEntry entry;
  Result<CompiledClause> compiled = CompileClause(clause, *table_);
  if (compiled.ok()) {
    FusedProgram prog;
    AppendClauseOp(*compiled, EnsureValidity(*compiled, nullptr), &prog);
    entry.bits = Bitmap(rows_.size());
    EvalWords(prog, nullptr, 0, entry.bits.num_words(), &entry.bits);
    ++bitmaps_materialized_;
    Metrics().bitmaps_materialized->Increment();
  } else {
    // Cached with its error, which is Bind's error for the clause.
    entry.status = compiled.status();
  }
  const size_t slot = entries_.size();
  index_.emplace(key, slot);
  entries_.push_back(std::move(entry));
  return &entries_[slot];
}

Status MatchEngine::Materialize(
    const std::vector<const Predicate*>& predicates,
    const ParallelOptions& options) {
  DBW_RETURN_NOT_OK(CheckFresh());
  const ExecContext& ctx =
      options.ctx != nullptr ? *options.ctx : ExecContext::None();
  DBW_FAULT(ctx, "match/materialize");
  // Fused-conjunction planning is part of every materialize batch
  // (nothing has been mutated yet; an injected error needs no rollback).
  DBW_FAULT(ctx, "match/fused");
  DBW_TRACE_SPAN("match/materialize");
  Metrics().materialize_calls->Increment();

  // State added by this call lives at the tail of entries_ /
  // fused_entries_; on an interrupt or failure it is rolled back
  // wholesale so the cache never holds a partially scanned (i.e.
  // wrong) bitmap or a program referencing one.
  const size_t entries_base = entries_.size();
  const size_t fused_base = fused_entries_.size();
  std::vector<const Column*> validity_added;
  auto rollback = [&] {
    for (auto it = index_.begin(); it != index_.end();) {
      if (it->second >= entries_base) {
        it = index_.erase(it);
      } else {
        ++it;
      }
    }
    entries_.resize(entries_base);
    for (auto it = fused_index_.begin(); it != fused_index_.end();) {
      if (it->second >= fused_base) {
        it = fused_index_.erase(it);
      } else {
        ++it;
      }
    }
    fused_entries_.resize(fused_base);
    for (const Column* col : validity_added) validity_.erase(col);
  };

  // Pass 0 (serial): canonicalize every clause once and count each
  // key's frequency within the batch. Frequency drives the fusion
  // policy: a clause shared by several predicates (threshold families,
  // repeated equalities) is cheaper materialized once and word-ANDed —
  // fusing it would re-scan its column per predicate.
  std::vector<std::vector<std::string>> pred_keys(predicates.size());
  std::unordered_map<std::string, size_t> key_freq;
  for (size_t i = 0; i < predicates.size(); ++i) {
    const auto& clauses = predicates[i]->clauses();
    pred_keys[i].reserve(clauses.size());
    for (const Clause& c : clauses) {
      pred_keys[i].push_back(KeyOf(c));
      ++key_freq[pred_keys[i].back()];
    }
  }

  // Batch-local compile cache shared by the fused planner and the
  // clause materializer, so no clause compiles twice per batch.
  // unordered_map values are pointer-stable across inserts.
  std::unordered_map<std::string, Result<CompiledClause>> compiled;
  auto compile_key = [&](const Clause& c, const std::string& key)
      -> const Result<CompiledClause>& {
    auto it = compiled.find(key);
    if (it == compiled.end()) {
      it = compiled.emplace(key, CompileClause(c, *table_)).first;
    }
    return it->second;
  };

  // Pass 1 (serial): plan fused programs for multi-clause predicates.
  // A clause goes inline iff it is unique within the batch AND not
  // already cached (a cached bitmap is pure word-AND traffic); shared
  // or cached clauses enter the program as bitmap references. When no
  // clause would go inline, fusion buys nothing over word-AND and the
  // predicate falls back. Every eligible predicate counts exactly one
  // of hit / compile / fallback (the fused counter law).
  struct PlannedOp {
    const std::string* key;          // owned by pred_keys
    const Clause* clause;
    bool inline_op;
  };
  struct PlannedProgram {
    std::string pred_key;
    std::vector<PlannedOp> ops;
  };
  std::vector<PlannedProgram> planned;
  std::unordered_set<std::string> planned_keys;  // batch-local dedupe
  // handled[i]: 0 = word-AND path, 1 = program planned or cached.
  std::vector<uint8_t> handled(predicates.size(), 0);
  const auto plan_t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (pred_keys[i].size() < 2) continue;  // nothing to fuse
    ++fused_lookups_;
    Metrics().fused_lookups->Increment();
    std::string pred_key = PredicateKey(pred_keys[i]);
    if (fused_index_.count(pred_key) != 0 ||
        planned_keys.count(pred_key) != 0) {
      ++fused_hits_;
      Metrics().fused_hits->Increment();
      handled[i] = 1;
      continue;
    }
    PlannedProgram plan;
    plan.pred_key = std::move(pred_key);
    const auto& clauses = predicates[i]->clauses();
    bool fusible = true;
    size_t inline_count = 0;
    for (size_t j = 0; j < clauses.size(); ++j) {
      PlannedOp op{&pred_keys[i][j], &clauses[j], false};
      auto cached = index_.find(*op.key);
      // A clause that does not compile has no bitmap to reference or
      // op to inline; the word-AND path returns its cached error.
      if (cached != index_.end()) {
        if (!entries_[cached->second].status.ok()) {
          fusible = false;
          break;
        }
      } else {
        if (!compile_key(clauses[j], *op.key).ok()) {
          fusible = false;
          break;
        }
        op.inline_op = key_freq[*op.key] == 1;
        inline_count += op.inline_op ? 1 : 0;
      }
      plan.ops.push_back(op);
    }
    if (!fusible || inline_count == 0) {
      ++fused_fallbacks_;
      Metrics().fused_fallbacks->Increment();
      continue;
    }
    ++fused_compiles_;
    Metrics().fused_compiles->Increment();
    handled[i] = 1;
    planned_keys.insert(plan.pred_key);
    planned.push_back(std::move(plan));
  }
  fused_compile_ms_ += MsSince(plan_t0);

  // Pass 2 (serial): dedupe and compile the distinct new clauses that
  // still need cached bitmaps — every clause of word-AND predicates,
  // but only the bitmap-reference clauses of planned programs (inline
  // clauses are the fusion win: no intermediate bitmap exists).
  std::vector<size_t> fresh;  // entry slots awaiting a scan
  std::vector<FusedProgram> programs;  // index-aligned with fresh
  const size_t bitmap_bytes = ((rows_.size() + 63) / 64) * sizeof(uint64_t);
  auto ensure_entry = [&](const Clause& c, const std::string& key) -> Status {
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++cache_hits_;
      Metrics().clause_lookups->Increment();
      Metrics().cache_hits->Increment();
      return Status::OK();
    }
    ++cache_misses_;
    Metrics().clause_lookups->Increment();
    Metrics().cache_misses->Increment();
    ClauseEntry entry;
    const Result<CompiledClause>& cc = compile_key(c, key);
    if (cc.ok()) {
      if (ctx.budget != nullptr) {
        DBW_RETURN_NOT_OK(ctx.budget->ChargeBitmapBytes(bitmap_bytes));
      }
      entry.bits = Bitmap(rows_.size());
      fresh.push_back(entries_.size());
      programs.emplace_back();
      AppendClauseOp(*cc, EnsureValidity(*cc, &validity_added),
                     &programs.back());
    } else {
      entry.status = cc.status();
    }
    index_.emplace(key, entries_.size());
    entries_.push_back(std::move(entry));
    return Status::OK();
  };
  for (size_t i = 0; i < predicates.size(); ++i) {
    Status st = Status::OK();
    if (handled[i] != 0) {
      // Planned programs need entries only for their references; fused
      // cache hits are fully covered by the existing program.
      continue;
    }
    const auto& clauses = predicates[i]->clauses();
    for (size_t j = 0; j < clauses.size() && st.ok(); ++j) {
      st = ensure_entry(clauses[j], pred_keys[i][j]);
    }
    if (!st.ok()) {
      rollback();
      return st;
    }
  }
  for (const PlannedProgram& plan : planned) {
    for (const PlannedOp& op : plan.ops) {
      if (op.inline_op) continue;
      Status st = ensure_entry(*op.clause, *op.key);
      if (!st.ok()) {
        rollback();
        return st;
      }
    }
  }

  // Pass 3 (serial): lower the planned programs. Reference slots store
  // entries_ indices (resolved to bitmap pointers per eval, so the
  // vector may relocate); inline numeric ops over nullable columns get
  // the shared universe validity bitmap.
  if (!planned.empty()) {
    const auto lower_t0 = std::chrono::steady_clock::now();
    for (PlannedProgram& plan : planned) {
      FusedEntry fe;
      for (const PlannedOp& op : plan.ops) {
        if (op.inline_op) {
          const CompiledClause& cc = *compiled.at(*op.key);
          AppendClauseOp(cc, EnsureValidity(cc, &validity_added),
                         &fe.program);
        } else {
          AppendBitmapRef(static_cast<uint32_t>(fe.ref_entries.size()),
                          &fe.program);
          fe.ref_entries.push_back(index_.at(*op.key));
        }
      }
      fused_index_.emplace(std::move(plan.pred_key), fused_entries_.size());
      fused_entries_.push_back(std::move(fe));
    }
    fused_compile_ms_ += MsSince(lower_t0);
  }

  // Pass 4: scan the fresh clause bitmaps (one-op programs).
  const size_t num_words = (rows_.size() + 63) / 64;
  constexpr size_t kWordsPerChunk = 256;  // 16k rows per kernel call
  if (!fresh.empty() &&
      fresh.size() * rows_.size() < (size_t{1} << 16)) {
    // Small batch: chunking + pool dispatch overhead beats any
    // parallel win; scan serially with a stop check per clause.
    for (size_t j = 0; j < fresh.size() && !ctx.StopRequested(); ++j) {
      EvalWords(programs[j], nullptr, 0, num_words, &entries_[fresh[j]].bits);
    }
  } else if (!fresh.empty()) {
    // One flat work list of (clause, word-chunk) items; every item owns
    // whole words of one bitmap, so chunk boundaries (and therefore the
    // output) are deterministic at any thread count.
    const size_t chunks_per_clause =
        std::max<size_t>(1, (num_words + kWordsPerChunk - 1) / kWordsPerChunk);
    try {
      ParallelForEach(
          0, fresh.size() * chunks_per_clause,
          [&](size_t item) {
            const size_t j = item / chunks_per_clause;
            const size_t k = item % chunks_per_clause;
            const size_t word_begin = k * kWordsPerChunk;
            const size_t word_end =
                std::min(num_words, word_begin + kWordsPerChunk);
            if (word_begin < word_end) {
              EvalWords(programs[j], nullptr, word_begin, word_end,
                        &entries_[fresh[j]].bits);
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
  // incomplete; drop them — and the programs referencing them — so a
  // later retry rebuilds from scratch.
  Status cont = ctx.CheckContinue();
  if (!cont.ok()) {
    rollback();
    return cont;
  }
  // Only fully scanned bitmaps count as materialized (rolled-back
  // partial scans never reach here).
  bitmaps_materialized_ += fresh.size();
  Metrics().bitmaps_materialized->Increment(fresh.size());
  return cont;
}

const Bitmap* MatchEngine::EnsureValidity(const CompiledClause& cc,
                                          std::vector<const Column*>* added) {
  // String kernels read the null sentinel code; a column without nulls
  // needs no mask.
  if (cc.is_string || !cc.column->has_nulls()) return nullptr;
  const Column& col = *cc.column;
  auto it = validity_.find(&col);
  if (it != validity_.end()) return it->second.get();
  // Universe-positional: bit i answers !IsNull(rows_[i]). Heap-owned so
  // op pointers survive map rehashes and engine moves.
  auto bits = std::make_unique<Bitmap>(rows_.size());
  Bitmap* raw = bits.get();
  const size_t num_words = raw->num_words();
  for (size_t wi = 0; wi < num_words; ++wi) {
    const size_t base = wi * 64;
    const size_t limit = std::min<size_t>(64, rows_.size() - base);
    uint64_t w = 0;
    for (size_t b = 0; b < limit; ++b) {
      w |= static_cast<uint64_t>(!col.IsNull(rows_[base + b])) << b;
    }
    raw->set_word(wi, w);
  }
  validity_.emplace(&col, std::move(bits));
  if (added != nullptr) added->push_back(&col);
  return raw;
}

void MatchEngine::EvalWords(const FusedProgram& prog,
                            const Bitmap* const* refs, size_t word_begin,
                            size_t word_end, Bitmap* out) const {
  EvalFusedWords(prog, tier_, rows_.data(), rows_.size(), rows_contiguous_,
                 refs, word_begin, word_end, out);
}

Result<Bitmap> MatchEngine::EvalFused(const FusedEntry& fe,
                                      const ExecContext& ctx) const {
  // Resolve reference slots to bitmap pointers now — entries_ may have
  // relocated since the program was installed.
  std::vector<const Bitmap*> refs;
  refs.reserve(fe.ref_entries.size());
  for (size_t slot : fe.ref_entries) refs.push_back(&entries_[slot].bits);
  Bitmap out(rows_.size());
  const size_t num_words = out.num_words();
  // Anytime at block granularity: check the context between word
  // blocks, never per row; an interrupt discards the partial bitmap.
  constexpr size_t kCheckWords = 512;  // 32k rows per check
  for (size_t wb = 0; wb < num_words; wb += kCheckWords) {
    DBW_RETURN_NOT_OK(ctx.CheckContinue());
    const size_t we = std::min(num_words, wb + kCheckWords);
    EvalWords(fe.program, refs.data(), wb, we, &out);
  }
  return out;
}

Result<Bitmap> MatchEngine::MatchPrepared(const Predicate& predicate) const {
  return MatchPrepared(predicate, ExecContext::None());
}

Result<Bitmap> MatchEngine::MatchPrepared(const Predicate& predicate,
                                          const ExecContext& ctx) const {
  DBW_RETURN_NOT_OK(CheckFresh());
  if (predicate.num_clauses() >= 2) {
    std::vector<std::string> keys;
    keys.reserve(predicate.num_clauses());
    for (const Clause& c : predicate.clauses()) keys.push_back(KeyOf(c));
    auto it = fused_index_.find(PredicateKey(std::move(keys)));
    if (it != fused_index_.end()) {
      fused_evals_.fetch_add(1, std::memory_order_relaxed);
      Metrics().fused_evals->Increment();
      return EvalFused(fused_entries_[it->second], ctx);
    }
  }
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
  for (const Clause& c : predicate.clauses()) {
    EnsureClause(c, KeyOf(c));
  }
  return MatchPrepared(predicate);
}

Result<const Bitmap*> MatchEngine::ClauseBitmap(const Clause& clause) {
  DBW_RETURN_NOT_OK(CheckFresh());
  ClauseEntry* entry = EnsureClause(clause, KeyOf(clause));
  DBW_RETURN_NOT_OK(entry->status);
  return &entry->bits;
}

}  // namespace dbwipes
