#ifndef DBWIPES_EXPR_MATCH_KERNELS_H_
#define DBWIPES_EXPR_MATCH_KERNELS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbwipes/common/bitmap.h"
#include "dbwipes/common/parallel.h"
#include "dbwipes/common/result.h"
#include "dbwipes/expr/fused_kernels.h"
#include "dbwipes/expr/predicate.h"
#include "dbwipes/storage/table.h"

namespace dbwipes {

/// \brief A clause translated once into a typed form that AppendClauseOp
/// lowers into a fused-program op (fused_kernels.h).
///
/// Numeric clauses become a double comparison against the column's
/// flat int64/double storage (int64 widens to double exactly like
/// Column::AsDouble). String clauses are translated to dictionary-code
/// comparisons: kEq/kNe compare a single code, kIn/kContains gather
/// through a per-code truth table built once from the dictionary (so a
/// CONTAINS scan costs one substring search per *distinct string*, not
/// per row). Null rows never match; string kernels exploit the code -1
/// null sentinel, numeric kernels fold the validity vector in without
/// per-row branching on boxed values.
///
/// Match semantics are identical to Clause::Matches (the boxed
/// row-at-a-time path): kLe/kGe are the negated strict comparisons, so
/// NaN cells satisfy kLe/kGe/kNe and nothing else; a NaN probe is IN
/// nothing; a string literal absent from the dictionary (FindCode ==
/// -1) makes kEq match nothing and kNe match every non-null row.
struct CompiledClause {
  const Column* column = nullptr;
  CompareOp op = CompareOp::kEq;
  bool is_string = false;
  /// Numeric binary comparisons.
  double threshold = 0.0;
  /// String kEq/kNe dictionary code; -2 = literal absent.
  int32_t code = -2;
  /// kIn over numerics: sorted, NaN-free.
  std::vector<double> in_numbers;
  /// String kIn/kContains: truth per dictionary code, shifted by one so
  /// index 0 answers the null sentinel code -1 (always false).
  std::vector<uint8_t> code_table;
};

/// Translates `clause` against `table`. Returns exactly the errors
/// Predicate::Bind would (ordered comparison on a string column,
/// string/numeric literal mismatches, ...), so engine users see
/// unchanged failure behavior.
Result<CompiledClause> CompileClause(const Clause& clause, const Table& table);

/// \brief Vectorized conjunction matching with a shared clause-bitmap
/// cache.
///
/// Bound to one table and one row universe (e.g. the suspect set F, a
/// selectivity sample, or the union of a result's lineage). Enumerators
/// emit many conjunctions sharing single-attribute clauses — threshold
/// families on one column, repeated categorical equalities — so the
/// engine canonicalizes each clause to a key, materializes its bitmap
/// ONCE as a one-op FusedProgram run by the fused evaluator (so clause
/// scans take the same SIMD tier as conjunctions), and matches a
/// conjunction by ANDing cached words. A clause CompileClause rejects
/// is cached with its error, which is the error Bind gives for that
/// clause; every match that needs the clause returns it.
///
/// The engine is a snapshot: it caches bitmaps against the table size
/// at construction, and every Match checks that the table has not
/// grown since (append invalidates; rebuild the engine). See DESIGN.md
/// §5d.
///
/// Fused conjunctions (DESIGN.md §5i): Materialize additionally lowers
/// multi-clause predicates whose clauses are unique within the batch
/// into one-pass FusedPrograms — per 64-row block every clause becomes
/// a register word ANDed in place, with no intermediate per-clause
/// bitmaps — dispatched to a cpuid-selected SIMD tier (DBWIPES_SIMD=off
/// forces the bit-identical scalar tier). Clauses shared across the
/// batch (threshold families, repeated equalities) stay on the
/// materialize-once + word-AND path and enter fused programs as cached
/// bitmap references. Programs are cached keyed by the sorted canonical
/// clause-key set, so shard engines reuse compilations across
/// re-explains.
///
/// Thread safety: Materialize() mutates the cache (its own scans run
/// chunked on the PR-1 ParallelFor; output is deterministic at any
/// thread count because chunk boundaries depend only on sizes).
/// MatchPrepared() is const and touches only cached state, so any
/// number of threads may call it concurrently after Materialize().
class MatchEngine {
 public:
  MatchEngine(const Table& table, std::vector<RowId> rows);

  // Movable (the atomic counters are carried over by value; no
  // concurrent use may straddle a move). Fused-program op pointers
  // into the pools and validity bitmaps survive the move: the pointed
  // heap buffers do not relocate.
  MatchEngine(MatchEngine&& other) noexcept
      : table_(other.table_),
        rows_(std::move(other.rows_)),
        built_num_rows_(other.built_num_rows_),
        rows_contiguous_(other.rows_contiguous_),
        tier_(other.tier_),
        index_(std::move(other.index_)),
        entries_(std::move(other.entries_)),
        fused_index_(std::move(other.fused_index_)),
        fused_entries_(std::move(other.fused_entries_)),
        validity_(std::move(other.validity_)),
        cache_hits_(other.cache_hits_),
        cache_misses_(other.cache_misses_),
        bitmaps_materialized_(other.bitmaps_materialized_),
        fused_lookups_(other.fused_lookups_),
        fused_hits_(other.fused_hits_),
        fused_compiles_(other.fused_compiles_),
        fused_fallbacks_(other.fused_fallbacks_),
        fused_compile_ms_(other.fused_compile_ms_),
        fused_evals_(other.fused_evals_.load(std::memory_order_relaxed)) {}
  MatchEngine& operator=(MatchEngine&& other) noexcept {
    table_ = other.table_;
    rows_ = std::move(other.rows_);
    built_num_rows_ = other.built_num_rows_;
    rows_contiguous_ = other.rows_contiguous_;
    tier_ = other.tier_;
    index_ = std::move(other.index_);
    entries_ = std::move(other.entries_);
    fused_index_ = std::move(other.fused_index_);
    fused_entries_ = std::move(other.fused_entries_);
    validity_ = std::move(other.validity_);
    cache_hits_ = other.cache_hits_;
    cache_misses_ = other.cache_misses_;
    bitmaps_materialized_ = other.bitmaps_materialized_;
    fused_lookups_ = other.fused_lookups_;
    fused_hits_ = other.fused_hits_;
    fused_compiles_ = other.fused_compiles_;
    fused_fallbacks_ = other.fused_fallbacks_;
    fused_compile_ms_ = other.fused_compile_ms_;
    fused_evals_.store(other.fused_evals_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

  const std::vector<RowId>& rows() const { return rows_; }

  /// Compiles and materializes every distinct clause of `predicates`
  /// that is not cached yet, scanning in word-aligned chunks on the
  /// shared pool. A clause that does not compile is cached with its
  /// error instead of failing the batch; MatchPrepared returns it.
  Status Materialize(const std::vector<const Predicate*>& predicates,
                     const ParallelOptions& options = {});

  /// Bitmap of one predicate over the universe (bit i = matches
  /// rows[i]; empty predicate = all ones). Requires every clause to
  /// have been seen by Materialize(); const, safe for concurrent use.
  /// Predicates Materialize compiled into a fused program evaluate in
  /// one pass over the columns; everything else takes the word-AND of
  /// cached clause bitmaps. Both paths produce bit-identical bitmaps.
  /// A clause that does not compile fails the match with Bind's error
  /// for it.
  Result<Bitmap> MatchPrepared(const Predicate& predicate) const;

  /// Anytime variant: fused evaluation checks `ctx` every few hundred
  /// words, so a cancellation or deadline inside a long scan returns
  /// the interrupt status instead of finishing the pass (the partial
  /// bitmap is discarded — clean rollback).
  Result<Bitmap> MatchPrepared(const Predicate& predicate,
                               const ExecContext& ctx) const;

  /// Serial convenience: Materialize({&predicate}) + MatchPrepared.
  Result<Bitmap> Match(const Predicate& predicate);

  /// Bitmap of a single materialized-on-demand clause (serial), or
  /// Bind's error for a clause that does not compile.
  Result<const Bitmap*> ClauseBitmap(const Clause& clause);

  // Cache introspection (for tests/benches/profiles). Hits + misses
  // always equals clause lookups: every canonical-key probe counts
  // exactly one of the two (a law the observability test checks
  // against the global metric counters).
  size_t num_cached_clauses() const { return entries_.size(); }
  /// Table size the cache snapshot was built against; a cached engine
  /// is reusable only while its table still has exactly this many rows.
  size_t built_table_rows() const { return built_num_rows_; }
  size_t cache_hits() const { return cache_hits_; }
  size_t cache_misses() const { return cache_misses_; }
  size_t clause_lookups() const { return cache_hits_ + cache_misses_; }
  /// Clause bitmaps actually scanned (cache misses that compiled).
  size_t bitmaps_materialized() const { return bitmaps_materialized_; }

  // Fused-conjunction introspection. Every multi-clause predicate a
  // Materialize batch examines counts exactly one of hit (program
  // already cached), compile (newly lowered), or fallback (unfusible
  // or all clauses shared ⇒ word-AND) — so fused_lookups ==
  // fused_hits + fused_compiles + fused_fallbacks, the law the
  // observability test checks against the global metrics.
  size_t fused_lookups() const { return fused_lookups_; }
  size_t fused_hits() const { return fused_hits_; }
  size_t fused_compiles() const { return fused_compiles_; }
  size_t fused_fallbacks() const { return fused_fallbacks_; }
  /// MatchPrepared calls answered by a fused one-pass evaluation.
  size_t fused_evals() const {
    return fused_evals_.load(std::memory_order_relaxed);
  }
  /// Compiled predicate programs retained in the cache.
  size_t num_fused_programs() const { return fused_entries_.size(); }
  /// Wall time spent planning + lowering fused programs (cumulative).
  double fused_compile_ms() const { return fused_compile_ms_; }
  SimdTier simd_tier() const { return tier_; }

 private:
  struct ClauseEntry {
    /// OK, or the error CompileClause (and so Bind) gives the clause.
    Status status;
    /// Valid once materialized, when `status` is OK.
    Bitmap bits;
  };

  /// A compiled conjunction: the one-pass program plus the entry slots
  /// its kBitmapRef ops read (resolved to Bitmap pointers per eval, so
  /// entries_ may relocate between calls).
  struct FusedEntry {
    FusedProgram program;
    std::vector<size_t> ref_entries;  // ref_slot -> entries_ index
  };

  /// Cache entry for `key`, creating (and, for clauses that compile,
  /// materializing serially) on miss. Valid until the next insertion.
  ClauseEntry* EnsureClause(const Clause& clause, const std::string& key);
  Status CheckFresh() const;

  /// The `valid` argument AppendClauseOp needs for `cc`: the
  /// universe-positional validity bitmap of its column when the clause
  /// is numeric over a column with nulls, else null. Built once per
  /// column (heap-allocated: op pointers stay valid across rehashes and
  /// engine moves). Newly built columns are recorded in `added` for
  /// rollback.
  const Bitmap* EnsureValidity(const CompiledClause& cc,
                               std::vector<const Column*>* added);

  /// EvalFusedWords over this engine's universe and SIMD tier.
  void EvalWords(const FusedProgram& prog, const Bitmap* const* refs,
                 size_t word_begin, size_t word_end, Bitmap* out) const;

  /// One-pass evaluation of a cached fused program.
  Result<Bitmap> EvalFused(const FusedEntry& fe, const ExecContext& ctx) const;

  const Table* table_;
  std::vector<RowId> rows_;
  size_t built_num_rows_;  // table size the cache snapshot is valid for
  bool rows_contiguous_ = false;  // rows_[i] == rows_[0] + i
  SimdTier tier_ = SimdTier::kScalar;
  std::unordered_map<std::string, size_t> index_;  // canonical key -> entry
  std::vector<ClauseEntry> entries_;
  /// Sorted clause-key set -> fused_entries_ slot.
  std::unordered_map<std::string, size_t> fused_index_;
  std::vector<FusedEntry> fused_entries_;
  /// Column -> universe validity bitmap (shared by every program op
  /// over that column).
  std::unordered_map<const Column*, std::unique_ptr<Bitmap>> validity_;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
  size_t bitmaps_materialized_ = 0;
  size_t fused_lookups_ = 0;
  size_t fused_hits_ = 0;
  size_t fused_compiles_ = 0;
  size_t fused_fallbacks_ = 0;
  double fused_compile_ms_ = 0.0;
  /// Atomic: MatchPrepared is const and called concurrently by the
  /// scoring threads; this is the only counter it touches.
  mutable std::atomic<size_t> fused_evals_{0};
};

}  // namespace dbwipes

#endif  // DBWIPES_EXPR_MATCH_KERNELS_H_
