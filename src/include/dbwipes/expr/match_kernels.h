#ifndef DBWIPES_EXPR_MATCH_KERNELS_H_
#define DBWIPES_EXPR_MATCH_KERNELS_H_

#include <cstdint>
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

/// Compiles `clause` against `table` into its scan: the one place a
/// clause's literal is translated. Every clause on an existing column
/// compiles to exactly Clause::Matches' answer per cell (null cells
/// never match); only an unknown column fails (NotFound).
///
/// - Numeric column, numeric literal: a double comparison over the
///   flat int64/double storage (int64 widens like Column::AsDouble).
///   kLe/kGe are the negated strict comparisons, so NaN cells satisfy
///   kLe/kGe/kNe and nothing else; a NaN probe is IN nothing.
/// - String column: kEq/kNe with a string literal compare one
///   dictionary code (-2 when the literal is absent, so it never
///   equals the null code -1). Every other clause gathers through a
///   per-code truth table: kIn from its members' codes, the rest from
///   Clause::Matches once per dictionary string.
/// - A literal of the other type: an IN drops such members. On a
///   numeric column any other non-numeric or NULL literal gets one
///   answer for every number under Value's type order, scanned as a
///   comparison against NaN (kNe: all true, kEq: all false).
Result<ClauseScan> CompileClause(const Clause& clause, const Table& table);

/// \brief Vectorized conjunction matching with a shared clause-bitmap
/// cache.
///
/// Bound to one table and one row universe (e.g. the suspect set F, a
/// selectivity sample, or the union of a result's lineage). Enumerators
/// emit many conjunctions sharing single-attribute clauses — threshold
/// families on one column, repeated categorical equalities — so the
/// engine canonicalizes each clause to a key, materializes its bitmap
/// ONCE as a clause scan at the engine's SIMD tier, and matches a
/// conjunction by ANDing cached words. A clause on an unknown column
/// is cached with CompileClause's NotFound; every match that needs
/// the clause returns it.
///
/// The engine is a snapshot: it caches bitmaps against the table size
/// at construction, and every Match checks that the table has not
/// grown since (append invalidates; rebuild the engine). See DESIGN.md
/// §5d.
///
/// Thread safety: Materialize() mutates the cache (its own scans run
/// chunked on the PR-1 ParallelFor; output is deterministic at any
/// thread count because chunk boundaries depend only on sizes).
/// MatchPrepared() is const and touches only cached state, so any
/// number of threads may call it concurrently after Materialize().
class MatchEngine {
 public:
  MatchEngine(const Table& table, std::vector<RowId> rows);
  MatchEngine(MatchEngine&&) = default;
  MatchEngine& operator=(MatchEngine&&) = default;

  const std::vector<RowId>& rows() const { return rows_; }

  /// Compiles and materializes every distinct clause of `predicates`
  /// that is not cached yet, scanning in word-aligned chunks on the
  /// shared pool. A clause on an unknown column is cached with its
  /// NotFound instead of failing the batch; MatchPrepared returns it.
  Status Materialize(const std::vector<const Predicate*>& predicates,
                     const ParallelOptions& options = {});

  /// Bitmap of one predicate over the universe (bit i = matches
  /// rows[i]; empty predicate = all ones): the AND of its cached clause
  /// bitmaps. Requires every clause to have been seen by Materialize();
  /// const, safe for concurrent use. A clause on an unknown column
  /// fails the match with its NotFound.
  Result<Bitmap> MatchPrepared(const Predicate& predicate) const;

  /// Serial convenience: Materialize({&predicate}) + MatchPrepared.
  Result<Bitmap> Match(const Predicate& predicate);

  /// Bitmap of a single materialized-on-demand clause (serial), or the
  /// NotFound of a clause on an unknown column.
  Result<const Bitmap*> ClauseBitmap(const Clause& clause);

  // Cache introspection (for tests/benches/profiles). Hits + misses
  // always equals clause lookups: every clause occurrence a call looks
  // up counts exactly one of the two (a law the observability test
  // checks against the global metric counters).
  size_t num_cached_clauses() const { return entries_.size(); }
  /// Table size the cache snapshot was built against; a cached engine
  /// is reusable only while its table still has exactly this many rows.
  size_t built_table_rows() const { return built_num_rows_; }
  size_t cache_hits() const { return cache_hits_; }
  size_t cache_misses() const { return cache_misses_; }
  size_t clause_lookups() const { return cache_hits_ + cache_misses_; }
  /// Clause bitmaps actually scanned (cache misses that compiled).
  size_t bitmaps_materialized() const { return bitmaps_materialized_; }
  SimdTier simd_tier() const { return tier_; }

 private:
  struct ClauseEntry {
    /// OK, or CompileClause's NotFound for the clause.
    Status status;
    /// Valid once materialized, when `status` is OK.
    Bitmap bits;
  };

  /// A new entry whose bitmap still has to be scanned.
  struct PendingScan {
    size_t slot;  // entries_ index
    ClauseScan scan;
    const Bitmap* valid;  // validity_.For(scan)
  };

  /// Looks `clause` up, counting one hit or one miss, and returns its
  /// entry slot. A miss caches the clause's NotFound, or a zeroed
  /// bitmap whose scan is queued on `scans`.
  size_t LookupClause(const Clause& clause, std::vector<PendingScan>* scans);
  /// Cache entry for `clause`, creating (and, for clauses that compile,
  /// materializing serially) on miss. Valid until the next insertion.
  const ClauseEntry& EnsureClause(const Clause& clause);
  Status CheckFresh() const;

  /// Runs `scan`'s words [word_begin, word_end) into its entry's bitmap.
  void EvalWords(const PendingScan& scan, size_t word_begin,
                 size_t word_end);

  const Table* table_;
  std::vector<RowId> rows_;
  size_t built_num_rows_;  // table size the cache snapshot is valid for
  /// rows_ as a scan universe: a Range when they are contiguous (the
  /// common full-table / dense-suspect case, which lets the SIMD tier
  /// use plain loads instead of gathers), else borrowing rows_' buffer,
  /// which a move keeps.
  ScanUniverse universe_;
  SimdTier tier_ = SimdTier::kScalar;
  std::unordered_map<std::string, size_t> index_;  // canonical key -> entry
  std::vector<ClauseEntry> entries_;
  ValidityCache validity_;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
  size_t bitmaps_materialized_ = 0;
};

}  // namespace dbwipes

#endif  // DBWIPES_EXPR_MATCH_KERNELS_H_
