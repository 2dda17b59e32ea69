#ifndef DBWIPES_EXPR_FUSED_KERNELS_H_
#define DBWIPES_EXPR_FUSED_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dbwipes/common/bitmap.h"
#include "dbwipes/expr/predicate.h"
#include "dbwipes/storage/table.h"

/// 1 where the AVX2 tier's bodies are compiled in (x86-64, each with
/// target("avx2")); they run only when ResolveSimdTier() picks kAvx2.
#if defined(__x86_64__) || defined(__amd64__)
#define DBWIPES_HAVE_AVX2_TIER 1
#else
#define DBWIPES_HAVE_AVX2_TIER 0
#endif

namespace dbwipes {

struct CompiledClause;

/// \brief SIMD tier clause scans dispatch to at runtime.
///
/// Selected per MatchEngine and per query WHERE (FilterBitmap) from a
/// one-time cpuid probe, overridable via the DBWIPES_SIMD environment
/// variable ("off" / "scalar" / "0" forces the portable tier). Every
/// tier produces bit-identical words:
/// the AVX2 comparisons use the exact predicate encodings of the
/// scalar path (kLe/kGe as negated strict comparisons ⇒ unordered-true
/// _CMP_NGT_UQ / _CMP_NLT_UQ, kNe as _CMP_NEQ_UQ), and int64 widens to
/// double with the full-range magic-constant conversion, which rounds
/// to nearest exactly like static_cast<double>. Partial tail blocks
/// and numeric IN (a binary search per row) always take the scalar
/// body, so padding bits stay zero.
enum class SimdTier : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

/// cpuid-guarded tier selection honoring DBWIPES_SIMD. The cpuid probe
/// is cached process-wide; the environment variable is re-read per
/// call so tests and benches can flip tiers between engine builds.
SimdTier ResolveSimdTier();

const char* SimdTierName(SimdTier tier);

/// \brief The positions a clause scan visits.
///
/// Position i is row `rows[i]`. When `rows` is null the universe is
/// the contiguous range [first, first + size): the SIMD tier reads it
/// with plain loads instead of gathers, and no row-id array has to
/// exist (a whole-table scan covers every row without one).
struct ScanUniverse {
  const RowId* rows = nullptr;
  RowId first = 0;
  size_t size = 0;

  /// The contiguous range [first, first + size).
  static ScanUniverse Range(RowId first, size_t size) {
    return {nullptr, first, size};
  }
  /// The listed rows, borrowed; a Range when they are contiguous.
  static ScanUniverse Of(const std::vector<RowId>& rows);

  bool contiguous() const { return rows == nullptr; }
  RowId row(size_t i) const {
    return rows != nullptr ? rows[i] : first + static_cast<RowId>(i);
  }
};

/// \brief One compiled clause as a scan op.
///
/// All pointers are borrowed: columns outlive the scan, the IN set
/// and truth table live in the owning FusedProgram (a vector's buffer
/// survives moving it), and `valid` points at a bitmap owned by the
/// caller (the MatchEngine, or the WHERE lowering).
struct FusedOp {
  enum class Body : uint8_t {
    kDoubleCmp,   // double column vs threshold (or sorted IN set)
    kInt64Cmp,    // int64 column widened to double, same comparisons
    kCodeEq,      // dictionary code == code (-2 = absent literal)
    kCodeNe,      // code >= 0 && code != key
    kCodeTable,   // truth table per code, shifted by one for null -1
  };
  Body body = Body::kDoubleCmp;
  CompareOp op = CompareOp::kEq;
  const double* dbl = nullptr;
  const int64_t* i64 = nullptr;
  const int32_t* codes = nullptr;
  double threshold = 0.0;
  int32_t code = -2;
  const double* in_data = nullptr;  // sorted, NaN-free
  size_t in_size = 0;
  /// kCodeTable truth table widened to 32 bits so the AVX2 tier can
  /// gather it directly; index 0 answers the null sentinel code -1.
  const uint32_t* table = nullptr;
  /// Universe-positional validity words for numeric columns with
  /// nulls (bit i = rows[i] is non-null); null when the column has no
  /// nulls. ANDed into the clause word — nulls never match.
  const Bitmap* valid = nullptr;
};

/// \brief A clause scan: one op plus the payload its pointers borrow.
struct FusedProgram {
  FusedOp op;
  std::vector<double> in_set;
  std::vector<uint32_t> table;
};

/// Lowers one compiled clause into `prog` (copying its IN set / truth
/// table into the program). `valid` must be the column's universe
/// validity bitmap when the clause is numeric over a column with
/// nulls, null otherwise.
void AppendClauseOp(const CompiledClause& cc, const Bitmap* valid,
                    FusedProgram* prog);

/// The `valid` bitmap AppendClauseOp takes: bit i = row
/// universe.row(i) of `col` is non-null.
Bitmap ValidityBitmap(const Column& col, const ScanUniverse& universe);

/// Evaluates `prog` over positions [64*word_begin, 64*word_end) of
/// `universe` (clamped to its size), writing one finished bitmap word
/// per 64 positions into `out`. Chunks owning disjoint word ranges may
/// run concurrently on one bitmap. Deterministic: the emitted words are
/// identical at any tier, chunking, or thread count.
void EvalFusedWords(const FusedProgram& prog, SimdTier tier,
                    const ScanUniverse& universe, size_t word_begin,
                    size_t word_end, Bitmap* out);

}  // namespace dbwipes

#endif  // DBWIPES_EXPR_FUSED_KERNELS_H_
