#ifndef DBWIPES_EXPR_FUSED_KERNELS_H_
#define DBWIPES_EXPR_FUSED_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
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

/// \brief SIMD tier clause scans dispatch to at runtime.
///
/// Selected per MatchEngine and per query WHERE (FilterBitmap) from a
/// one-time cpuid probe (kAvx2 needs AVX2 and POPCNT; the learners'
/// AVX2 bodies use both), overridable via the DBWIPES_SIMD environment
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

/// \brief One clause compiled to a scan: what CompileClause
/// (match_kernels.h) returns and EvalFusedWords runs.
///
/// The body picks the storage loader and `op` the comparison. Numeric
/// bodies compare against `threshold` (kIn: a binary search of the
/// sorted `in_set`); dictionary bodies compare codes, and kCodeTable
/// gathers through `table`. The scan owns its IN set and truth table;
/// the column pointers are borrowed from a column that outlives it.
struct ClauseScan {
  enum class Body : uint8_t {
    kDoubleCmp,   // double column vs threshold (or sorted IN set)
    kInt64Cmp,    // int64 column widened to double, same comparisons
    kCodeEq,      // dictionary code == code (-2 = absent literal)
    kCodeNe,      // code >= 0 && code != key
    kCodeTable,   // truth table per code, shifted by one for null -1
  };
  Body body = Body::kDoubleCmp;
  CompareOp op = CompareOp::kEq;
  const Column* column = nullptr;
  const double* dbl = nullptr;
  const int64_t* i64 = nullptr;
  const int32_t* codes = nullptr;
  double threshold = 0.0;
  int32_t code = -2;
  /// kIn over numerics: sorted, NaN-free.
  std::vector<double> in_set;
  /// kCodeTable truth per dictionary code, widened to 32 bits so the
  /// AVX2 tier can gather it directly; index 0 answers the null
  /// sentinel code -1 (always false).
  std::vector<uint32_t> table;

  /// Whether the scan reads a numeric column with nulls, whose
  /// validity EvalFusedWords must AND in. Dictionary bodies read the
  /// null sentinel code instead.
  bool masks_nulls() const {
    return (body == Body::kDoubleCmp || body == Body::kInt64Cmp) &&
           column->has_nulls();
  }
};

/// \brief The validity bitmaps of one scan universe, built once per
/// column: bit i = row universe.row(i) of the column is non-null.
class ValidityCache {
 public:
  explicit ValidityCache(const ScanUniverse& universe) : universe_(universe) {}

  /// The `valid` argument EvalFusedWords takes for `scan`: its
  /// column's validity when masks_nulls(), else null. Map nodes never
  /// move, so the pointer stays valid while other columns are added.
  const Bitmap* For(const ClauseScan& scan);

 private:
  ScanUniverse universe_;
  std::unordered_map<const Column*, Bitmap> bits_;
};

/// Evaluates `scan` over positions [64*word_begin, 64*word_end) of
/// `universe` (clamped to its size), writing one finished bitmap word
/// per 64 positions into `out`, ANDed with `valid` when it is non-null
/// (nulls never match). Chunks owning disjoint word ranges may run
/// concurrently on one bitmap. Deterministic: the emitted words are
/// identical at any tier, chunking, or thread count.
void EvalFusedWords(const ClauseScan& scan, const Bitmap* valid,
                    SimdTier tier, const ScanUniverse& universe,
                    size_t word_begin, size_t word_end, Bitmap* out);

}  // namespace dbwipes

#endif  // DBWIPES_EXPR_FUSED_KERNELS_H_
