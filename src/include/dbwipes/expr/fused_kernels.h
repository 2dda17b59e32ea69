#ifndef DBWIPES_EXPR_FUSED_KERNELS_H_
#define DBWIPES_EXPR_FUSED_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dbwipes/common/bitmap.h"
#include "dbwipes/expr/predicate.h"
#include "dbwipes/storage/table.h"

namespace dbwipes {

struct CompiledClause;

/// \brief SIMD tier the fused evaluator dispatches to at runtime.
///
/// Selected per MatchEngine from a one-time cpuid probe, overridable
/// via the DBWIPES_SIMD environment variable ("off" / "scalar" / "0"
/// forces the portable tier). Every tier produces bit-identical words:
/// the AVX2 comparisons use the exact predicate encodings of the
/// scalar path (kLe/kGe as negated strict comparisons ⇒ unordered-true
/// _CMP_NGT_UQ / _CMP_NLT_UQ, kNe as _CMP_NEQ_UQ), and int64 widens to
/// double with the full-range magic-constant conversion, which rounds
/// to nearest exactly like static_cast<double>. Partial tail blocks
/// always take the scalar body, so padding bits stay zero.
enum class SimdTier : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

/// cpuid-guarded tier selection honoring DBWIPES_SIMD. The cpuid probe
/// is cached process-wide; the environment variable is re-read per
/// call so tests and benches can flip tiers between engine builds.
SimdTier ResolveSimdTier();

const char* SimdTierName(SimdTier tier);

/// \brief One clause of a fused-conjunction program.
///
/// Inline bodies (kDoubleCmp .. kCodeTable) re-scan their column for
/// the 64 rows of the current block; kBitmapRef reads one word of an
/// already-materialized clause bitmap (shared clauses stay on the PR 2
/// materialize-once path — fusing them would multiply column traffic).
/// All pointers are borrowed: columns outlive the engine, truth tables
/// and IN sets live in the owning FusedProgram's pools (raw data
/// pointers stay valid when the program or its pools move), and
/// `valid` points at a heap bitmap owned by the MatchEngine.
struct FusedOp {
  enum class Body : uint8_t {
    kDoubleCmp,   // double column vs threshold
    kInt64Cmp,    // int64 column widened to double vs threshold
    kNumericIn,   // binary search of a sorted numeric IN set (scalar)
    kCodeEq,      // dictionary code == code (-2 = absent literal)
    kCodeNe,      // code >= 0 && code != key
    kCodeTable,   // truth table per code, shifted by one for null -1
    kBitmapRef,   // AND a cached clause bitmap's word
  };
  Body body = Body::kBitmapRef;
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
  /// kBitmapRef: index into the refs array passed to EvalFusedWords.
  uint32_t ref_slot = 0;
};

/// \brief A whole conjunction lowered into one scan program.
///
/// Evaluation walks the row universe once, 64 rows per block: each op
/// produces a register-resident word which is ANDed in place (with
/// early exit on an all-zero accumulator), and only the final word is
/// stored — no intermediate per-clause bitmaps exist.
struct FusedProgram {
  std::vector<FusedOp> ops;
  // Owned payloads behind the ops' raw pointers.
  std::vector<std::vector<double>> in_pool;
  std::vector<std::vector<uint32_t>> table_pool;
};

/// Lowers one compiled clause into an inline op appended to `prog`
/// (copying its IN set / truth table into the program's pools).
/// `valid` must be the column's universe validity bitmap when the
/// clause is numeric over a column with nulls, null otherwise.
void AppendClauseOp(const CompiledClause& cc, const Bitmap* valid,
                    FusedProgram* prog);

/// Appends a cached-bitmap reference op reading refs[ref_slot].
void AppendBitmapRef(uint32_t ref_slot, FusedProgram* prog);

/// Evaluates `prog` over positions [64*word_begin, 64*word_end) of
/// `rows` (clamped to num_rows), writing one finished bitmap word per
/// 64 positions into `out`. `contiguous` asserts rows[i] == rows[0]+i,
/// letting the SIMD tier use plain loads instead of gathers. `refs`
/// resolves kBitmapRef slots; may be null when the program has none.
/// Chunks owning disjoint word ranges may run concurrently on one
/// bitmap. Deterministic: the emitted words are identical at any tier,
/// chunking, or thread count.
void EvalFusedWords(const FusedProgram& prog, SimdTier tier,
                    const RowId* rows, size_t num_rows, bool contiguous,
                    const Bitmap* const* refs, size_t word_begin,
                    size_t word_end, Bitmap* out);

}  // namespace dbwipes

#endif  // DBWIPES_EXPR_FUSED_KERNELS_H_
