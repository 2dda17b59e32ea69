#include "dbwipes/expr/fused_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "dbwipes/common/logging.h"

#if DBWIPES_HAVE_AVX2_TIER
#include <immintrin.h>
#endif

namespace dbwipes {

namespace {

bool EnvDisablesSimd() {
  const char* env = std::getenv("DBWIPES_SIMD");
  if (env == nullptr) return false;
  return std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
         std::strcmp(env, "0") == 0;
}

bool CpuHasAvx2() {
#if DBWIPES_HAVE_AVX2_TIER
  // One cpuid probe per process; the env override above stays dynamic.
  // The tier's bodies may also use popcnt (the subgroup scorer does).
  static const bool has =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
  return has;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------
// Scalar tier: 64 positions per word, only bits below `limit` set.
// `at(i)` is the row at universe position i.
// ---------------------------------------------------------------------

template <typename RowAt, typename Fn>
inline uint64_t PackWord(const RowAt& at, size_t base, size_t limit,
                         const Fn& fn) {
  uint64_t w = 0;
  for (size_t b = 0; b < limit; ++b) {
    w |= static_cast<uint64_t>(fn(at(base + b))) << b;
  }
  return w;
}

template <typename RowAt, typename Load>
uint64_t ScalarNumericWord(const ClauseScan& op, const RowAt& at, size_t base,
                           size_t limit, const Load& load) {
  const double t = op.threshold;
  switch (op.op) {
    case CompareOp::kEq:
      return PackWord(at, base, limit, [&](RowId r) { return load(r) == t; });
    case CompareOp::kNe:
      return PackWord(at, base, limit, [&](RowId r) { return load(r) != t; });
    case CompareOp::kLt:
      return PackWord(at, base, limit, [&](RowId r) { return load(r) < t; });
    case CompareOp::kLe:
      // Negated strict comparisons, same as Clause::Matches: NaN
      // satisfies kLe/kGe (neither side of < holds).
      return PackWord(at, base, limit,
                      [&](RowId r) { return !(t < load(r)); });
    case CompareOp::kGt:
      return PackWord(at, base, limit, [&](RowId r) { return t < load(r); });
    case CompareOp::kGe:
      return PackWord(at, base, limit,
                      [&](RowId r) { return !(load(r) < t); });
    case CompareOp::kIn:
      return PackWord(at, base, limit, [&](RowId r) {
        const double v = load(r);
        return !std::isnan(v) &&
               std::binary_search(op.in_set.begin(), op.in_set.end(), v);
      });
    case CompareOp::kContains:
      break;
  }
  DBW_CHECK(false) << "CONTAINS body on numeric clause op";
  return 0;
}

template <typename RowAt>
uint64_t ScalarOpWord(const ClauseScan& op, const RowAt& at, size_t base,
                      size_t limit) {
  switch (op.body) {
    case ClauseScan::Body::kDoubleCmp: {
      const double* data = op.dbl;
      return ScalarNumericWord(op, at, base, limit,
                               [data](RowId r) { return data[r]; });
    }
    case ClauseScan::Body::kInt64Cmp: {
      const int64_t* data = op.i64;
      return ScalarNumericWord(
          op, at, base, limit,
          [data](RowId r) { return static_cast<double>(data[r]); });
    }
    case ClauseScan::Body::kCodeEq: {
      const int32_t* codes = op.codes;
      const int32_t key = op.code;
      return PackWord(at, base, limit,
                      [codes, key](RowId r) { return codes[r] == key; });
    }
    case ClauseScan::Body::kCodeNe: {
      const int32_t* codes = op.codes;
      const int32_t key = op.code;
      return PackWord(at, base, limit, [codes, key](RowId r) {
        return static_cast<bool>((codes[r] >= 0) & (codes[r] != key));
      });
    }
    case ClauseScan::Body::kCodeTable: {
      const int32_t* codes = op.codes;
      const uint32_t* table = op.table.data();
      return PackWord(at, base, limit, [codes, table](RowId r) {
        return table[codes[r] + 1] != 0;
      });
    }
  }
  return 0;
}

/// The scalar word at `base` over `universe`.
uint64_t ScalarWord(const ClauseScan& op, const ScanUniverse& universe,
                    size_t base, size_t limit) {
  if (universe.contiguous()) {
    const RowId first = universe.first;
    return ScalarOpWord(
        op, [first](size_t i) { return static_cast<RowId>(first + i); }, base,
        limit);
  }
  const RowId* rows = universe.rows;
  return ScalarOpWord(op, [rows](size_t i) { return rows[i]; }, base, limit);
}

// ---------------------------------------------------------------------
// AVX2 tier. Each function carries target("avx2") so the file compiles
// without a global -mavx2; calls are guarded by the runtime tier. The
// comparison immediates mirror the scalar expressions exactly:
//   kEq  v == t        _CMP_EQ_OQ   (ordered,   NaN -> false)
//   kNe  v != t        _CMP_NEQ_UQ  (unordered, NaN -> true)
//   kLt  v <  t        _CMP_LT_OQ
//   kLe  !(t < v)      _CMP_NGT_UQ  (unordered, NaN -> true)
//   kGt  t <  v        _CMP_GT_OQ
//   kGe  !(v < t)      _CMP_NLT_UQ  (unordered, NaN -> true)
// ---------------------------------------------------------------------
#if DBWIPES_HAVE_AVX2_TIER

#define DBW_AVX2 __attribute__((target("avx2")))

// Full-range int64 -> double (Mysticial's magic-constant trick): exact
// round-to-nearest for every int64, matching static_cast<double>.
DBW_AVX2 inline __m256d I64ToPd(__m256i v) {
  const __m256i magic_lo = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256i magic_hi = _mm256_set1_epi64x(0x4530000080000000LL);
  const __m256i magic_all = _mm256_set1_epi64x(0x4530000080100000LL);
  const __m256i v_lo = _mm256_blend_epi32(magic_lo, v, 0x55);
  __m256i v_hi = _mm256_srli_epi64(v, 32);
  v_hi = _mm256_xor_si256(v_hi, magic_hi);
  const __m256d hi =
      _mm256_sub_pd(_mm256_castsi256_pd(v_hi), _mm256_castsi256_pd(magic_all));
  return _mm256_add_pd(hi, _mm256_castsi256_pd(v_lo));
}

DBW_AVX2 inline __m128i LoadIdx4(const RowId* rows) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows));
}

// One 64-row block: 16 groups of 4 doubles -> 4-bit movemask nibbles.
#define DBW_CMP_LOOP(LOADV, IMM)                                         \
  for (int k = 0; k < 16; ++k) {                                         \
    const __m256d v = (LOADV);                                           \
    w |= static_cast<uint64_t>(static_cast<uint32_t>(                    \
             _mm256_movemask_pd(_mm256_cmp_pd(v, vt, (IMM)))))           \
         << (4 * k);                                                     \
  }

#define DBW_CMP_SWITCH(LOADV)                                  \
  switch (op) {                                                \
    case CompareOp::kEq: DBW_CMP_LOOP(LOADV, _CMP_EQ_OQ) break;  \
    case CompareOp::kNe: DBW_CMP_LOOP(LOADV, _CMP_NEQ_UQ) break; \
    case CompareOp::kLt: DBW_CMP_LOOP(LOADV, _CMP_LT_OQ) break;  \
    case CompareOp::kLe: DBW_CMP_LOOP(LOADV, _CMP_NGT_UQ) break; \
    case CompareOp::kGt: DBW_CMP_LOOP(LOADV, _CMP_GT_OQ) break;  \
    case CompareOp::kGe: DBW_CMP_LOOP(LOADV, _CMP_NLT_UQ) break; \
    default: DBW_CHECK(false) << "bad clause cmp op";          \
  }

DBW_AVX2 uint64_t Avx2DoubleCmpLoad(const double* p, double t, CompareOp op) {
  const __m256d vt = _mm256_set1_pd(t);
  uint64_t w = 0;
  DBW_CMP_SWITCH(_mm256_loadu_pd(p + 4 * k))
  return w;
}

DBW_AVX2 uint64_t Avx2DoubleCmpGather(const double* data, const RowId* rows,
                                      double t, CompareOp op) {
  const __m256d vt = _mm256_set1_pd(t);
  uint64_t w = 0;
  DBW_CMP_SWITCH(_mm256_i32gather_pd(data, LoadIdx4(rows + 4 * k), 8))
  return w;
}

DBW_AVX2 uint64_t Avx2Int64CmpLoad(const int64_t* p, double t, CompareOp op) {
  const __m256d vt = _mm256_set1_pd(t);
  uint64_t w = 0;
  DBW_CMP_SWITCH(I64ToPd(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4 * k))))
  return w;
}

DBW_AVX2 uint64_t Avx2Int64CmpGather(const int64_t* data, const RowId* rows,
                                     double t, CompareOp op) {
  const __m256d vt = _mm256_set1_pd(t);
  uint64_t w = 0;
  DBW_CMP_SWITCH(I64ToPd(_mm256_i32gather_epi64(
      reinterpret_cast<const long long*>(data), LoadIdx4(rows + 4 * k), 8)))
  return w;
}

#undef DBW_CMP_SWITCH
#undef DBW_CMP_LOOP

// One 64-row block of dictionary codes: 8 groups of 8 epi32 lanes ->
// 8-bit movemask bytes. MASK sees the codes vector as `cv`.
#define DBW_CODE_LOOP(LOADC, MASK)                                       \
  for (int k = 0; k < 8; ++k) {                                          \
    const __m256i cv = (LOADC);                                          \
    w |= static_cast<uint64_t>(static_cast<uint32_t>(MASK) & 0xffu)      \
         << (8 * k);                                                     \
  }

DBW_AVX2 uint64_t Avx2CodeWord(const ClauseScan& op, const RowId* rows,
                               const int32_t* contig) {
  uint64_t w = 0;
  // `contig` is the pre-offset base pointer when the universe is
  // contiguous, null when codes must be gathered through `rows`.
#define DBW_CODE_DISPATCH(MASK)                                          \
  if (contig != nullptr) {                                               \
    DBW_CODE_LOOP(_mm256_loadu_si256(                                    \
                      reinterpret_cast<const __m256i*>(contig + 8 * k)), \
                  MASK)                                                  \
  } else {                                                               \
    DBW_CODE_LOOP(                                                       \
        _mm256_i32gather_epi32(                                          \
            reinterpret_cast<const int*>(op.codes),                      \
            _mm256_loadu_si256(                                          \
                reinterpret_cast<const __m256i*>(rows + 8 * k)),         \
            4),                                                          \
        MASK)                                                            \
  }
  switch (op.body) {
    case ClauseScan::Body::kCodeEq: {
      const __m256i key = _mm256_set1_epi32(op.code);
      DBW_CODE_DISPATCH(_mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_cmpeq_epi32(cv, key))))
      break;
    }
    case ClauseScan::Body::kCodeNe: {
      const __m256i key = _mm256_set1_epi32(op.code);
      const __m256i minus1 = _mm256_set1_epi32(-1);
      DBW_CODE_DISPATCH(_mm256_movemask_ps(_mm256_castsi256_ps(
          _mm256_andnot_si256(_mm256_cmpeq_epi32(cv, key),
                              _mm256_cmpgt_epi32(cv, minus1)))))
      break;
    }
    case ClauseScan::Body::kCodeTable: {
      const __m256i one = _mm256_set1_epi32(1);
      const __m256i zero = _mm256_setzero_si256();
      const int* table = reinterpret_cast<const int*>(op.table.data());
      DBW_CODE_DISPATCH(
          ~_mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(
              _mm256_i32gather_epi32(table, _mm256_add_epi32(cv, one), 4),
              zero))))
      break;
    }
    default:
      DBW_CHECK(false) << "non-code body in Avx2CodeWord";
  }
#undef DBW_CODE_DISPATCH
  return w;
}

DBW_AVX2 uint64_t Avx2OpWord(const ClauseScan& op, const ScanUniverse& universe,
                             size_t base) {
  const bool contiguous = universe.contiguous();
  const size_t start = universe.first + base;  // contiguous only
  const RowId* rows = contiguous ? nullptr : universe.rows + base;
  switch (op.body) {
    case ClauseScan::Body::kDoubleCmp:
      return contiguous
                 ? Avx2DoubleCmpLoad(op.dbl + start, op.threshold, op.op)
                 : Avx2DoubleCmpGather(op.dbl, rows, op.threshold, op.op);
    case ClauseScan::Body::kInt64Cmp:
      return contiguous
                 ? Avx2Int64CmpLoad(op.i64 + start, op.threshold, op.op)
                 : Avx2Int64CmpGather(op.i64, rows, op.threshold, op.op);
    case ClauseScan::Body::kCodeEq:
    case ClauseScan::Body::kCodeNe:
    case ClauseScan::Body::kCodeTable:
      return Avx2CodeWord(op, rows, contiguous ? op.codes + start : nullptr);
  }
  return 0;
}

#undef DBW_CODE_LOOP
#undef DBW_AVX2

#endif  // DBWIPES_HAVE_AVX2_TIER

}  // namespace

SimdTier ResolveSimdTier() {
  if (EnvDisablesSimd()) return SimdTier::kScalar;
  return CpuHasAvx2() ? SimdTier::kAvx2 : SimdTier::kScalar;
}

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kAvx2: return "avx2";
  }
  return "unknown";
}

ScanUniverse ScanUniverse::Of(const std::vector<RowId>& rows) {
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] != rows[0] + i) return {rows.data(), 0, rows.size()};
  }
  return Range(rows.empty() ? 0 : rows[0], rows.size());
}

const Bitmap* ValidityCache::For(const ClauseScan& scan) {
  if (!scan.masks_nulls()) return nullptr;
  auto [it, inserted] = bits_.try_emplace(scan.column);
  if (!inserted) return &it->second;
  Bitmap& bits = it->second;
  bits = Bitmap(universe_.size);
  for (size_t wi = 0; wi < bits.num_words(); ++wi) {
    const size_t base = wi * 64;
    const size_t limit = std::min<size_t>(64, universe_.size - base);
    uint64_t w = 0;
    for (size_t b = 0; b < limit; ++b) {
      w |= static_cast<uint64_t>(!scan.column->IsNull(universe_.row(base + b)))
           << b;
    }
    bits.set_word(wi, w);
  }
  return &bits;
}

void EvalFusedWords(const ClauseScan& op, const Bitmap* valid,
                    SimdTier tier, const ScanUniverse& universe,
                    size_t word_begin, size_t word_end, Bitmap* out) {
#if !DBWIPES_HAVE_AVX2_TIER
  tier = SimdTier::kScalar;
#endif
  // Numeric IN has no vector body: it is scalar at every tier. Decided
  // from the op, not from the IN set, which may be empty.
  const bool scalar_only =
      op.op == CompareOp::kIn && op.body != ClauseScan::Body::kCodeTable;
  for (size_t wi = word_begin; wi < word_end; ++wi) {
    const size_t base = wi * 64;
    const size_t limit = std::min<size_t>(64, universe.size - base);
    uint64_t w;
#if DBWIPES_HAVE_AVX2_TIER
    if (tier == SimdTier::kAvx2 && limit == 64 && !scalar_only) {
      w = Avx2OpWord(op, universe, base);
    } else
#endif
    {
      w = ScalarWord(op, universe, base, limit);
    }
    if (valid != nullptr) w &= valid->word(wi);
    out->set_word(wi, w);
  }
}

}  // namespace dbwipes
