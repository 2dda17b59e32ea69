#include "dbwipes/learn/kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "dbwipes/common/logging.h"
#include "dbwipes/expr/fused_kernels.h"

#if DBWIPES_HAVE_AVX2_TIER
#include <immintrin.h>
#endif

namespace dbwipes {

namespace {

double SquaredDistance(const double* a, const double* b, size_t d) {
  double s = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double diff = a[i] - b[i];
    s += diff * diff;
  }
  return s;
}

/// values holds exactly rows x cols numbers (checked without forming
/// the product, which could wrap).
bool IsRectangular(const DenseMatrix& m) {
  if (m.cols == 0) return m.values.empty();
  return m.values.size() % m.cols == 0 && m.values.size() / m.cols == m.rows;
}

Status CheckPoints(const DenseMatrix& points) {
  if (!IsRectangular(points)) {
    return Status::InvalidArgument(
        "point matrix does not hold rows x cols values");
  }
  if (points.rows == 0) return Status::InvalidArgument("no points to cluster");
  return Status::OK();
}

void CopyRow(const double* src, size_t d, double* dst) {
  if (d != 0) std::memcpy(dst, src, d * sizeof(double));
}

// k-means++ seeding into the k x d `centroids`.
void SeedCentroids(const DenseMatrix& points, size_t k, Rng* rng,
                   DenseMatrix* centroids) {
  const size_t n = points.rows;
  const size_t d = points.cols;
  CopyRow(points.row(rng->UniformInt(n)), d, centroids->row(0));
  std::vector<double> dist2(n, std::numeric_limits<double>::infinity());
  for (size_t seeded = 1; seeded < k; ++seeded) {
    const double* last = centroids->row(seeded - 1);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      dist2[i] = std::min(dist2[i], SquaredDistance(points.row(i), last, d));
      total += dist2[i];
    }
    if (total <= 0.0) {
      // All points coincide with existing centroids; duplicate one.
      CopyRow(points.row(rng->UniformInt(n)), d, centroids->row(seeded));
      continue;
    }
    double target = rng->UniformDouble() * total;
    size_t chosen = n - 1;
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += dist2[i];
      if (target < acc) {
        chosen = i;
        break;
      }
    }
    CopyRow(points.row(chosen), d, centroids->row(seeded));
  }
}

// ---------------------------------------------------------------------
// Assignment step: assignment[i] = the first cluster c of least
// SquaredDistance(point i, centroid c). The compare is an ordered `<`,
// so a tie keeps the earlier cluster and a NaN distance never wins
// (cluster 0 when every distance is NaN). Both tiers compute each
// distance with the same operations in the same order, so they agree
// bit for bit.
// ---------------------------------------------------------------------

/// Points [begin, end), one at a time, without a data-dependent branch.
void AssignScalar(const DenseMatrix& points, const DenseMatrix& centroids,
                  size_t begin, size_t end, int* assignment) {
  const size_t d = points.cols;
  for (size_t i = begin; i < end; ++i) {
    const double* p = points.row(i);
    double best = std::numeric_limits<double>::infinity();
    int best_c = 0;
    for (size_t c = 0; c < centroids.rows; ++c) {
      const double dist = SquaredDistance(p, centroids.row(c), d);
      const bool closer = dist < best;
      best = closer ? dist : best;
      best_c = closer ? static_cast<int>(c) : best_c;
    }
    assignment[i] = best_c;
  }
}

#if DBWIPES_HAVE_AVX2_TIER
/// Four points per register: each lane keeps its own least distance
/// and cluster, updated under an ordered-quiet `<` mask. The points are
/// transposed into `block` (block[t * 4 + l] = coordinate t of point
/// i + l) once per group, one full-width store per coordinate so the
/// loads for every cluster forward from it; the last n % 4 points take
/// the scalar loop.
__attribute__((target("avx2"))) void AssignAvx2(const DenseMatrix& points,
                                                const DenseMatrix& centroids,
                                                int* assignment,
                                                std::vector<double>* block) {
  const size_t n = points.rows;
  const size_t d = points.cols;
  const size_t full = n - n % 4;
  block->resize(d * 4);
  double* lanes = block->data();
  for (size_t i = 0; i < full; i += 4) {
    const double* p = points.row(i);
    for (size_t t = 0; t < d; ++t) {
      _mm256_storeu_pd(lanes + t * 4, _mm256_set_pd(p[3 * d + t],
                                                    p[2 * d + t], p[d + t],
                                                    p[t]));
    }
    __m256d best = _mm256_set1_pd(std::numeric_limits<double>::infinity());
    __m256d best_c = _mm256_setzero_pd();  // cluster ids, as doubles
    for (size_t c = 0; c < centroids.rows; ++c) {
      const double* centroid = centroids.row(c);
      __m256d s = _mm256_setzero_pd();
      for (size_t t = 0; t < d; ++t) {
        const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(lanes + t * 4),
                                           _mm256_set1_pd(centroid[t]));
        s = _mm256_add_pd(s, _mm256_mul_pd(diff, diff));
      }
      const __m256d closer = _mm256_cmp_pd(s, best, _CMP_LT_OQ);
      best = _mm256_blendv_pd(best, s, closer);
      best_c = _mm256_blendv_pd(
          best_c, _mm256_set1_pd(static_cast<double>(c)), closer);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(assignment + i),
                     _mm256_cvtpd_epi32(best_c));
  }
  AssignScalar(points, centroids, full, n, assignment);
}
#endif

void Assign(SimdTier tier, const DenseMatrix& points,
            const DenseMatrix& centroids, int* assignment,
            std::vector<double>* block) {
#if DBWIPES_HAVE_AVX2_TIER
  if (tier == SimdTier::kAvx2) {
    AssignAvx2(points, centroids, assignment, block);
    return;
  }
#endif
  (void)tier;
  (void)block;
  AssignScalar(points, centroids, 0, points.rows, assignment);
}

KMeansResult RunOnce(const DenseMatrix& points, size_t k, Rng* rng,
                     const KMeansOptions& options, SimdTier tier) {
  const size_t n = points.rows;
  const size_t d = points.cols;
  KMeansResult res;
  res.centroids.rows = k;
  res.centroids.cols = d;
  res.centroids.values.assign(k * d, 0.0);
  SeedCentroids(points, k, rng, &res.centroids);
  res.assignment.assign(n, 0);
  DenseMatrix& centroids = res.centroids;

  // Scratch, allocated once: the iterations allocate nothing.
  std::vector<double> next(k * d);
  std::vector<size_t> counts(k);
  std::vector<double> block;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    res.iterations = iter + 1;
    Assign(tier, points, centroids, res.assignment.data(), &block);
    // Update: per-cluster sums in point order.
    std::fill(next.begin(), next.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(res.assignment[i]);
      ++counts[c];
      const double* p = points.row(i);
      double* sum = next.data() + c * d;
      for (size_t j = 0; j < d; ++j) sum[j] += p[j];
    }
    double movement = 0.0;
    for (size_t c = 0; c < k; ++c) {
      double* moved = next.data() + c * d;
      if (counts[c] == 0) {
        // Empty cluster: reseed at the point farthest from its centroid.
        // Clusters before c already hold their new centroids here.
        size_t far = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < n; ++i) {
          const double dist = SquaredDistance(
              points.row(i),
              centroids.row(static_cast<size_t>(res.assignment[i])), d);
          if (dist > far_d) {
            far_d = dist;
            far = i;
          }
        }
        CopyRow(points.row(far), d, moved);
      } else {
        for (size_t j = 0; j < d; ++j) {
          moved[j] /= static_cast<double>(counts[c]);
        }
      }
      movement += SquaredDistance(moved, centroids.row(c), d);
      CopyRow(moved, d, centroids.row(c));
    }
    if (movement < options.tolerance) break;
  }

  res.inertia = 0.0;
  for (size_t i = 0; i < n; ++i) {
    res.inertia += SquaredDistance(
        points.row(i), centroids.row(static_cast<size_t>(res.assignment[i])),
        d);
  }
  return res;
}

// ---------------------------------------------------------------------
// Silhouette distance sums. A block of `lanes` sampled points is held
// transposed (block[t * lanes + l] = coordinate t of lane l); for one
// cluster's members, in sample order, each lane adds the Euclidean
// distance to the member into its own accumulator, skipping the member
// that is the lane's own point. Every lane therefore adds the same
// terms in the same order as a per-point loop over the sample, and the
// block width does not change any bits.
//
// The distance is sqrt(s) for s = the sum of squared differences, and
// sqrt is correctly rounded, so both tiers of the sqrt bodies agree.
// For d = 1, s = RN(x^2) for the difference x, and in binary64
// sqrt(RN(x^2)) = |x| whenever x = 0 or x^2 is normal and finite. The
// 1-D guard (SquareRootIsAbs) ensures that for every pair, so the abs
// bodies add |x| instead: the same bits without a square root.
// ---------------------------------------------------------------------

/// Block widths: the sqrt bodies take one AVX2 register of lanes, the
/// abs bodies four, so that four add chains overlap.
constexpr size_t kSqrtLanes = 4;
constexpr size_t kAbsLanes = 16;

/// |v| is 0 or in [2^-459, 2^510]. Such values are multiples of
/// 2^-511, so the difference x of two of them is 0 or, rounded,
/// 2^-511 <= |x| <= 2^511, and x^2 lies in [2^-1022, 2^1022]: normal
/// and finite. NaN fails both comparisons.
bool SquareRootIsAbs(double v) {
  const double a = std::fabs(v);
  return a == 0.0 || (a >= 0x1p-459 && a <= 0x1p510);
}

/// sums[l] = sum over members m with ids[m] != lanes[l] of
/// sqrt(|block lane l - member m|^2), members in order.
void SqrtDistanceSumsScalar(const double* block, const uint64_t* lanes,
                            const double* members, const uint64_t* ids,
                            size_t count, size_t d, double* sums) {
  double acc[kSqrtLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t m = 0; m < count; ++m) {
    const double* member = members + m * d;
    for (size_t l = 0; l < kSqrtLanes; ++l) {
      if (ids[m] == lanes[l]) continue;  // the lane's own point
      double s = 0.0;
      for (size_t t = 0; t < d; ++t) {
        const double diff = block[t * kSqrtLanes + l] - member[t];
        s += diff * diff;
      }
      acc[l] += std::sqrt(s);
    }
  }
  for (size_t l = 0; l < kSqrtLanes; ++l) sums[l] = acc[l];
}

/// The same sums for d = 1 under SquareRootIsAbs: |block lane l -
/// member m| in place of the square root.
void AbsDistanceSumsScalar(const double* block, const uint64_t* lanes,
                           const double* members, const uint64_t* ids,
                           size_t count, size_t /*d*/, double* sums) {
  double acc[kAbsLanes] = {};
  for (size_t m = 0; m < count; ++m) {
    for (size_t l = 0; l < kAbsLanes; ++l) {
      if (ids[m] == lanes[l]) continue;  // the lane's own point
      acc[l] += std::fabs(block[l] - members[m]);
    }
  }
  for (size_t l = 0; l < kAbsLanes; ++l) sums[l] = acc[l];
}

#if DBWIPES_HAVE_AVX2_TIER
/// The sqrt sums, one AVX2 register of lanes. The own point's term is
/// masked to +0.0 rather than added as sqrt(0) (x - x is NaN for an
/// infinite coordinate). An accumulator starts at +0.0 and only gains
/// square roots, which are never -0.0, so adding +0.0 leaves it as is.
__attribute__((target("avx2"))) void SqrtDistanceSumsAvx2(
    const double* block, const uint64_t* lanes, const double* members,
    const uint64_t* ids, size_t count, size_t d, double* sums) {
  const __m256i own =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes));
  __m256d acc = _mm256_setzero_pd();
  for (size_t m = 0; m < count; ++m) {
    const double* member = members + m * d;
    __m256d s = _mm256_setzero_pd();
    for (size_t t = 0; t < d; ++t) {
      const __m256d diff =
          _mm256_sub_pd(_mm256_loadu_pd(block + t * kSqrtLanes),
                        _mm256_set1_pd(member[t]));
      s = _mm256_add_pd(s, _mm256_mul_pd(diff, diff));
    }
    const __m256d self = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        own, _mm256_set1_epi64x(static_cast<long long>(ids[m]))));
    acc = _mm256_add_pd(acc, _mm256_andnot_pd(self, _mm256_sqrt_pd(s)));
  }
  _mm256_storeu_pd(sums, acc);
}

/// The abs sums, four registers whose add chains overlap. One andnot
/// clears the sign bit and masks the own point's term to +0.0; the
/// cleared sign turns the -0.0 that -0.0 - +0.0 gives into +0.0 too.
__attribute__((target("avx2"))) void AbsDistanceSumsAvx2(
    const double* block, const uint64_t* lanes, const double* members,
    const uint64_t* ids, size_t count, size_t /*d*/, double* sums) {
  constexpr size_t kRegs = kAbsLanes / 4;
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256i own[kRegs];
  __m256d x[kRegs];
  __m256d acc[kRegs];
  for (size_t r = 0; r < kRegs; ++r) {
    own[r] =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes + 4 * r));
    x[r] = _mm256_loadu_pd(block + 4 * r);
    acc[r] = _mm256_setzero_pd();
  }
  for (size_t m = 0; m < count; ++m) {
    const __m256d member = _mm256_set1_pd(members[m]);
    const __m256i id = _mm256_set1_epi64x(static_cast<long long>(ids[m]));
    for (size_t r = 0; r < kRegs; ++r) {
      const __m256d drop = _mm256_or_pd(
          sign, _mm256_castsi256_pd(_mm256_cmpeq_epi64(own[r], id)));
      acc[r] = _mm256_add_pd(
          acc[r], _mm256_andnot_pd(drop, _mm256_sub_pd(x[r], member)));
    }
  }
  for (size_t r = 0; r < kRegs; ++r) _mm256_storeu_pd(sums + 4 * r, acc[r]);
}
#endif

using DistanceSumsFn = void (*)(const double*, const uint64_t*, const double*,
                                const uint64_t*, size_t, size_t, double*);

/// A body and the block width it takes.
struct DistanceSums {
  DistanceSumsFn fn;
  size_t lanes;
};

/// The body for the sampled points' packed coordinates `members` (m x
/// d) at `tier`: the abs body when d = 1 and every coordinate passes
/// SquareRootIsAbs, else the sqrt body.
DistanceSums DistanceSumsFor(SimdTier tier, const std::vector<double>& members,
                             size_t d) {
  const bool abs = d == 1 && std::all_of(members.begin(), members.end(),
                                         SquareRootIsAbs);
#if DBWIPES_HAVE_AVX2_TIER
  if (tier == SimdTier::kAvx2) {
    return abs ? DistanceSums{AbsDistanceSumsAvx2, kAbsLanes}
               : DistanceSums{SqrtDistanceSumsAvx2, kSqrtLanes};
  }
#endif
  (void)tier;
  return abs ? DistanceSums{AbsDistanceSumsScalar, kAbsLanes}
             : DistanceSums{SqrtDistanceSumsScalar, kSqrtLanes};
}

}  // namespace

double MeanSilhouette(const DenseMatrix& points,
                      const std::vector<int>& assignment, size_t k, Rng* rng) {
  DBW_CHECK(IsRectangular(points) && assignment.size() == points.rows);
  for (int a : assignment) DBW_CHECK(a >= 0 && static_cast<size_t>(a) < k);
  const size_t n = points.rows;
  const size_t d = points.cols;
  std::vector<size_t> sample;
  if (n > 500) {
    sample = rng->SampleWithoutReplacement(n, 500);
  } else {
    sample.resize(n);
    for (size_t i = 0; i < n; ++i) sample[i] = i;
  }
  const size_t m = sample.size();

  // Each cluster's sampled members in sample order, with their
  // coordinates packed: cluster c is positions [begin[c], begin[c+1]).
  std::vector<size_t> begin(k + 1, 0);
  for (size_t i : sample) ++begin[static_cast<size_t>(assignment[i]) + 1];
  for (size_t c = 0; c < k; ++c) begin[c + 1] += begin[c];
  std::vector<uint64_t> ids(m);
  std::vector<double> members(m * d);
  {
    std::vector<size_t> fill(begin.begin(), begin.end() - 1);
    for (size_t i : sample) {
      const size_t pos = fill[static_cast<size_t>(assignment[i])]++;
      ids[pos] = i;
      CopyRow(points.row(i), d, members.data() + pos * d);
    }
  }

  const DistanceSums distance_sums =
      DistanceSumsFor(ResolveSimdTier(), members, d);
  const size_t w = distance_sums.lanes;
  std::vector<double> block(d * w);
  std::vector<double> sums(k * w);  // sums[c * w + l]
  double total = 0.0;
  size_t counted = 0;
  for (size_t q = 0; q < m; q += w) {
    const size_t width = std::min(w, m - q);
    uint64_t lanes[kAbsLanes] = {};
    for (size_t l = 0; l < w; ++l) {
      // Padding lanes repeat the block's first point; they are ignored.
      lanes[l] = sample[q + (l < width ? l : 0)];
      const double* p = points.row(lanes[l]);
      for (size_t t = 0; t < d; ++t) block[t * w + l] = p[t];
    }
    for (size_t c = 0; c < k; ++c) {
      distance_sums.fn(block.data(), lanes, members.data() + begin[c] * d,
                       ids.data() + begin[c], begin[c + 1] - begin[c], d,
                       sums.data() + c * w);
    }
    for (size_t l = 0; l < width; ++l) {
      const size_t own = static_cast<size_t>(assignment[lanes[l]]);
      // Members of the point's own cluster other than itself.
      const size_t own_count = begin[own + 1] - begin[own] - 1;
      if (own_count == 0) continue;  // singleton in the sample
      const double a = sums[own * w + l] / static_cast<double>(own_count);
      double b = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        const size_t count = begin[c + 1] - begin[c];
        if (c == own || count == 0) continue;
        b = std::min(b, sums[c * w + l] / static_cast<double>(count));
      }
      if (!std::isfinite(b)) continue;
      const double denom = std::max(a, b);
      if (denom > 0.0) {
        total += (b - a) / denom;
        ++counted;
      }
    }
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

std::vector<size_t> KMeansResult::ClusterSizes(size_t k) const {
  std::vector<size_t> sizes(k, 0);
  for (int a : assignment) {
    DBW_CHECK(a >= 0 && static_cast<size_t>(a) < k);
    ++sizes[a];
  }
  return sizes;
}

Result<KMeansResult> KMeans(const DenseMatrix& points, size_t k, Rng* rng,
                            const KMeansOptions& options) {
  DBW_RETURN_NOT_OK(CheckPoints(points));
  if (k == 0 || k > points.rows) {
    return Status::InvalidArgument("k must be in [1, num_points]");
  }
  const SimdTier tier = ResolveSimdTier();
  KMeansResult best;
  bool have_best = false;
  const size_t restarts = std::max<size_t>(1, options.num_restarts);
  for (size_t rep = 0; rep < restarts; ++rep) {
    KMeansResult res = RunOnce(points, k, rng, options, tier);
    if (!have_best || res.inertia < best.inertia) {
      best = std::move(res);
      have_best = true;
    }
  }
  return best;
}

Result<KMeansResult> KMeansAuto(const DenseMatrix& points, size_t max_k,
                                Rng* rng, const KMeansOptions& options) {
  DBW_RETURN_NOT_OK(CheckPoints(points));
  max_k = std::min(max_k, points.rows);
  if (max_k == 0) return Status::InvalidArgument("max_k must be >= 1");

  // Gap-statistic-style selection: a k is accepted only when its
  // silhouette clearly beats the silhouette k-means achieves on
  // structureless (uniform) reference data of the same shape — the
  // absolute silhouette of a best split depends on dimension, so a
  // fixed threshold cannot tell 1-D uniform from clustered 2-D data.
  const size_t n = points.rows;
  const size_t d = points.cols;
  std::vector<double> lo(d, 0.0), hi(d, 1.0);
  for (size_t j = 0; j < d; ++j) {
    lo[j] = hi[j] = points.row(0)[j];
    for (size_t i = 0; i < n; ++i) {
      lo[j] = std::min(lo[j], points.row(i)[j]);
      hi[j] = std::max(hi[j], points.row(i)[j]);
    }
  }
  constexpr size_t kNumReference = 3;
  constexpr double kMinGap = 0.08;
  DBW_ASSIGN_OR_RETURN(KMeansResult best, KMeans(points, 1, rng, options));
  double best_gap = 0.0;
  DenseMatrix fake{n, d, std::vector<double>(n * d)};
  for (size_t k = 2; k <= max_k; ++k) {
    DBW_ASSIGN_OR_RETURN(KMeansResult r, KMeans(points, k, rng, options));
    const double observed = MeanSilhouette(points, r.assignment, k, rng);
    double reference = 0.0;
    for (size_t b = 0; b < kNumReference; ++b) {
      for (size_t i = 0; i < n; ++i) {
        double* p = fake.row(i);
        for (size_t j = 0; j < d; ++j) p[j] = rng->UniformDouble(lo[j], hi[j]);
      }
      DBW_ASSIGN_OR_RETURN(KMeansResult fr, KMeans(fake, k, rng, options));
      reference += MeanSilhouette(fake, fr.assignment, k, rng);
    }
    reference /= static_cast<double>(kNumReference);
    const double gap = observed - reference;
    if (gap >= kMinGap && gap > best_gap) {
      best_gap = gap;
      best = std::move(r);
    }
  }
  return best;
}

}  // namespace dbwipes
