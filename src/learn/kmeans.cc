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

KMeansResult RunOnce(const DenseMatrix& points, size_t k, Rng* rng,
                     const KMeansOptions& options) {
  const size_t n = points.rows;
  const size_t d = points.cols;
  KMeansResult res;
  res.centroids.rows = k;
  res.centroids.cols = d;
  res.centroids.values.assign(k * d, 0.0);
  SeedCentroids(points, k, rng, &res.centroids);
  res.assignment.assign(n, 0);
  DenseMatrix& centroids = res.centroids;

  // Update scratch, allocated once: the iterations allocate nothing.
  std::vector<double> next(k * d);
  std::vector<size_t> counts(k);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    res.iterations = iter + 1;
    // Assign.
    for (size_t i = 0; i < n; ++i) {
      const double* p = points.row(i);
      double best = std::numeric_limits<double>::infinity();
      int best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const double dist = SquaredDistance(p, centroids.row(c), d);
        if (dist < best) {
          best = dist;
          best_c = static_cast<int>(c);
        }
      }
      res.assignment[i] = best_c;
    }
    // Update.
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
// Silhouette distance sums. A block of kLanes sampled points is held
// transposed (block[t * kLanes + l] = coordinate t of lane l); for one
// cluster's members, in sample order, each lane adds the square root of
// its squared distance to the member into its own accumulator, skipping
// the member that is the lane's own point. Every lane therefore adds the
// same terms in the same order as a per-point loop over the sample.
// sqrt is correctly rounded, so both tiers give the same bits.
// ---------------------------------------------------------------------

constexpr size_t kLanes = 4;

/// sums[l] = sum over members m with ids[m] != lanes[l] of
/// sqrt(|block lane l - member m|^2), members in order.
void SqrtDistanceSumsScalar(const double* block, const uint64_t* lanes,
                            const double* members, const uint64_t* ids,
                            size_t count, size_t d, double* sums) {
  double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t m = 0; m < count; ++m) {
    const double* member = members + m * d;
    for (size_t l = 0; l < kLanes; ++l) {
      if (ids[m] == lanes[l]) continue;  // the lane's own point
      double s = 0.0;
      for (size_t t = 0; t < d; ++t) {
        const double diff = block[t * kLanes + l] - member[t];
        s += diff * diff;
      }
      acc[l] += std::sqrt(s);
    }
  }
  for (size_t l = 0; l < kLanes; ++l) sums[l] = acc[l];
}

#if DBWIPES_HAVE_AVX2_TIER
/// The same sums, one AVX2 register of lanes. The own point's term is
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
      const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(block + t * kLanes),
                                         _mm256_set1_pd(member[t]));
      s = _mm256_add_pd(s, _mm256_mul_pd(diff, diff));
    }
    const __m256d self = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        own, _mm256_set1_epi64x(static_cast<long long>(ids[m]))));
    acc = _mm256_add_pd(acc, _mm256_andnot_pd(self, _mm256_sqrt_pd(s)));
  }
  _mm256_storeu_pd(sums, acc);
}
#endif

using SqrtDistanceSumsFn = void (*)(const double*, const uint64_t*,
                                    const double*, const uint64_t*, size_t,
                                    size_t, double*);

SqrtDistanceSumsFn SqrtDistanceSumsFor(SimdTier tier) {
#if DBWIPES_HAVE_AVX2_TIER
  if (tier == SimdTier::kAvx2) return SqrtDistanceSumsAvx2;
#endif
  (void)tier;
  return SqrtDistanceSumsScalar;
}

}  // namespace

double MeanSilhouette(const DenseMatrix& points,
                      const std::vector<int>& assignment, size_t k, Rng* rng) {
  DBW_CHECK(IsRectangular(points) && assignment.size() == points.rows);
  for (int a : assignment) DBW_CHECK(a >= 0 && static_cast<size_t>(a) < k);
  const SqrtDistanceSumsFn sqrt_sums = SqrtDistanceSumsFor(ResolveSimdTier());
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

  std::vector<double> block(d * kLanes);
  std::vector<double> sums(k * kLanes);  // sums[c * kLanes + l]
  double total = 0.0;
  size_t counted = 0;
  for (size_t q = 0; q < m; q += kLanes) {
    const size_t width = std::min(kLanes, m - q);
    uint64_t lanes[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      // Padding lanes repeat the block's first point; they are ignored.
      lanes[l] = sample[q + (l < width ? l : 0)];
      const double* p = points.row(lanes[l]);
      for (size_t t = 0; t < d; ++t) block[t * kLanes + l] = p[t];
    }
    for (size_t c = 0; c < k; ++c) {
      sqrt_sums(block.data(), lanes, members.data() + begin[c] * d,
                ids.data() + begin[c], begin[c + 1] - begin[c], d,
                sums.data() + c * kLanes);
    }
    for (size_t l = 0; l < width; ++l) {
      const size_t own = static_cast<size_t>(assignment[lanes[l]]);
      // Members of the point's own cluster other than itself.
      const size_t own_count = begin[own + 1] - begin[own] - 1;
      if (own_count == 0) continue;  // singleton in the sample
      const double a =
          sums[own * kLanes + l] / static_cast<double>(own_count);
      double b = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        const size_t count = begin[c + 1] - begin[c];
        if (c == own || count == 0) continue;
        b = std::min(b, sums[c * kLanes + l] / static_cast<double>(count));
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
  KMeansResult best;
  bool have_best = false;
  const size_t restarts = std::max<size_t>(1, options.num_restarts);
  for (size_t rep = 0; rep < restarts; ++rep) {
    KMeansResult res = RunOnce(points, k, rng, options);
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
