#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>

#include "dbwipes/common/random.h"
#include "dbwipes/expr/fused_kernels.h"
#include "dbwipes/learn/kmeans.h"

namespace dbwipes {
namespace {

// ---------- reference k-means ----------
//
// The k-means that the flat-matrix KMeans/KMeansAuto replaced: points
// as vector<vector<double>>, a per-point silhouette loop that scatters
// each square-rooted distance into its cluster's sum. Kept only as the
// oracle; the flat version must agree with it bit for bit.
namespace reference {

using Points = std::vector<std::vector<double>>;

struct Result {
  std::vector<int> assignment;
  Points centroids;
  double inertia = 0.0;
  size_t iterations = 0;
};

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

Points SeedCentroids(const Points& points, size_t k, Rng* rng) {
  Points centroids;
  centroids.reserve(k);
  centroids.push_back(points[rng->UniformInt(points.size())]);
  std::vector<double> dist2(points.size(),
                            std::numeric_limits<double>::infinity());
  while (centroids.size() < k) {
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      dist2[i] =
          std::min(dist2[i], SquaredDistance(points[i], centroids.back()));
      total += dist2[i];
    }
    if (total <= 0.0) {
      centroids.push_back(points[rng->UniformInt(points.size())]);
      continue;
    }
    double target = rng->UniformDouble() * total;
    size_t chosen = points.size() - 1;
    double acc = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      acc += dist2[i];
      if (target < acc) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

Result RunOnce(const Points& points, size_t k, Rng* rng,
               const KMeansOptions& options) {
  const size_t n = points.size();
  const size_t d = points[0].size();
  Result res;
  res.centroids = SeedCentroids(points, k, rng);
  res.assignment.assign(n, 0);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    res.iterations = iter + 1;
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      int best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const double dist = SquaredDistance(points[i], res.centroids[c]);
        if (dist < best) {
          best = dist;
          best_c = static_cast<int>(c);
        }
      }
      res.assignment[i] = best_c;
    }
    Points next(k, std::vector<double>(d, 0.0));
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const int c = res.assignment[i];
      ++counts[c];
      for (size_t j = 0; j < d; ++j) next[c][j] += points[i][j];
    }
    double movement = 0.0;
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        size_t far = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < n; ++i) {
          const double dist =
              SquaredDistance(points[i], res.centroids[res.assignment[i]]);
          if (dist > far_d) {
            far_d = dist;
            far = i;
          }
        }
        next[c] = points[far];
      } else {
        for (size_t j = 0; j < d; ++j) {
          next[c][j] /= static_cast<double>(counts[c]);
        }
      }
      movement += SquaredDistance(next[c], res.centroids[c]);
      res.centroids[c] = std::move(next[c]);
    }
    if (movement < options.tolerance) break;
  }
  res.inertia = 0.0;
  for (size_t i = 0; i < n; ++i) {
    res.inertia += SquaredDistance(points[i], res.centroids[res.assignment[i]]);
  }
  return res;
}

Result KMeans(const Points& points, size_t k, Rng* rng,
              const KMeansOptions& options) {
  Result best;
  bool have_best = false;
  const size_t restarts = std::max<size_t>(1, options.num_restarts);
  for (size_t rep = 0; rep < restarts; ++rep) {
    Result res = RunOnce(points, k, rng, options);
    if (!have_best || res.inertia < best.inertia) {
      best = std::move(res);
      have_best = true;
    }
  }
  return best;
}

double MeanSilhouette(const Points& points, const std::vector<int>& assignment,
                      size_t k, Rng* rng) {
  const size_t n = points.size();
  std::vector<size_t> sample;
  if (n > 500) {
    sample = rng->SampleWithoutReplacement(n, 500);
  } else {
    sample.resize(n);
    for (size_t i = 0; i < n; ++i) sample[i] = i;
  }
  double total = 0.0;
  size_t counted = 0;
  for (size_t i : sample) {
    std::vector<double> mean_dist(k, 0.0);
    std::vector<size_t> counts(k, 0);
    for (size_t j : sample) {
      if (j == i) continue;
      mean_dist[assignment[j]] +=
          std::sqrt(SquaredDistance(points[i], points[j]));
      ++counts[assignment[j]];
    }
    const int own = assignment[i];
    if (counts[own] == 0) continue;
    double a = mean_dist[own] / static_cast<double>(counts[own]);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < k; ++c) {
      if (static_cast<int>(c) == own || counts[c] == 0) continue;
      b = std::min(b, mean_dist[c] / static_cast<double>(counts[c]));
    }
    if (!std::isfinite(b)) continue;
    const double denom = std::max(a, b);
    if (denom > 0.0) {
      total += (b - a) / denom;
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

Result KMeansAuto(const Points& points, size_t max_k, Rng* rng,
                  const KMeansOptions& options) {
  max_k = std::min(max_k, points.size());
  const size_t d = points[0].size();
  std::vector<double> lo(d, 0.0), hi(d, 1.0);
  for (size_t j = 0; j < d; ++j) {
    lo[j] = hi[j] = points[0][j];
    for (const auto& p : points) {
      lo[j] = std::min(lo[j], p[j]);
      hi[j] = std::max(hi[j], p[j]);
    }
  }
  constexpr size_t kNumReference = 3;
  constexpr double kMinGap = 0.08;
  Result best = KMeans(points, 1, rng, options);
  double best_gap = 0.0;
  for (size_t k = 2; k <= max_k; ++k) {
    Result r = KMeans(points, k, rng, options);
    const double observed = MeanSilhouette(points, r.assignment, k, rng);
    double reference = 0.0;
    for (size_t b = 0; b < kNumReference; ++b) {
      Points fake(points.size(), std::vector<double>(d));
      for (auto& p : fake) {
        for (size_t j = 0; j < d; ++j) p[j] = rng->UniformDouble(lo[j], hi[j]);
      }
      Result fr = KMeans(fake, k, rng, options);
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

}  // namespace reference

// ---------- random problems ----------

struct Problem {
  reference::Points points;
  size_t k = 1;
  KMeansOptions options;
  uint64_t seed = 0;
  std::string shape;
};

DenseMatrix Flatten(const reference::Points& points) {
  DenseMatrix m;
  m.rows = points.size();
  m.cols = points[0].size();
  for (const auto& p : points) {
    m.values.insert(m.values.end(), p.begin(), p.end());
  }
  return m;
}

/// Sizes mostly small, with one problem in eight above the 500-point
/// silhouette sample so both sides of it are covered.
Problem RandomProblem(Rng* rng) {
  Problem p;
  const uint64_t size_class = rng->UniformInt(8);
  const size_t n = size_class == 0   ? 501 + rng->UniformInt(1000)
                   : size_class < 4 ? 1 + rng->UniformInt(24)
                                    : 1 + rng->UniformInt(300);
  const size_t d = 1 + rng->UniformInt(8);
  p.k = 1 + rng->UniformInt(std::min<size_t>(4, n));
  p.seed = rng->Next();
  p.options.num_restarts = 1 + rng->UniformInt(3);
  if (rng->Bernoulli(0.3)) p.options.max_iterations = 1 + rng->UniformInt(6);

  p.points.assign(n, std::vector<double>(d, 0.0));
  switch (rng->UniformInt(5)) {
    case 0: {  // all points equal: the seeding's total <= 0 branch
      p.shape = "equal";
      std::vector<double> at(d);
      for (double& v : at) v = rng->Normal(0, 3);
      for (auto& pt : p.points) pt = at;
      break;
    }
    case 1: {  // few distinct points, many duplicates: empty clusters
      p.shape = "duplicates";
      const size_t distinct = 1 + rng->UniformInt(3);
      reference::Points bases(distinct, std::vector<double>(d));
      for (auto& b : bases) {
        for (double& v : b) v = rng->Normal(0, 5);
      }
      for (auto& pt : p.points) pt = bases[rng->UniformInt(distinct)];
      break;
    }
    case 2: {  // ±inf and 1e200 coordinates among blobs
      p.shape = "extreme";
      for (auto& pt : p.points) {
        for (double& v : pt) {
          const uint64_t r = rng->UniformInt(20);
          v = r == 0   ? std::numeric_limits<double>::infinity()
              : r == 1 ? -std::numeric_limits<double>::infinity()
              : r == 2 ? 1e200
              : r == 3 ? -1e200
                       : rng->Normal(0, 1);
        }
      }
      break;
    }
    case 3: {  // uniform, structureless
      p.shape = "uniform";
      for (auto& pt : p.points) {
        for (double& v : pt) v = rng->UniformDouble(-1, 1);
      }
      break;
    }
    default: {  // well-separated blobs
      p.shape = "blobs";
      const size_t blobs = 1 + rng->UniformInt(4);
      reference::Points centers(blobs, std::vector<double>(d));
      for (auto& c : centers) {
        for (double& v : c) v = rng->Normal(0, 10);
      }
      for (auto& pt : p.points) {
        const auto& c = centers[rng->UniformInt(blobs)];
        for (size_t j = 0; j < d; ++j) pt[j] = c[j] + rng->Normal(0, 0.5);
      }
      break;
    }
  }
  return p;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Equal bits, or both NaN: a NaN's payload carries no meaning here.
bool SameValue(double a, double b) {
  return SameBits(a, b) || (std::isnan(a) && std::isnan(b));
}

using SameFn = bool (*)(double, double);

/// Empty when equal; otherwise the first difference. `same` compares
/// the inertia and each centroid coordinate.
std::string Compare(const reference::Result& want, const KMeansResult& got,
                    SameFn same) {
  if (want.assignment != got.assignment) return "assignment";
  if (want.iterations != got.iterations) return "iterations";
  if (!same(want.inertia, got.inertia)) return "inertia bits";
  if (got.centroids.rows != want.centroids.size()) return "centroid count";
  for (size_t c = 0; c < want.centroids.size(); ++c) {
    if (got.centroids.cols != want.centroids[c].size()) return "centroid dim";
    for (size_t j = 0; j < want.centroids[c].size(); ++j) {
      if (!same(want.centroids[c][j], got.centroids.row(c)[j])) {
        return "centroid bits";
      }
    }
  }
  return "";
}

/// Pins DBWIPES_SIMD for one scope; restores the previous value.
class ScopedSimd {
 public:
  explicit ScopedSimd(bool scalar) {
    const char* prev = std::getenv("DBWIPES_SIMD");
    had_ = prev != nullptr;
    if (had_) prev_ = prev;
    if (scalar) {
      setenv("DBWIPES_SIMD", "off", 1);
    } else {
      unsetenv("DBWIPES_SIMD");
    }
  }
  ~ScopedSimd() {
    if (had_) {
      setenv("DBWIPES_SIMD", prev_.c_str(), 1);
    } else {
      unsetenv("DBWIPES_SIMD");
    }
  }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;

 private:
  bool had_ = false;
  std::string prev_;
};

/// Runs KMeans, KMeansAuto and MeanSilhouette (on the clustering found
/// and on a random assignment, which may leave clusters empty) on `p`
/// at the host's best tier and at the scalar tier, and expects the
/// reference's bits from each; `same` compares inertias and centroids.
void ExpectMatchesReference(const Problem& p, int trial, Rng* gen,
                            SameFn same) {
  const DenseMatrix flat = Flatten(p.points);
  Rng ref_rng(p.seed);
  const reference::Result want_k =
      reference::KMeans(p.points, p.k, &ref_rng, p.options);
  const reference::Result want_auto =
      reference::KMeansAuto(p.points, p.k, &ref_rng, p.options);
  const uint64_t want_next = ref_rng.Next();

  std::vector<int> scattered(p.points.size());
  for (int& a : scattered) a = static_cast<int>(gen->UniformInt(p.k));
  const uint64_t sample_seed = gen->Next();
  const std::vector<const std::vector<int>*> assignments = {
      &want_k.assignment, &scattered};
  std::vector<double> want_silhouettes;
  for (const std::vector<int>* assignment : assignments) {
    Rng rng(sample_seed);
    want_silhouettes.push_back(
        reference::MeanSilhouette(p.points, *assignment, p.k, &rng));
  }

  // Unless DBWIPES_SIMD already forces the scalar tier, the run
  // without it uses the host's best tier.
  for (bool scalar : {false, true}) {
    ScopedSimd tier(scalar);
    const std::string where =
        "trial " + std::to_string(trial) + " (" + p.shape +
        ", n=" + std::to_string(p.points.size()) +
        ", d=" + std::to_string(p.points[0].size()) +
        ", k=" + std::to_string(p.k) + ", tier " +
        SimdTierName(ResolveSimdTier()) + ")";
    Rng rng(p.seed);
    auto got_k = KMeans(flat, p.k, &rng, p.options);
    ASSERT_TRUE(got_k.ok()) << where << ": " << got_k.status().ToString();
    EXPECT_EQ(Compare(want_k, *got_k, same), "") << where << " KMeans";
    auto got_auto = KMeansAuto(flat, p.k, &rng, p.options);
    ASSERT_TRUE(got_auto.ok()) << where;
    EXPECT_EQ(Compare(want_auto, *got_auto, same), "")
        << where << " KMeansAuto";
    EXPECT_EQ(rng.Next(), want_next) << where << " rng draw order";

    size_t which = 0;
    for (const std::vector<int>* assignment : assignments) {
      Rng sample_rng(sample_seed);
      const double got = MeanSilhouette(flat, *assignment, p.k, &sample_rng);
      EXPECT_TRUE(SameValue(got, want_silhouettes[which]))
          << where << " silhouette " << which << ": " << got << " vs "
          << want_silhouettes[which];
      ++which;
    }
  }
}

TEST(KMeansOracle, FlatMatrixMatchesReferenceBitForBit) {
  Rng gen(20261018);
  constexpr int kProblems = 320;
  int over_sample = 0, extreme = 0, duplicates = 0, equal = 0;
  for (int trial = 0; trial < kProblems; ++trial) {
    const Problem p = RandomProblem(&gen);
    over_sample += p.points.size() > 500;
    extreme += p.shape == "extreme";
    duplicates += p.shape == "duplicates";
    equal += p.shape == "equal";
    ExpectMatchesReference(p, trial, &gen, SameBits);
  }
  // The generator covers what the law is about.
  EXPECT_GE(over_sample, 20);
  EXPECT_GE(extreme, 30);
  EXPECT_GE(duplicates, 30);
  EXPECT_GE(equal, 30);
}

// ---------- 1-D problems at the silhouette guard's edges ----------
//
// For d = 1 MeanSilhouette adds |x| in place of sqrt(x * x) when every
// coordinate is 0 or has a magnitude in [2^-459, 2^510]; outside that
// range a square may underflow or overflow, and the sqrt body runs.

/// `v` moved `steps` doubles toward +inf.
double Up(double v, uint64_t steps) {
  for (; steps > 0; --steps) {
    v = std::nextafter(v, std::numeric_limits<double>::infinity());
  }
  return v;
}

/// "edges": the guard's bounds and the doubles beside them, ±0.0,
/// subnormals, ±inf and NaN, mixed with ordinary values. "tiny" and
/// "huge": every coordinate in runs of neighbouring doubles (one ulp
/// apart) at magnitudes about 2^-500 to 2^-460, or 2^505 to 2^512, so
/// squared differences underflow or overflow.
Problem GuardEdgeProblem(Rng* rng) {
  Problem p;
  const size_t n = 2 + rng->UniformInt(120);
  p.k = 1 + rng->UniformInt(std::min<size_t>(4, n));
  p.seed = rng->Next();
  p.options.num_restarts = 1 + rng->UniformInt(3);
  if (rng->Bernoulli(0.3)) p.options.max_iterations = 1 + rng->UniformInt(6);
  p.points.assign(n, std::vector<double>(1, 0.0));
  const double inf = std::numeric_limits<double>::infinity();
  switch (rng->UniformInt(3)) {
    case 0: {
      p.shape = "edges";
      const double lo = 0x1p-459, hi = 0x1p510;
      const double values[] = {
          0.0, -0.0, lo, std::nextafter(lo, 0.0), Up(lo, 1), hi,
          std::nextafter(hi, 0.0), Up(hi, 1),
          std::numeric_limits<double>::denorm_min(), 0x1p-1030,
          Up(0x1p-1060, 3), std::numeric_limits<double>::min(), inf,
          std::numeric_limits<double>::quiet_NaN(), 1.0, 0.75};
      for (auto& pt : p.points) {
        const double v = values[rng->UniformInt(std::size(values))];
        pt[0] = rng->Bernoulli(0.5) ? -v : v;
      }
      break;
    }
    default: {
      const bool tiny = rng->Bernoulli(0.5);
      p.shape = tiny ? "tiny" : "huge";
      const size_t runs = 1 + rng->UniformInt(4);
      std::vector<double> starts(runs);
      for (double& start : starts) {
        const int exp = tiny ? -500 + static_cast<int>(rng->UniformInt(40))
                             : 505 + static_cast<int>(rng->UniformInt(7));
        start = std::ldexp(1.0 + rng->UniformDouble(), exp);
        if (rng->Bernoulli(0.5)) start = -start;
      }
      for (auto& pt : p.points) {
        pt[0] = Up(starts[rng->UniformInt(runs)], rng->UniformInt(6));
      }
      break;
    }
  }
  return p;
}

TEST(KMeansOracle, OneDimensionalGuardEdgesMatchReference) {
  Rng gen(20261019);
  constexpr int kProblems = 240;
  int edges = 0, tiny = 0, huge = 0;
  for (int trial = 0; trial < kProblems; ++trial) {
    const Problem p = GuardEdgeProblem(&gen);
    edges += p.shape == "edges";
    tiny += p.shape == "tiny";
    huge += p.shape == "huge";
    // Any NaN matches any NaN in inertias and centroids here: these
    // inputs mix NaN signs on purpose, and when two NaNs of different
    // signs meet in an add (a NaN coordinate, and inf - inf's default
    // NaN) which one the sum keeps depends on the operand order the
    // compiler picks for the commutative add, which differs between
    // builds (it does under asan).
    ExpectMatchesReference(p, trial, &gen, SameValue);
  }
  EXPECT_GE(edges, 50);
  EXPECT_GE(tiny, 50);
  EXPECT_GE(huge, 50);
}

}  // namespace
}  // namespace dbwipes
