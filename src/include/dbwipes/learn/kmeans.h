#ifndef DBWIPES_LEARN_KMEANS_H_
#define DBWIPES_LEARN_KMEANS_H_

#include <vector>

#include "dbwipes/common/random.h"
#include "dbwipes/common/result.h"
#include "dbwipes/learn/dense_matrix.h"

namespace dbwipes {

struct KMeansOptions {
  size_t max_iterations = 100;
  /// Converged when total centroid movement (squared) drops below this.
  double tolerance = 1e-8;
  /// Independent restarts; the best-inertia run wins.
  size_t num_restarts = 3;
};

struct KMeansResult {
  /// assignment[i] = cluster of point i, in [0, k).
  std::vector<int> assignment;
  /// k x d; row c is cluster c's centroid.
  DenseMatrix centroids;
  /// Sum of squared distances to assigned centroids.
  double inertia = 0.0;
  size_t iterations = 0;

  /// Points per cluster.
  std::vector<size_t> ClusterSizes(size_t k) const;
};

/// Lloyd's algorithm with k-means++ seeding over the rows of `points`.
/// There must be at least one point, `points.values` must hold exactly
/// rows x cols numbers, and k must satisfy 1 <= k <= points.rows.
/// The assignment step runs at ResolveSimdTier() (a lane-wise argmin
/// over 4 points at the AVX2 tier): each point takes the first cluster
/// of least squared distance, and a NaN distance never wins. Every
/// tier gives the same bits.
///
/// Used by the Dataset Enumerator to find a self-consistent subset of
/// the user's example tuples D' (paper §2.2.2).
Result<KMeansResult> KMeans(const DenseMatrix& points, size_t k, Rng* rng,
                            const KMeansOptions& options = {});

/// Mean silhouette coefficient of a clustering of `points` into k
/// clusters (one `assignment` per row, each in [0, k); checked), over a
/// sample of at most 500 points drawn from `rng` when there are more.
/// Near 1 = well-separated clusters; uniform structureless data scores
/// ~0.5-0.6 even at its best split. The distance sums run at
/// ResolveSimdTier(). For d = 1, when every sampled coordinate is 0 or
/// has a magnitude in [2^-459, 2^510], each distance is the difference's
/// absolute value, which equals the square root of its square there;
/// any other input takes square roots. Every tier and path gives the
/// same bits.
double MeanSilhouette(const DenseMatrix& points,
                      const std::vector<int>& assignment, size_t k, Rng* rng);

/// Picks k in [1, max_k] by comparing silhouettes against structureless
/// data: for each k >= 2 it clusters `points` and 3 reference sets
/// drawn uniformly from the points' bounding box, and takes the k whose
/// mean silhouette beats the references' mean by the largest gap, if
/// that gap is at least 0.08; otherwise k = 1. Returns that clustering.
Result<KMeansResult> KMeansAuto(const DenseMatrix& points, size_t max_k,
                                Rng* rng, const KMeansOptions& options = {});

}  // namespace dbwipes

#endif  // DBWIPES_LEARN_KMEANS_H_
