#ifndef DBWIPES_LEARN_DENSE_MATRIX_H_
#define DBWIPES_LEARN_DENSE_MATRIX_H_

#include <cstddef>
#include <vector>

namespace dbwipes {

/// \brief A row-major matrix of doubles: row i is
/// values[i * cols, (i + 1) * cols).
///
/// The learners' point format (k-means, FeatureColumns::NumericMatrix):
/// one allocation, and a point's coordinates are adjacent in memory.
struct DenseMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<double> values;

  double* row(size_t i) { return values.data() + i * cols; }
  const double* row(size_t i) const { return values.data() + i * cols; }
};

}  // namespace dbwipes

#endif  // DBWIPES_LEARN_DENSE_MATRIX_H_
