#ifndef DBWIPES_LEARN_FEATURE_H_
#define DBWIPES_LEARN_FEATURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dbwipes/common/result.h"
#include "dbwipes/learn/dense_matrix.h"
#include "dbwipes/storage/table.h"

namespace dbwipes {

/// \brief Describes how one table column is used as a learning feature.
struct FeatureSpec {
  size_t column = 0;
  /// Categorical features compare dictionary codes; numeric features
  /// compare doubles.
  bool categorical = false;
  std::string name;
};

class FeatureColumns;

/// \brief A table's columns named as learning features.
///
/// The view names the features and takes snapshots of them over row
/// lists; the learners read the snapshots. Rows are base-table RowIds,
/// so any predicate or tree learned over a snapshot translates
/// directly back to table predicates.
class FeatureView {
 public:
  /// Uses every column in `columns` (by name); string columns become
  /// categorical features. Errors on unknown columns.
  static Result<FeatureView> Create(const Table& table,
                                    const std::vector<std::string>& columns);

  /// Uses all columns except those named in `exclude`.
  static Result<FeatureView> CreateExcluding(
      const Table& table, const std::vector<std::string>& exclude);

  const Table& table() const { return *table_; }
  const std::vector<FeatureSpec>& features() const { return features_; }
  size_t num_features() const { return features_.size(); }

  /// Numeric value of feature f at base row r, one cell at a time.
  /// Categorical features return their dictionary code as a double;
  /// NULL returns NaN. The learners read snapshots instead.
  double Get(RowId row, size_t f) const;

  bool IsNull(RowId row, size_t f) const;

  /// Dense per-feature arrays over `rows`, read once here so that the
  /// learners index arrays instead of reading cells per row, node and
  /// feature. The snapshot borrows this view.
  FeatureColumns Snapshot(const std::vector<RowId>& rows) const;

  /// The string behind a categorical code of feature f.
  const std::string& CategoryName(size_t f, int32_t code) const;

 private:
  FeatureView(const Table* table, std::vector<FeatureSpec> features)
      : table_(table), features_(std::move(features)) {}

  const Table* table_;
  std::vector<FeatureSpec> features_;
};

/// \brief A FeatureView's features over one row list, as dense arrays.
///
/// Position i stands for rows[i] of the list given to
/// FeatureView::Snapshot. A categorical feature holds the rank of each
/// row's dictionary code among the distinct codes of the rows, -1 for
/// NULL, so per-category arrays are bounded by the rows, not by the
/// column's dictionary (which only grows); ranks order like codes. A
/// numeric feature holds its values exactly as FeatureView::Get returns
/// them, NaN for NULL, and its presort: the positions of its non-NaN
/// values in (value, position) order, sorted once here so that no
/// learner sorts again (SPRINT's attribute list). Every learner treats
/// a NULL and a NaN value alike (neither side of a numeric split or cut
/// takes it, and neither is in the presort), so no separate NULL flag
/// is kept. Borrows the view, which must outlive the snapshot.
class FeatureColumns {
 public:
  const FeatureView& view() const { return *view_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return view_->num_features(); }
  bool categorical(size_t f) const {
    return view_->features()[f].categorical;
  }

  /// Category ranks of categorical feature f (-1 = NULL), num_rows() of
  /// them: rank r stands for dictionary code categories(f)[r].
  const std::vector<int32_t>& ranks(size_t f) const { return ranks_[f]; }
  /// The distinct dictionary codes of categorical feature f among the
  /// rows, ascending; at most num_rows() of them.
  const std::vector<int32_t>& categories(size_t f) const {
    return categories_[f];
  }
  /// Dictionary code of categorical feature f at position i (-1 = NULL).
  int32_t code(size_t f, size_t i) const {
    const int32_t rank = ranks_[f][i];
    return rank < 0 ? -1 : categories_[f][static_cast<size_t>(rank)];
  }
  /// Values of numeric feature f (NaN = NULL), num_rows() of them.
  const std::vector<double>& values(size_t f) const { return values_[f]; }
  /// The positions i of numeric feature f whose values(f)[i] is not
  /// NaN, ascending by (value, i); -0.0 and +0.0 tie.
  const std::vector<uint32_t>& sorted(size_t f) const { return sorted_[f]; }

  /// Row-major matrix (positions x numeric features) of the numeric
  /// features at `positions`, standardized to zero mean and unit
  /// variance over those positions; a NaN (or NULL) value takes the
  /// mean of its feature's other values there, so it becomes 0. Also
  /// returns the indices (into the view's features()) used.
  void NumericMatrix(const std::vector<uint32_t>& positions,
                     DenseMatrix* matrix,
                     std::vector<size_t>* feature_indices) const;

 private:
  friend class FeatureView;
  explicit FeatureColumns(const FeatureView* view) : view_(view) {}

  const FeatureView* view_;
  size_t num_rows_ = 0;
  // Indexed by feature; the vectors of the other kind stay empty.
  std::vector<std::vector<int32_t>> ranks_;
  std::vector<std::vector<int32_t>> categories_;
  std::vector<std::vector<double>> values_;
  std::vector<std::vector<uint32_t>> sorted_;
};

/// The positions in `rows` of the members of `subset`, ascending. Both
/// lists ascend; a member that `rows` lacks has no position. For the
/// row list a snapshot was taken of, these are the members' positions
/// in the snapshot.
std::vector<uint32_t> PositionsIn(const std::vector<RowId>& rows,
                                  const std::vector<RowId>& subset);

}  // namespace dbwipes

#endif  // DBWIPES_LEARN_FEATURE_H_
