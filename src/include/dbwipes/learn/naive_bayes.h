#ifndef DBWIPES_LEARN_NAIVE_BAYES_H_
#define DBWIPES_LEARN_NAIVE_BAYES_H_

#include <unordered_map>
#include <vector>

#include "dbwipes/learn/feature.h"

namespace dbwipes {

/// \brief Mixed-feature naive Bayes classifier (binary classes).
///
/// Numeric features use Gaussian likelihoods; categorical features use
/// frequency estimates with Laplace smoothing. Used by the Dataset
/// Enumerator's classifier-based D' cleaning: train on D' vs the rest
/// of F, then drop D' members the model itself finds unlikely.
class NaiveBayes {
 public:
  /// Fits on the snapshot's rows with binary `labels` (0/1), aligned
  /// with its positions. Both classes must be present.
  static Result<NaiveBayes> Fit(const FeatureColumns& columns,
                                const std::vector<int>& labels);

  /// P(label = 1 | the features at position i of `columns`). A NULL or
  /// NaN value leaves its feature out.
  double PredictProba(const FeatureColumns& columns, size_t i) const;

  /// 1 if PredictProba >= 0.5.
  int Predict(const FeatureColumns& columns, size_t i) const {
    return PredictProba(columns, i) >= 0.5 ? 1 : 0;
  }

 private:
  struct NumericStats {
    double mean = 0.0;
    double var = 1.0;
  };
  struct FeatureModel {
    bool categorical = false;
    // Numeric: per-class Gaussian.
    NumericStats numeric[2];
    // Categorical: per-class code -> count, plus totals.
    std::unordered_map<int32_t, double> counts[2];
    double totals[2] = {0.0, 0.0};
    double num_categories = 1.0;
  };

  double log_prior_[2] = {0.0, 0.0};
  std::vector<FeatureModel> features_;
};

}  // namespace dbwipes

#endif  // DBWIPES_LEARN_NAIVE_BAYES_H_
