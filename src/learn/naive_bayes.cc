#include "dbwipes/learn/naive_bayes.h"

#include <cmath>

#include "dbwipes/common/stats.h"

namespace dbwipes {

namespace {
constexpr double kMinVariance = 1e-9;
constexpr double kTwoPi = 6.283185307179586;
}  // namespace

Result<NaiveBayes> NaiveBayes::Fit(const FeatureColumns& columns,
                                   const std::vector<int>& labels) {
  const size_t n = columns.num_rows();
  if (n != labels.size()) {
    return Status::InvalidArgument("rows/labels size mismatch");
  }
  if (n == 0) return Status::InvalidArgument("empty training set");
  size_t class_counts[2] = {0, 0};
  for (int y : labels) {
    if (y != 0 && y != 1) {
      return Status::InvalidArgument("labels must be 0 or 1");
    }
    ++class_counts[y];
  }
  if (class_counts[0] == 0 || class_counts[1] == 0) {
    return Status::InvalidArgument("both classes must be present");
  }

  NaiveBayes model;
  const double total = static_cast<double>(n);
  model.log_prior_[0] = std::log(static_cast<double>(class_counts[0]) / total);
  model.log_prior_[1] = std::log(static_cast<double>(class_counts[1]) / total);

  model.features_.resize(columns.num_features());
  for (size_t f = 0; f < columns.num_features(); ++f) {
    FeatureModel& fm = model.features_[f];
    fm.categorical = columns.categorical(f);
    if (fm.categorical) {
      for (size_t i = 0; i < n; ++i) {
        const int32_t code = columns.code(f, i);
        if (code < 0) continue;  // NULL
        fm.counts[labels[i]][code] += 1.0;
        fm.totals[labels[i]] += 1.0;
      }
      // Distinct categories across both classes (for smoothing).
      std::unordered_map<int32_t, bool> seen;
      for (int c = 0; c < 2; ++c) {
        for (const auto& [code, cnt] : fm.counts[c]) seen[code] = true;
      }
      fm.num_categories = std::max<double>(1.0, static_cast<double>(seen.size()));
    } else {
      const std::vector<double>& values = columns.values(f);  // NaN = NULL
      OnlineStats stats[2];
      for (size_t i = 0; i < n; ++i) {
        if (!std::isnan(values[i])) stats[labels[i]].Add(values[i]);
      }
      for (int c = 0; c < 2; ++c) {
        fm.numeric[c].mean = stats[c].mean();
        fm.numeric[c].var = std::max(kMinVariance, stats[c].variance());
      }
    }
  }
  return model;
}

double NaiveBayes::PredictProba(const FeatureColumns& columns,
                                size_t i) const {
  double log_like[2] = {log_prior_[0], log_prior_[1]};
  // Missing features are skipped: NULL, and NaN, which the snapshot
  // stores for NULL too.
  for (size_t f = 0; f < features_.size(); ++f) {
    const FeatureModel& fm = features_[f];
    if (fm.categorical) {
      const int32_t code = columns.code(f, i);
      if (code < 0) continue;
      for (int c = 0; c < 2; ++c) {
        auto it = fm.counts[c].find(code);
        const double count = it == fm.counts[c].end() ? 0.0 : it->second;
        // Laplace smoothing.
        const double p =
            (count + 1.0) / (fm.totals[c] + fm.num_categories);
        log_like[c] += std::log(p);
      }
    } else {
      const double v = columns.values(f)[i];
      if (std::isnan(v)) continue;
      for (int c = 0; c < 2; ++c) {
        const NumericStats& ns = fm.numeric[c];
        const double d = v - ns.mean;
        log_like[c] +=
            -0.5 * std::log(kTwoPi * ns.var) - d * d / (2.0 * ns.var);
      }
    }
  }
  // Softmax over two classes, numerically stable.
  const double m = std::max(log_like[0], log_like[1]);
  const double e0 = std::exp(log_like[0] - m);
  const double e1 = std::exp(log_like[1] - m);
  return e1 / (e0 + e1);
}

}  // namespace dbwipes
