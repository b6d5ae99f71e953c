// Metric Factorization [55].
//
// Pointwise metric learning — "only with the pulling operation in contrast
// to CML" as the MARS paper describes: the model *regresses* user-item
// distances onto pointwise targets instead of ranking triplets. Positive
// pairs are pulled toward distance 0 and sampled negatives are pulled
// toward (not hinged beyond) a target distance m:
//
//   L = Σ_{(u,v)∈I} d(u,v)² + λ_neg Σ_{(u,v)∉I} (d(u,v) − m)²
//   s.t. ||u|| ≤ 1, ||v|| ≤ 1
//
// Note the negative term is a two-sided regression, exactly as in the
// original formulation: negatives that drift beyond m are pulled *back*,
// which is what distinguishes MetricF from hinge-based pushing and what
// limits it relative to CML-style models.
#ifndef MARS_MODELS_METRICF_H_
#define MARS_MODELS_METRICF_H_

#include "models/metric_model.h"

namespace mars {

/// Model-specific hyperparameters.
struct MetricFConfig {
  size_t dim = 32;
  /// Target distance for negative pairs.
  double margin = 1.5;
  /// Weight of the negative regression term relative to the pull.
  double negative_weight = 1.0;
  /// Negatives sampled per positive each step.
  size_t negatives_per_positive = 1;
};

/// MetricF recommender.
class MetricF : public MetricModel {
 public:
  explicit MetricF(MetricFConfig config);

  void Fit(const ImplicitDataset& train, const TrainOptions& options) override;
  std::string name() const override { return "MetricF"; }

 private:
  MetricFConfig config_;
};

}  // namespace mars

#endif  // MARS_MODELS_METRICF_H_
