// Collaborative Metric Learning [15].
//
//   score(u, v) = -||u - v||²
//   L = Σ [m + ||u - v_p||² - ||u - v_q||²]_+      (triplet hinge)
//   s.t. ||u|| ≤ 1, ||v|| ≤ 1                       (unit-ball projection)
//
// Faithful to the original, each step samples `negative_candidates`
// negatives and trains on the hardest one (the WARP-style approximation of
// CML's rank-weighted loss); candidates = 1 degenerates to the plain
// uniform-negative hinge.
//
// The canonical single-space metric-learning recommender the paper builds
// on; also the CML column of the ablation Table IV.
#ifndef MARS_MODELS_CML_H_
#define MARS_MODELS_CML_H_

#include "models/metric_model.h"

namespace mars {

/// Model-specific hyperparameters.
struct CmlConfig {
  size_t dim = 32;
  double margin = 0.5;
  /// Negatives sampled per step; the one closest to the user (hardest) is
  /// used in the hinge, approximating CML's WARP rank weighting. 1 (the
  /// default) is the plain uniform-negative hinge, which performs best on
  /// the synthetic benchmarks; raise it for hard-negative mining.
  size_t negative_candidates = 1;
};

/// CML recommender.
class Cml : public MetricModel {
 public:
  explicit Cml(CmlConfig config);

  void Fit(const ImplicitDataset& train, const TrainOptions& options) override;
  std::string name() const override { return "CML"; }

 private:
  CmlConfig config_;
};

}  // namespace mars

#endif  // MARS_MODELS_CML_H_
