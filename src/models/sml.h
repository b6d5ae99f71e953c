// Symmetric Metric Learning with adaptive margins (SML) [26].
//
// Extends the user-centric triplet with an item-centric one, both with
// *learnable* margins:
//
//   L =   [d(u,v_p)² + m_u    − d(u,v_q)²  ]_+
//     + λ [d(u,v_p)² + m_{v_p} − d(v_p,v_q)²]_+
//     − γ (mean(m_user) + mean(m_item))
//   s.t.  0 ≤ m ≤ l,  ||u|| ≤ 1, ||v|| ≤ 1
//
// The margin regularizer (−γ) pushes margins up while the hinges push them
// down where triplets are hard, yielding the "dynamic margin" behaviour.
#ifndef MARS_MODELS_SML_H_
#define MARS_MODELS_SML_H_

#include <vector>

#include "models/metric_model.h"

namespace mars {

/// Model-specific hyperparameters.
struct SmlConfig {
  size_t dim = 32;
  /// Upper bound l on learnable margins.
  double margin_cap = 1.0;
  /// Initial margin value.
  double margin_init = 0.5;
  /// Weight λ of the item-centric hinge.
  double item_weight = 0.5;
  /// Margin regularizer strength γ; must be large enough to keep learnable
  /// margins from collapsing to zero (the hinge pushes them down whenever
  /// it is active).
  double margin_reg = 0.1;
  /// Negatives sampled per step; the hardest is used (as in CML).
  size_t negative_candidates = 5;
};

/// SML recommender.
class Sml : public MetricModel {
 public:
  explicit Sml(SmlConfig config);

  void Fit(const ImplicitDataset& train, const TrainOptions& options) override;
  std::string name() const override { return "SML"; }

  /// Learned per-user margins (for the ablation study and tests).
  const std::vector<float>& user_margins() const { return user_margin_; }
  const std::vector<float>& item_margins() const { return item_margin_; }

 private:
  SmlConfig config_;
  std::vector<float> user_margin_;
  std::vector<float> item_margin_;
};

}  // namespace mars

#endif  // MARS_MODELS_SML_H_
