// Bayesian Personalized Ranking with matrix-factorization scoring [35].
//
//   score(u, v) = p_u · q_v + b_v
//   L = -log σ(score(u,v_p) - score(u,v_q)) + λ(||p_u||² + ||q_v||² + b²)
//
// Trained by SGD over uniformly sampled (u, v_p, v_q) triplets — the
// classic pairwise MF baseline in the paper's Table II.
#ifndef MARS_MODELS_BPR_H_
#define MARS_MODELS_BPR_H_

#include <vector>

#include "common/matrix.h"
#include "models/recommender.h"

namespace mars {

/// Model-specific hyperparameters.
struct BprConfig {
  size_t dim = 32;
  double l2_reg = 1e-4;
};

/// BPR-MF recommender.
class Bpr : public Recommender {
 public:
  explicit Bpr(BprConfig config);

  void Fit(const ImplicitDataset& train, const TrainOptions& options) override;
  float Score(UserId u, ItemId v) const override;
  void ScoreItems(UserId u, std::span<const ItemId> items,
                  float* out) const override;
  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      float* out) const override;
  void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                           ItemId end, float* const* out) const override;
  std::string name() const override { return "BPR"; }

  // ANN capability: the item bias is folded in as one appended vector
  // component against a constant-1 query component, so
  // dot(query, item_vec) == Score exactly (eval/scorer.h contract).
  size_t index_dim() const override { return config_.dim + 1; }
  void CopyIndexVectors(ItemId begin, ItemId end, float* out) const override;
  void WriteIndexQuery(UserId u, float* out) const override;

  const Matrix& user_factors() const { return user_; }
  const Matrix& item_factors() const { return item_; }

 private:
  BprConfig config_;
  Matrix user_;   // N×D
  Matrix item_;   // M×D
  std::vector<float> item_bias_;
};

}  // namespace mars

#endif  // MARS_MODELS_BPR_H_
