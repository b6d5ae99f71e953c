// Neural Matrix Factorization (NeuMF) [13].
//
// Dual-tower neural collaborative filtering:
//   GMF tower:  g = p_u ⊙ q_v                       (element-wise product)
//   MLP tower:  m = MLP([p'_u ; q'_v])              (separate embeddings)
//   score:      ŷ = σ(h · [g ; m])
// trained with binary cross-entropy and `negatives_per_positive` sampled
// negatives per observed interaction, exactly as in the original paper.
#ifndef MARS_MODELS_NEUMF_H_
#define MARS_MODELS_NEUMF_H_

#include <memory>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "models/mlp.h"
#include "models/recommender.h"

namespace mars {

/// Model-specific hyperparameters.
struct NeuMfConfig {
  size_t gmf_dim = 16;
  size_t mlp_dim = 16;  // per-entity embedding feeding the MLP tower
  /// Hidden layer widths of the MLP tower (input is 2*mlp_dim).
  std::vector<size_t> hidden = {32, 16};
  size_t negatives_per_positive = 4;
  double l2_reg = 1e-5;
};

/// NeuMF recommender.
class NeuMf : public Recommender {
 public:
  explicit NeuMf(NeuMfConfig config);

  void Fit(const ImplicitDataset& train, const TrainOptions& options) override;
  float Score(UserId u, ItemId v) const override;
  /// One forward buffer per call, the user half of the tower input written
  /// once; each score has Score's bits.
  void ScoreItems(UserId u, std::span<const ItemId> items,
                  float* out) const override;
  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      float* out) const override;
  std::string name() const override { return "NeuMF"; }

 private:
  /// Floats one forward writes: the MLP input [p'_u ; q'_v] (2*Dm), the
  /// GMF product (Dg), then the tower's buffer.
  size_t ForwardSize() const;

  /// The one forward pass, shared by Score and the training step: writes
  /// its activations into `buf` (ForwardSize() floats, laid out as above)
  /// and returns the logit. Reads only the weights, so any number of
  /// threads may run it at once, each with its own buffer.
  float ForwardLogit(UserId u, ItemId v, float* buf) const;

  /// ForwardLogit's item part: `buf` already holds user u's half of the
  /// MLP input (WriteUserInput), which this leaves untouched.
  float ForwardItem(UserId u, ItemId v, float* buf) const;
  void WriteUserInput(UserId u, float* buf) const;

  NeuMfConfig config_;
  Matrix gmf_user_, gmf_item_;  // N×Dg, M×Dg
  Matrix mlp_user_, mlp_item_;  // N×Dm, M×Dm
  std::unique_ptr<Mlp> tower_;
  std::vector<float> out_weight_;  // Dg + hidden.back()
  float out_bias_ = 0.0f;
};

}  // namespace mars

#endif  // MARS_MODELS_NEUMF_H_
