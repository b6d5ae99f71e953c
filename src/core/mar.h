// MAR — Multi-fAcet Recommender networks (paper Sec. III).
//
// Users and items carry K facet-specific embeddings u^k, v^k ∈ R^D, one
// per facet metric space; similarity is the Θ_u-weighted sum of negative
// squared Euclidean distances across facets (Eq. 3–4). The paper
// introduces the facet embeddings as shared projections of universal
// embeddings (Eq. 1–2), but its optimization variables are the facet
// embeddings themselves (Eq. 19), so MAR trains free facet tables. Training
// minimizes
//
//   L = L_push + λ_pull · L_pull + λ_facet · L_facet          (Eq. 11)
//
// with the per-user adaptive margin γ_u (Eq. 7–8), the absolute pulling
// term (Eq. 9), the facet-separating loss (Eq. 6), frequency-biased user
// sampling (Eq. 10), and the relaxed ball constraint ||u^k|| ≤ 1 enforced
// by projecting each SGD step back into the unit ball.
#ifndef MARS_CORE_MAR_H_
#define MARS_CORE_MAR_H_

#include <vector>

#include "common/facet_store.h"
#include "common/matrix.h"
#include "core/facet_config.h"
#include "models/recommender.h"

namespace mars {

/// MAR recommender.
class Mar : public Recommender {
 public:
  explicit Mar(MultiFacetConfig config);

  void Fit(const ImplicitDataset& train, const TrainOptions& options) override;
  float Score(UserId u, ItemId v) const override;
  void ScoreItems(UserId u, std::span<const ItemId> items,
                  float* out) const override;
  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      float* out) const override;
  void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                           ItemId end, float* const* out) const override;
  std::string name() const override { return "MAR"; }

  const MultiFacetConfig& config() const { return config_; }

  /// Facet-specific embedding of user `u` in facet `k`.
  std::vector<float> UserFacetEmbedding(UserId u, size_t k) const;
  /// Facet-specific embedding of item `v` in facet `k`.
  std::vector<float> ItemFacetEmbedding(ItemId v, size_t k) const;
  /// Softmax facet weights Θ_u of user `u`.
  std::vector<float> FacetWeights(UserId u) const;
  /// Adaptive margin γ_u the trainer used for `u` (after Fit).
  float MarginOf(UserId u) const;

 private:
  MultiFacetConfig config_;

  // Contiguous [entity][facet][dim] tables (see common/facet_store.h) —
  // the same layout MARS trains on.
  FacetStore user_facets_;            // N×K×D
  FacetStore item_facets_;            // M×K×D

  Matrix theta_logits_;               // N×K
  std::vector<float> margins_;        // γ_u per user
};

}  // namespace mars

#endif  // MARS_CORE_MAR_H_
