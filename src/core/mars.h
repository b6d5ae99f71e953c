// MARS — MAR with Spherical optimization (paper Sec. IV).
//
// All facet-specific user/item embeddings are constrained to lie exactly
// on the unit sphere (Eq. 17/19) and similarity becomes cosine (Eq. 13-14):
//
//   g_s(u, v) = Σ_k θ_u^k cos(u^k, v^k)
//
// with the spherical push/pull losses (Eq. 15-16), the spherical
// facet-separating loss (Eq. 12, sign corrected per DESIGN.md §2.1), and
// the *calibrated Riemannian SGD* update of Eq. 21:
//
//   x ← R_x( -η (1 + xᵀ∇f/||∇f||) (I - xxᵀ) ∇f )
//
// Parameterization: per Eq. 19 the optimization variables Ω are the facet
// embeddings themselves; they are free spherical parameters *initialized*
// from the universal-embedding × projection factorization of Eq. 1-2 (see
// DESIGN.md §2.2), with facet weights Θ seeded by K-factor NMF.
//
// Storage layout: all facet embeddings live in two contiguous FacetStore
// buffers ([entity][facet][dim] with cache-line-aligned rows, see
// common/facet_store.h). A sampled triplet (u, v⁺, v⁻) therefore touches
// exactly three contiguous blocks per step — forward pass, gradients, and
// the fused Riemannian updates (opt/sphere.h) all stream over them — and
// batch scoring goes through the block kernels in common/kernels.h.
#ifndef MARS_CORE_MARS_H_
#define MARS_CORE_MARS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/facet_store.h"
#include "common/maybe_owned.h"
#include "core/facet_config.h"
#include "models/recommender.h"

namespace mars {

class Mars;

/// Binary persistence (core/persistence.h); friends of Mars.
bool SaveMarsV3(const Mars& model, const std::string& path);
std::unique_ptr<Mars> LoadMarsMapped(const std::string& path);

/// MARS-specific options on top of the shared multi-facet config.
struct MarsOptions {
  /// Use the calibration multiplier of Eq. 21; false = plain Riemannian
  /// SGD (Eq. 20 with retraction), the ablation baseline.
  bool calibrated = true;
  /// Sign convention of the spherical facet-separating loss.
  FacetLossSign facet_sign = FacetLossSign::kSeparate;
  /// Learn a per-facet sphere radius r_k (the paper's future-work item:
  /// "dynamically learn the radiuses of different facet-specific spherical
  /// embedding spaces"). Similarity becomes Σ_k θ_u^k · r_k · cos(u^k,v^k);
  /// embeddings stay on unit spheres and r_k ≥ kMinRadius scales each
  /// facet's contribution, letting the model modulate facet importance
  /// globally (on top of the per-user Θ).
  bool learn_radius = false;
};

/// MARS recommender.
class Mars : public Recommender {
 public:
  explicit Mars(MultiFacetConfig config, MarsOptions mars_options = {});

  void Fit(const ImplicitDataset& train, const TrainOptions& options) override;
  float Score(UserId u, ItemId v) const override;
  void ScoreItems(UserId u, std::span<const ItemId> items,
                  float* out) const override;
  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      float* out) const override;
  void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                           ItemId end, float* const* out) const override;
  std::string name() const override { return "MARS"; }

  // ANN capability: concatenated-facet dot vectors. The item vector is
  // the K facet rows concatenated (K·dim floats, padding stripped); the
  // query concatenates θ_u^k·r_k·u^k, so the single dot recovers
  // Σ_k θ_u^k r_k <u^k, v^k> — the spherical score (cos == dot on unit
  // rows) up to floating-point reassociation.
  size_t index_dim() const override {
    return config_.num_facets * config_.dim;
  }
  void CopyIndexVectors(ItemId begin, ItemId end, float* out) const override;
  void WriteIndexQuery(UserId u, float* out) const override;

  const MultiFacetConfig& config() const { return config_; }
  const MarsOptions& mars_options() const { return mars_options_; }

  /// Facet-specific spherical embedding of user `u` in facet `k`.
  std::vector<float> UserFacetEmbedding(UserId u, size_t k) const;
  /// Facet-specific spherical embedding of item `v` in facet `k`.
  std::vector<float> ItemFacetEmbedding(ItemId v, size_t k) const;
  /// Softmax facet weights Θ_u.
  std::vector<float> FacetWeights(UserId u) const;
  /// Adaptive margin γ_u used during training.
  float MarginOf(UserId u) const;
  /// Learned facet-sphere radii (all 1 unless learn_radius is set).
  const std::vector<float>& FacetRadii() const { return radii_; }

  /// True when the facet tensors alias an immutable mmap'd snapshot
  /// (LoadMarsMapped): the model is a read-only serving view — attaching a
  /// trainer to it (Fit) aborts.
  bool mapped() const { return user_facets_.borrowed(); }

  /// Owned frozen copy of the current weights — the unit a serving epoch
  /// publishes (TopKServer::PublishEpoch / common/snapshot_handle.h).
  /// Call only while training is quiesced: between Fit calls, or from a
  /// TrainOptions::epoch_callback at an epoch boundary. Each table is one
  /// allocation and one copy, and the copy is owned whether this model
  /// owns its tables or maps them (LoadMarsMapped).
  std::unique_ptr<Mars> ServingSnapshot() const;

 private:
  friend bool SaveMarsV3(const Mars& model, const std::string& path);
  friend std::unique_ptr<Mars> LoadMarsMapped(const std::string& path);

  /// User u's K Θ logits (row u of the N×K table).
  const float* ThetaLogits(UserId u) const {
    return theta_logits_.data() + static_cast<size_t>(u) * config_.num_facets;
  }

  MultiFacetConfig config_;
  MarsOptions mars_options_;

  FacetStore user_facets_;  // N×K×D, unit rows
  FacetStore item_facets_;  // M×K×D, unit rows
  // Θ logits (N×K, row-major) and the per-user margins: owned by a fitted
  // model, borrowed from the mapped file's tail by LoadMarsMapped.
  MaybeOwned<float> theta_logits_;
  std::vector<float> radii_;         // K sphere radii (learn_radius)
  MaybeOwned<float> margins_;
  // Backing storage of mapped (borrowed) facet tensors, Θ and margins —
  // the MappedFile of LoadMarsMapped. Null for ordinary owned models.
  std::shared_ptr<const void> storage_keepalive_;
};

}  // namespace mars

#endif  // MARS_CORE_MARS_H_
