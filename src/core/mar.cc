#include "core/mar.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "common/vec.h"
#include "core/adaptive_margin.h"
#include "core/facet_init.h"
#include "models/embedding.h"
#include "models/train_loop.h"
#include "opt/sgd.h"
#include "sampling/triplet_sampler.h"
#include "serve/write_tracker.h"
#include "train/parallel_trainer.h"

namespace mars {

namespace {

/// Backward through the norm clip: given gradient `g` w.r.t. the clipped
/// output, writes the gradient w.r.t. the pre-clip vector into `out`.
/// `clipped` is the post-clip vector and `scale` the clip factor
/// (1 when the pre-clip norm was ≤ 1, else 1/norm).
void ClipBackward(const float* clipped, float scale, const float* g,
                  float* out, size_t d) {
  if (scale == 1.0f) {
    Copy(g, out, d);
    return;
  }
  // d(z/||z||)/dz = (I - ẑẑᵀ)/||z||, with ẑ = clipped (unit norm here).
  const float radial = Dot(clipped, g, d);
  for (size_t i = 0; i < d; ++i) {
    out[i] = scale * (g[i] - radial * clipped[i]);
  }
}

}  // namespace

Mar::Mar(MultiFacetConfig config, FacetParam param_mode)
    : config_(config), param_mode_(param_mode) {
  MARS_CHECK(config_.num_facets >= 1);
  MARS_CHECK(config_.dim >= 1);
}

float Mar::ProjectFacet(const Matrix& projection, const float* x,
                        float* clipped) const {
  GemvTransposed(projection, x, clipped);
  const float norm = Norm(clipped, config_.dim);
  if (norm <= 1.0f) return 1.0f;
  const float scale = 1.0f / norm;
  Scale(scale, clipped, config_.dim);
  return scale;
}

void Mar::Fit(const ImplicitDataset& train, const TrainOptions& options) {
  const size_t d = config_.dim;
  const size_t kf = config_.num_facets;
  Rng rng(options.seed);

  if (param_mode_ == FacetParam::kProjected) {
    user_universal_ = Matrix(train.num_users(), d);
    item_universal_ = Matrix(train.num_items(), d);
    InitEmbeddingInBall(&user_universal_, &rng);
    InitEmbeddingInBall(&item_universal_, &rng);
    phi_.assign(kf, Matrix(d, d));
    psi_.assign(kf, Matrix(d, d));
    for (size_t k = 0; k < kf; ++k) {
      phi_[k].FillIdentityPlusNoise(&rng, 0.1f);
      psi_[k].FillIdentityPlusNoise(&rng, 0.1f);
    }
  } else {
    user_facets_ = FacetStore(train.num_users(), kf, d);
    item_facets_ = FacetStore(train.num_items(), kf, d);
    InitFacetStoreInBall(&user_facets_, &rng);
    InitFacetStoreInBall(&item_facets_, &rng);
  }

  theta_logits_ =
      config_.theta_init_nmf
          ? InitThetaLogitsFromNmf(train, kf, config_.theta_nmf_iterations,
                                   options.seed + 17)
          : InitThetaLogitsUniform(train.num_users(), kf);

  margins_ = config_.adaptive_margin
                 ? ComputeAdaptiveMargins(train)
                 : std::vector<float>(train.num_users(),
                                      static_cast<float>(config_.fixed_margin));

  const TripletSampler sampler(train,
                               config_.biased_sampling
                                   ? TripletUserMode::kFrequencyBiased
                                   : TripletUserMode::kUniformInteraction,
                               config_.sampling_beta);
  const size_t steps = ResolveStepsPerEpoch(options, train);
  const float lambda_pull = static_cast<float>(config_.lambda_pull);
  const float lambda_facet = static_cast<float>(config_.lambda_facet);
  const float alpha = static_cast<float>(config_.alpha);
  const float clip = static_cast<float>(config_.grad_clip);

  const float lr_comp =
      config_.scale_lr_by_facets ? static_cast<float>(kf) : 1.0f;

  // Steps touch only the sampled rows (kFree) — Hogwild workers update the
  // shared tables lock-free with private scratch, and row collisions are
  // rare. kProjected is different: every step of every worker reads AND
  // writes all K global d×d projection matrices, so contention there is
  // per-step certain, not rare — a worker can read a matrix mid-update
  // (torn rows) and compute gradients from an inconsistent projection.
  // Training still proceeds as approximate SGD, but multi-thread quality
  // for kProjected is unvalidated; prefer num_threads=1 for that mode
  // (see ROADMAP "shard/ownership model").
  ParallelTrainer trainer(options, &rng);
  WriteTracker* const tracker = options.write_tracker;
  // Initialisation rewrote every row: the first publish must refresh all.
  if (tracker != nullptr) tracker->MarkAll();
  struct Scratch {
    std::vector<float> uf, vpf, vqf;
    std::vector<float> u_scale, vp_scale, vq_scale;
    std::vector<float> gu, gvp, gvq;
    std::vector<float> theta, coeff, b;
    std::vector<float> gz, du, dv;
  };
  std::vector<Scratch> scratch(trainer.num_workers());
  for (Scratch& sc : scratch) {
    sc.uf.resize(kf * d);
    sc.vpf.resize(kf * d);
    sc.vqf.resize(kf * d);
    sc.u_scale.resize(kf);
    sc.vp_scale.resize(kf);
    sc.vq_scale.resize(kf);
    sc.gu.resize(kf * d);
    sc.gvp.resize(kf * d);
    sc.gvq.resize(kf * d);
    sc.theta.resize(kf);
    sc.coeff.resize(kf);
    sc.b.resize(kf);
    sc.gz.resize(d);
    sc.du.resize(d);
    sc.dv.resize(d);
  }

  // Per-epoch learning rates, set before the steps fan out.
  float lr = 0.0f;
  float theta_lr = 0.0f;

  const auto step = [&](size_t worker, Rng& wrng) {
    Scratch& sc = scratch[worker];
    std::vector<float>& uf = sc.uf;
    std::vector<float>& vpf = sc.vpf;
    std::vector<float>& vqf = sc.vqf;
    std::vector<float>& u_scale = sc.u_scale;
    std::vector<float>& vp_scale = sc.vp_scale;
    std::vector<float>& vq_scale = sc.vq_scale;
    std::vector<float>& gu = sc.gu;
    std::vector<float>& gvp = sc.gvp;
    std::vector<float>& gvq = sc.gvq;
    std::vector<float>& theta = sc.theta;
    std::vector<float>& coeff = sc.coeff;
    std::vector<float>& b = sc.b;

    Triplet t;
    if (!sampler.Sample(&wrng, &t)) return;
    if (tracker != nullptr) {
      if (param_mode_ == FacetParam::kProjected) {
        // Every step writes the shared projection matrices, through which
        // every user and item is scored.
        tracker->MarkAll();
      } else {
        tracker->MarkUser(t.user);
        tracker->MarkItem(t.positive);
        tracker->MarkItem(t.negative);
      }
    }

    // --- Forward: facet embeddings for u, vp, vq ----------------------
    if (param_mode_ == FacetParam::kProjected) {
      for (size_t k = 0; k < kf; ++k) {
        u_scale[k] = ProjectFacet(phi_[k], user_universal_.Row(t.user),
                                  &uf[k * d]);
        vp_scale[k] = ProjectFacet(psi_[k], item_universal_.Row(t.positive),
                                   &vpf[k * d]);
        vq_scale[k] = ProjectFacet(psi_[k], item_universal_.Row(t.negative),
                                   &vqf[k * d]);
      }
    } else {
      // Each entity's K facet rows are one contiguous block.
      user_facets_.CopyEntityTo(t.user, uf.data());
      item_facets_.CopyEntityTo(t.positive, vpf.data());
      item_facets_.CopyEntityTo(t.negative, vqf.data());
    }
    Softmax(theta_logits_.Row(t.user), theta.data(), kf);

    // Facet distances.
    float push_val = margins_[t.user];
    std::vector<float>& a = coeff;  // reuse: holds a_k, then coefficients
    for (size_t k = 0; k < kf; ++k) {
      a[k] = SquaredDistance(&uf[k * d], &vpf[k * d], d);
      b[k] = SquaredDistance(&uf[k * d], &vqf[k * d], d);
      push_val += theta[k] * (a[k] - b[k]);
    }
    const bool active = push_val > 0.0f;

    // --- Facet-space gradients ----------------------------------------
    Fill(0.0f, gu.data(), kf * d);
    Fill(0.0f, gvp.data(), kf * d);
    Fill(0.0f, gvq.data(), kf * d);
    for (size_t k = 0; k < kf; ++k) {
      const float* ufk = &uf[k * d];
      const float* vpk = &vpf[k * d];
      const float* vqk = &vqf[k * d];
      float* guk = &gu[k * d];
      float* gvpk = &gvp[k * d];
      float* gvqk = &gvq[k * d];
      const float w_pull = lambda_pull * theta[k];
      const float w_push = active ? theta[k] : 0.0f;
      for (size_t i = 0; i < d; ++i) {
        const float dp = ufk[i] - vpk[i];
        const float dq = ufk[i] - vqk[i];
        // push: θ(2dp - 2dq); pull: λθ·2dp
        guk[i] += 2.0f * (w_push * (dp - dq) + w_pull * dp);
        gvpk[i] += -2.0f * (w_push + w_pull) * dp;
        gvqk[i] += 2.0f * w_push * dq;
      }
    }
    // Facet-separating loss over facet pairs (user + positive item).
    if (lambda_facet > 0.0f && kf > 1) {
      for (size_t i = 0; i < kf; ++i) {
        for (size_t j = i + 1; j < kf; ++j) {
          const float s_ij =
              SquaredDistance(&uf[i * d], &uf[j * d], d) +
              SquaredDistance(&vpf[i * d], &vpf[j * d], d);
          // dL/ds = -σ(-α s); gradient increases the separation.
          const float w =
              -lambda_facet * static_cast<float>(Sigmoid(-alpha * s_ij));
          for (size_t x = 0; x < d; ++x) {
            const float du_x = 2.0f * (uf[i * d + x] - uf[j * d + x]);
            gu[i * d + x] += w * du_x;
            gu[j * d + x] -= w * du_x;
            const float dv_x = 2.0f * (vpf[i * d + x] - vpf[j * d + x]);
            gvp[i * d + x] += w * dv_x;
            gvp[j * d + x] -= w * dv_x;
          }
        }
      }
    }

    // --- Facet-weight (Θ) update ---------------------------------------
    // Coefficient of θ_k in the loss: push hinge + pull.
    float mean_c = 0.0f;
    for (size_t k = 0; k < kf; ++k) {
      coeff[k] = (active ? (a[k] - b[k]) : 0.0f) + lambda_pull * a[k];
      mean_c += theta[k] * coeff[k];
    }
    float* logits = theta_logits_.Row(t.user);
    for (size_t k = 0; k < kf; ++k) {
      logits[k] -= theta_lr * theta[k] * (coeff[k] - mean_c);
    }

    // --- Apply parameter updates ---------------------------------------
    if (param_mode_ == FacetParam::kFree) {
      for (size_t k = 0; k < kf; ++k) {
        if (clip > 0.0f) {
          ClipGradient(&gu[k * d], d, clip);
          ClipGradient(&gvp[k * d], d, clip);
          ClipGradient(&gvq[k * d], d, clip);
        }
        SgdStepBallProjected(user_facets_.Row(t.user, k), &gu[k * d], lr,
                             d);
        SgdStepBallProjected(item_facets_.Row(t.positive, k), &gvp[k * d],
                             lr, d);
        SgdStepBallProjected(item_facets_.Row(t.negative, k), &gvq[k * d],
                             lr, d);
      }
      return;
    }
    // kProjected: backprop through the clip into universal embeddings and
    // projection matrices.
    const float proj_lr =
        lr * static_cast<float>(config_.projection_lr_scale);
    auto backprop_entity = [&](Matrix& universal, std::vector<Matrix>& proj,
                               UserId row, const std::vector<float>& facets,
                               const std::vector<float>& scales,
                               std::vector<float>& grads) {
      Fill(0.0f, sc.du.data(), d);
      float* x = universal.Row(row);
      for (size_t k = 0; k < kf; ++k) {
        if (clip > 0.0f) ClipGradient(&grads[k * d], d, clip);
        ClipBackward(&facets[k * d], scales[k], &grads[k * d], sc.gz.data(),
                     d);
        // ∂L/∂x += Φ_k gz ; ∂L/∂Φ_k = x gzᵀ (applied directly as update).
        Gemv(proj[k], sc.gz.data(), sc.dv.data());
        Axpy(1.0f, sc.dv.data(), sc.du.data(), d);
        AddOuterProduct(-proj_lr, x, sc.gz.data(), &proj[k]);
      }
      SgdStep(x, sc.du.data(), lr, d);
    };
    backprop_entity(user_universal_, phi_, t.user, uf, u_scale, gu);
    backprop_entity(item_universal_, psi_, t.positive, vpf, vp_scale, gvp);
    backprop_entity(item_universal_, psi_, t.negative, vqf, vq_scale, gvq);
  };

  RunTrainingLoop(options, *this, name(), [&](size_t, double lr_d) {
    lr = static_cast<float>(lr_d) * lr_comp;
    theta_lr = static_cast<float>(lr_d) *
               static_cast<float>(config_.theta_lr_scale);
    trainer.RunEpoch(steps, step);
  });
}

float Mar::Score(UserId u, ItemId v) const {
  const size_t d = config_.dim;
  const size_t kf = config_.num_facets;
  std::vector<float> theta(kf);
  Softmax(theta_logits_.Row(u), theta.data(), kf);
  if (param_mode_ == FacetParam::kFree) {
    return -WeightedFacetSquaredDistance(
        user_facets_.EntityBlock(u), user_facets_.row_stride(),
        item_facets_.EntityBlock(v), item_facets_.row_stride(), theta.data(),
        kf, d);
  }
  std::vector<float> ue(d), ve(d);
  float score = 0.0f;
  for (size_t k = 0; k < kf; ++k) {
    ProjectFacet(phi_[k], user_universal_.Row(u), ue.data());
    ProjectFacet(psi_[k], item_universal_.Row(v), ve.data());
    score -= theta[k] * SquaredDistance(ue.data(), ve.data(), d);
  }
  return score;
}

void Mar::ScoreItems(UserId u, std::span<const ItemId> items,
                     float* out) const {
  const size_t d = config_.dim;
  const size_t kf = config_.num_facets;
  std::vector<float> theta(kf);
  Softmax(theta_logits_.Row(u), theta.data(), kf);
  if (param_mode_ == FacetParam::kFree) {
    // Batched path: one fused pass over both contiguous entity blocks per
    // candidate.
    const float* ublock = user_facets_.EntityBlock(u);
    const size_t us = user_facets_.row_stride();
    const size_t vs = item_facets_.row_stride();
    for (size_t idx = 0; idx < items.size(); ++idx) {
      out[idx] = -WeightedFacetSquaredDistance(
          ublock, us, item_facets_.EntityBlock(items[idx]), vs, theta.data(),
          kf, d);
    }
    return;
  }
  // Hoist user facet projections out of the item loop.
  std::vector<float> ufacets(kf * d);
  for (size_t k = 0; k < kf; ++k) {
    ProjectFacet(phi_[k], user_universal_.Row(u), &ufacets[k * d]);
  }
  std::vector<float> ve(d);
  for (size_t idx = 0; idx < items.size(); ++idx) {
    const ItemId v = items[idx];
    float score = 0.0f;
    for (size_t k = 0; k < kf; ++k) {
      ProjectFacet(psi_[k], item_universal_.Row(v), ve.data());
      score -= theta[k] * SquaredDistance(&ufacets[k * d], ve.data(), d);
    }
    out[idx] = score;
  }
}

void Mar::ScoreItemRange(UserId u, ItemId begin, ItemId end,
                         float* out) const {
  if (begin >= end) return;
  const size_t d = config_.dim;
  const size_t kf = config_.num_facets;
  std::vector<float> theta(kf);
  Softmax(theta_logits_.Row(u), theta.data(), kf);
  const size_t count = end - begin;
  if (param_mode_ == FacetParam::kFree) {
    // The contiguous item store makes the sweep one sequential pass over
    // `count` consecutive entity blocks.
    WeightedFacetSquaredDistanceBatch(
        user_facets_.EntityBlock(u), user_facets_.row_stride(),
        item_facets_.EntityBlock(begin), item_facets_.entity_stride(),
        item_facets_.row_stride(), theta.data(), kf, count, d, out);
    for (size_t i = 0; i < count; ++i) out[i] = -out[i];
    return;
  }
  // Hoist user facet projections; items must be projected per candidate.
  std::vector<float> ufacets(kf * d);
  for (size_t k = 0; k < kf; ++k) {
    ProjectFacet(phi_[k], user_universal_.Row(u), &ufacets[k * d]);
  }
  std::vector<float> ve(d);
  for (ItemId v = begin; v < end; ++v) {
    float score = 0.0f;
    for (size_t k = 0; k < kf; ++k) {
      ProjectFacet(psi_[k], item_universal_.Row(v), ve.data());
      score -= theta[k] * SquaredDistance(&ufacets[k * d], ve.data(), d);
    }
    out[v - begin] = score;
  }
}

void Mar::ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                              ItemId end, float* const* out) const {
  if (begin >= end || users.empty()) return;
  if (param_mode_ != FacetParam::kFree) {
    // kProjected scores through per-candidate projections — no block
    // kernel exists, so the batch is just the per-user loop.
    for (size_t b = 0; b < users.size(); ++b) {
      ScoreItemRange(users[b], begin, end, out[b]);
    }
    return;
  }
  const size_t kf = config_.num_facets;
  const size_t count = end - begin;
  std::vector<float> thetas(users.size() * kf);
  std::vector<const float*> ublocks(users.size()), ws(users.size());
  for (size_t b = 0; b < users.size(); ++b) {
    float* theta = thetas.data() + b * kf;
    Softmax(theta_logits_.Row(users[b]), theta, kf);
    ublocks[b] = user_facets_.EntityBlock(users[b]);
    ws[b] = theta;
  }
  WeightedFacetSquaredDistanceBatchMulti(
      ublocks.data(), user_facets_.row_stride(), ws.data(), users.size(),
      item_facets_.EntityBlock(begin), item_facets_.entity_stride(),
      item_facets_.row_stride(), kf, count, config_.dim, out);
  for (size_t b = 0; b < users.size(); ++b) {
    for (size_t i = 0; i < count; ++i) out[b][i] = -out[b][i];
  }
}

std::vector<float> Mar::UserFacetEmbedding(UserId u, size_t k) const {
  MARS_CHECK(k < config_.num_facets);
  std::vector<float> out(config_.dim);
  if (param_mode_ == FacetParam::kProjected) {
    ProjectFacet(phi_[k], user_universal_.Row(u), out.data());
  } else {
    Copy(user_facets_.Row(u, k), out.data(), config_.dim);
  }
  return out;
}

std::vector<float> Mar::ItemFacetEmbedding(ItemId v, size_t k) const {
  MARS_CHECK(k < config_.num_facets);
  std::vector<float> out(config_.dim);
  if (param_mode_ == FacetParam::kProjected) {
    ProjectFacet(psi_[k], item_universal_.Row(v), out.data());
  } else {
    Copy(item_facets_.Row(v, k), out.data(), config_.dim);
  }
  return out;
}

std::vector<float> Mar::FacetWeights(UserId u) const {
  std::vector<float> theta(config_.num_facets);
  Softmax(theta_logits_.Row(u), theta.data(), config_.num_facets);
  return theta;
}

float Mar::MarginOf(UserId u) const {
  MARS_CHECK(u < margins_.size());
  return margins_[u];
}

}  // namespace mars
