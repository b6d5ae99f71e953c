#include "core/mar.h"

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

Mar::Mar(MultiFacetConfig config) : config_(config) {
  MARS_CHECK(config_.num_facets >= 1);
  MARS_CHECK(config_.dim >= 1);
}

void Mar::Fit(const ImplicitDataset& train, const TrainOptions& options) {
  const size_t d = config_.dim;
  const size_t kf = config_.num_facets;
  Rng rng(options.seed);

  user_facets_ = FacetStore(train.num_users(), kf, d);
  item_facets_ = FacetStore(train.num_items(), kf, d);
  InitFacetStoreInBall(&user_facets_, &rng);
  InitFacetStoreInBall(&item_facets_, &rng);

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

  // Steps touch only the sampled rows — Hogwild workers update the shared
  // tables lock-free with private scratch, and row collisions are rare.
  ParallelTrainer trainer(options, &rng);
  WriteTracker* const tracker = options.write_tracker;
  // Initialisation rewrote every row: the first publish must refresh all.
  if (tracker != nullptr) tracker->MarkAll();
  struct Scratch {
    std::vector<float> uf, vpf, vqf;
    std::vector<float> gu, gvp, gvq;
    std::vector<float> theta, coeff, b;
  };
  std::vector<Scratch> scratch(trainer.num_workers());
  for (Scratch& sc : scratch) {
    sc.uf.resize(kf * d);
    sc.vpf.resize(kf * d);
    sc.vqf.resize(kf * d);
    sc.gu.resize(kf * d);
    sc.gvp.resize(kf * d);
    sc.gvq.resize(kf * d);
    sc.theta.resize(kf);
    sc.coeff.resize(kf);
    sc.b.resize(kf);
  }

  // Per-epoch learning rates, set before the steps fan out.
  float lr = 0.0f;
  float theta_lr = 0.0f;

  const auto step = [&](size_t worker, Rng& wrng) {
    Scratch& sc = scratch[worker];
    std::vector<float>& uf = sc.uf;
    std::vector<float>& vpf = sc.vpf;
    std::vector<float>& vqf = sc.vqf;
    std::vector<float>& gu = sc.gu;
    std::vector<float>& gvp = sc.gvp;
    std::vector<float>& gvq = sc.gvq;
    std::vector<float>& theta = sc.theta;
    std::vector<float>& coeff = sc.coeff;
    std::vector<float>& b = sc.b;

    Triplet t;
    if (!sampler.Sample(&wrng, &t)) return;
    if (tracker != nullptr) {
      tracker->MarkUser(t.user);
      tracker->MarkItem(t.positive);
      tracker->MarkItem(t.negative);
    }

    // --- Forward: facet embeddings for u, vp, vq ----------------------
    // Each entity's K facet rows are one contiguous block.
    user_facets_.CopyEntityTo(t.user, uf.data());
    item_facets_.CopyEntityTo(t.positive, vpf.data());
    item_facets_.CopyEntityTo(t.negative, vqf.data());
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
    for (size_t k = 0; k < kf; ++k) {
      if (clip > 0.0f) {
        ClipGradient(&gu[k * d], d, clip);
        ClipGradient(&gvp[k * d], d, clip);
        ClipGradient(&gvq[k * d], d, clip);
      }
      SgdStepBallProjected(user_facets_.Row(t.user, k), &gu[k * d], lr, d);
      SgdStepBallProjected(item_facets_.Row(t.positive, k), &gvp[k * d], lr,
                           d);
      SgdStepBallProjected(item_facets_.Row(t.negative, k), &gvq[k * d], lr,
                           d);
    }
  };

  RunTrainingLoop(options, *this, name(), [&](size_t, double lr_d) {
    lr = static_cast<float>(lr_d) * lr_comp;
    theta_lr = static_cast<float>(lr_d) *
               static_cast<float>(config_.theta_lr_scale);
    trainer.RunEpoch(steps, step);
  });
}

float Mar::Score(UserId u, ItemId v) const {
  const size_t kf = config_.num_facets;
  std::vector<float> theta(kf);
  Softmax(theta_logits_.Row(u), theta.data(), kf);
  return -WeightedFacetSquaredDistance(
      user_facets_.EntityBlock(u), user_facets_.row_stride(),
      item_facets_.EntityBlock(v), item_facets_.row_stride(), theta.data(),
      kf, config_.dim);
}

void Mar::ScoreItems(UserId u, std::span<const ItemId> items,
                     float* out) const {
  const size_t kf = config_.num_facets;
  std::vector<float> theta(kf);
  Softmax(theta_logits_.Row(u), theta.data(), kf);
  // One fused pass over both contiguous entity blocks per candidate.
  const float* ublock = user_facets_.EntityBlock(u);
  const size_t us = user_facets_.row_stride();
  const size_t vs = item_facets_.row_stride();
  for (size_t idx = 0; idx < items.size(); ++idx) {
    out[idx] = -WeightedFacetSquaredDistance(
        ublock, us, item_facets_.EntityBlock(items[idx]), vs, theta.data(),
        kf, config_.dim);
  }
}

void Mar::ScoreItemRange(UserId u, ItemId begin, ItemId end,
                         float* out) const {
  if (begin >= end) return;
  const size_t kf = config_.num_facets;
  std::vector<float> theta(kf);
  Softmax(theta_logits_.Row(u), theta.data(), kf);
  const size_t count = end - begin;
  // The contiguous item store makes the sweep one sequential pass over
  // `count` consecutive entity blocks.
  WeightedFacetSquaredDistanceBatch(
      user_facets_.EntityBlock(u), user_facets_.row_stride(),
      item_facets_.EntityBlock(begin), item_facets_.entity_stride(),
      item_facets_.row_stride(), theta.data(), kf, count, config_.dim, out);
  for (size_t i = 0; i < count; ++i) out[i] = -out[i];
}

void Mar::ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                              ItemId end, float* const* out) const {
  if (begin >= end || users.empty()) return;
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
  const float* row = user_facets_.Row(u, k);
  return std::vector<float>(row, row + config_.dim);
}

std::vector<float> Mar::ItemFacetEmbedding(ItemId v, size_t k) const {
  MARS_CHECK(k < config_.num_facets);
  const float* row = item_facets_.Row(v, k);
  return std::vector<float>(row, row + config_.dim);
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
