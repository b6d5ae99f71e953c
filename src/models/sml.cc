#include "models/sml.h"

#include <algorithm>

#include "common/rng.h"
#include "common/vec.h"
#include "models/embedding.h"
#include "models/train_loop.h"
#include "sampling/negative_sampler.h"
#include "sampling/triplet_sampler.h"
#include "serve/write_tracker.h"
#include "train/parallel_trainer.h"

namespace mars {

Sml::Sml(SmlConfig config) : config_(config) {}

void Sml::Fit(const ImplicitDataset& train, const TrainOptions& options) {
  const size_t d = config_.dim;
  Rng rng(options.seed);
  user_ = Matrix(train.num_users(), d);
  item_ = Matrix(train.num_items(), d);
  InitEmbeddingInBall(&user_, &rng);
  InitEmbeddingInBall(&item_, &rng);
  user_margin_.assign(train.num_users(),
                      static_cast<float>(config_.margin_init));
  item_margin_.assign(train.num_items(),
                      static_cast<float>(config_.margin_init));

  const TripletSampler sampler(train, TripletUserMode::kUniformInteraction);
  const NegativeSampler negatives(train);
  const size_t steps = ResolveStepsPerEpoch(options, train);
  const float cap = static_cast<float>(config_.margin_cap);
  const float lam = static_cast<float>(config_.item_weight);
  const float gamma = static_cast<float>(config_.margin_reg);
  const size_t candidates = std::max<size_t>(1, config_.negative_candidates);

  ParallelTrainer trainer(options, &rng);
  WriteTracker* const tracker = options.write_tracker;
  // Initialisation rewrote every row: the first publish must refresh all.
  if (tracker != nullptr) tracker->MarkAll();
  float lr = 0.0f;  // per-epoch, set before steps fan out

  const auto step = [&](size_t, Rng& wrng) {
    Triplet t;
    if (!sampler.Sample(&wrng, &t)) return;
    float* u = user_.Row(t.user);
    float* vp = item_.Row(t.positive);
    // Hardest of `candidates` sampled negatives.
    ItemId hardest = t.negative;
    float hardest_d = SquaredDistance(u, item_.Row(t.negative), d);
    for (size_t c = 1; c < candidates; ++c) {
      ItemId cand;
      if (!negatives.Sample(t.user, &wrng, &cand)) break;
      const float cand_d = SquaredDistance(u, item_.Row(cand), d);
      if (cand_d < hardest_d) {
        hardest = cand;
        hardest_d = cand_d;
      }
    }
    float* vq = item_.Row(hardest);
    if (tracker != nullptr) {
      tracker->MarkUser(t.user);
      tracker->MarkItem(t.positive);
      tracker->MarkItem(hardest);
    }

    const float dp = SquaredDistance(u, vp, d);
    const float dq = SquaredDistance(u, vq, d);
    const float dpq = SquaredDistance(vp, vq, d);

    const bool user_hinge = dp + user_margin_[t.user] - dq > 0.0f;
    const bool item_hinge = dp + item_margin_[t.positive] - dpq > 0.0f;

    // Embedding gradients (all computed against pre-update values).
    // User hinge:  du = 2(vq - vp);  dvp = -2(u - vp); dvq = 2(u - vq).
    // Item hinge:  dvp gets 2(vp - u) + ... careful below; dvq from -dpq.
    for (size_t i = 0; i < d; ++i) {
      float du = 0.0f, dvp_g = 0.0f, dvq_g = 0.0f;
      if (user_hinge) {
        du += 2.0f * (vq[i] - vp[i]);
        dvp_g += -2.0f * (u[i] - vp[i]);
        dvq_g += 2.0f * (u[i] - vq[i]);
      }
      if (item_hinge) {
        // d/dvp [d(u,vp)² - d(vp,vq)²] = 2(vp - u) - 2(vp - vq)
        //                              = 2(vq - u)
        du += lam * -2.0f * (vp[i] - u[i]);
        dvp_g += lam * 2.0f * (vq[i] - u[i]);
        dvq_g += lam * 2.0f * (vp[i] - vq[i]);
      }
      u[i] -= lr * du;
      vp[i] -= lr * dvp_g;
      vq[i] -= lr * dvq_g;
    }
    // Margin updates: hinge pushes margin down, regularizer pushes up.
    const float mu_grad = (user_hinge ? 1.0f : 0.0f) - gamma;
    const float mi_grad = lam * (item_hinge ? 1.0f : 0.0f) - gamma;
    user_margin_[t.user] = std::clamp(
        user_margin_[t.user] - lr * mu_grad, 0.0f, cap);
    item_margin_[t.positive] = std::clamp(
        item_margin_[t.positive] - lr * mi_grad, 0.0f, cap);

    ProjectToUnitBall(u, d);
    ProjectToUnitBall(vp, d);
    ProjectToUnitBall(vq, d);
  };

  RunTrainingLoop(options, *this, name(), [&](size_t, double lr_d) {
    lr = static_cast<float>(lr_d);
    trainer.RunEpoch(steps, step);
  });
}

}  // namespace mars
