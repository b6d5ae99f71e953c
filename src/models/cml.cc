#include "models/cml.h"

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

Cml::Cml(CmlConfig config) : config_(config) {}

void Cml::Fit(const ImplicitDataset& train, const TrainOptions& options) {
  const size_t d = config_.dim;
  Rng rng(options.seed);
  user_ = Matrix(train.num_users(), d);
  item_ = Matrix(train.num_items(), d);
  InitEmbeddingInBall(&user_, &rng);
  InitEmbeddingInBall(&item_, &rng);

  const TripletSampler sampler(train, TripletUserMode::kUniformInteraction);
  const NegativeSampler negatives(train);
  const size_t steps = ResolveStepsPerEpoch(options, train);
  const float margin = static_cast<float>(config_.margin);
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
    // WARP-style: of `candidates` sampled negatives, train on the one
    // currently closest to the user (the hardest violator).
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
    const float dq = hardest_d;
    if (margin + dp - dq <= 0.0f) return;  // hinge inactive
    // d/du   = 2(u - vp) - 2(u - vq) = 2(vq - vp)
    // d/dvp  = -2(u - vp),  d/dvq = 2(u - vq)
    for (size_t i = 0; i < d; ++i) {
      const float ui = u[i];
      u[i] -= lr * 2.0f * (vq[i] - vp[i]);
      vp[i] -= lr * -2.0f * (ui - vp[i]);
      vq[i] -= lr * 2.0f * (ui - vq[i]);
    }
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
