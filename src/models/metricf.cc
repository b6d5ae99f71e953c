#include "models/metricf.h"

#include <cmath>

#include "common/rng.h"
#include "common/vec.h"
#include "models/embedding.h"
#include "models/train_loop.h"
#include "sampling/negative_sampler.h"
#include "serve/write_tracker.h"
#include "train/parallel_trainer.h"

namespace mars {

MetricF::MetricF(MetricFConfig config) : config_(config) {}

void MetricF::Fit(const ImplicitDataset& train, const TrainOptions& options) {
  const size_t d = config_.dim;
  Rng rng(options.seed);
  user_ = Matrix(train.num_users(), d);
  item_ = Matrix(train.num_items(), d);
  InitEmbeddingInBall(&user_, &rng);
  InitEmbeddingInBall(&item_, &rng);

  const NegativeSampler negatives(train);
  const size_t steps = ResolveStepsPerEpoch(options, train);
  const float margin = static_cast<float>(config_.margin);
  const float neg_w = static_cast<float>(config_.negative_weight);
  const auto& log = train.interactions();

  ParallelTrainer trainer(options, &rng);
  WriteTracker* const tracker = options.write_tracker;
  // Initialisation rewrote every row: the first publish must refresh all.
  if (tracker != nullptr) tracker->MarkAll();
  float lr = 0.0f;  // per-epoch, set before steps fan out

  const auto step = [&](size_t, Rng& wrng) {
    const Interaction& x = log[wrng.UniformInt(log.size())];
    float* u = user_.Row(x.user);
    float* vp = item_.Row(x.item);
    if (tracker != nullptr) {
      tracker->MarkUser(x.user);
      tracker->MarkItem(x.item);
    }
    // Pull: d/du d² = 2(u - vp).
    for (size_t i = 0; i < d; ++i) {
      const float diff = u[i] - vp[i];
      u[i] -= lr * 2.0f * diff;
      vp[i] += lr * 2.0f * diff;
    }
    ProjectToUnitBall(u, d);
    ProjectToUnitBall(vp, d);

    for (size_t k = 0; k < config_.negatives_per_positive; ++k) {
      ItemId neg;
      if (!negatives.Sample(x.user, &wrng, &neg)) break;
      float* vq = item_.Row(neg);
      if (tracker != nullptr) tracker->MarkItem(neg);
      const float dist = std::sqrt(SquaredDistance(u, vq, d));
      if (dist < 1e-9f) continue;
      // Two-sided regression L = w (dist - m)²:
      // dL/du = 2w(dist - m)(u - vq)/dist — pushes when dist < m and
      // pulls back when dist > m, as in the original MetricF.
      const float coef = 2.0f * neg_w * (dist - margin) / dist;
      for (size_t i = 0; i < d; ++i) {
        const float diff = u[i] - vq[i];
        u[i] -= lr * coef * diff;
        vq[i] += lr * coef * diff;
      }
      ProjectToUnitBall(u, d);
      ProjectToUnitBall(vq, d);
    }
  };

  RunTrainingLoop(options, *this, name(), [&](size_t, double lr_d) {
    lr = static_cast<float>(lr_d);
    trainer.RunEpoch(steps, step);
  });
}

}  // namespace mars
