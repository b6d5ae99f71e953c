#include "models/bpr.h"

#include <vector>

#include "common/kernels.h"
#include "common/rng.h"
#include "common/vec.h"
#include "models/embedding.h"
#include "models/train_loop.h"
#include "sampling/triplet_sampler.h"
#include "serve/write_tracker.h"
#include "train/parallel_trainer.h"

namespace mars {

Bpr::Bpr(BprConfig config) : config_(config) {}

void Bpr::Fit(const ImplicitDataset& train, const TrainOptions& options) {
  const size_t d = config_.dim;
  Rng rng(options.seed);
  user_ = Matrix(train.num_users(), d);
  item_ = Matrix(train.num_items(), d);
  InitEmbedding(&user_, &rng);
  InitEmbedding(&item_, &rng);
  item_bias_.assign(train.num_items(), 0.0f);

  const TripletSampler sampler(train, TripletUserMode::kUniformInteraction);
  const size_t steps = ResolveStepsPerEpoch(options, train);
  const float l2 = static_cast<float>(config_.l2_reg);

  // Each step writes only the triplet's rows — Hogwild workers share the
  // factor tables directly.
  ParallelTrainer trainer(options, &rng);
  WriteTracker* const tracker = options.write_tracker;
  // Initialisation rewrote every row: the first publish must refresh all.
  if (tracker != nullptr) tracker->MarkAll();
  float lr = 0.0f;  // per-epoch, set before steps fan out

  const auto step = [&](size_t, Rng& wrng) {
    Triplet t;
    if (!sampler.Sample(&wrng, &t)) return;
    if (tracker != nullptr) {
      tracker->MarkUser(t.user);
      tracker->MarkItem(t.positive);
      tracker->MarkItem(t.negative);
    }
    float* pu = user_.Row(t.user);
    float* qp = item_.Row(t.positive);
    float* qq = item_.Row(t.negative);
    float x = Dot(pu, qp, d) - Dot(pu, qq, d);
    x += item_bias_[t.positive] - item_bias_[t.negative];
    const float g = static_cast<float>(Sigmoid(-x));  // dL/dx with sign
    // Gradient ascent on log σ(x): p += lr (g (qp - qq) - λ p), etc.
    for (size_t i = 0; i < d; ++i) {
      const float pu_i = pu[i];
      pu[i] += lr * (g * (qp[i] - qq[i]) - l2 * pu_i);
      qp[i] += lr * (g * pu_i - l2 * qp[i]);
      qq[i] += lr * (-g * pu_i - l2 * qq[i]);
    }
    item_bias_[t.positive] += lr * (g - l2 * item_bias_[t.positive]);
    item_bias_[t.negative] += lr * (-g - l2 * item_bias_[t.negative]);
  };

  RunTrainingLoop(options, *this, name(), [&](size_t, double lr_d) {
    lr = static_cast<float>(lr_d);
    trainer.RunEpoch(steps, step);
  });
}

float Bpr::Score(UserId u, ItemId v) const {
  return Dot(user_.Row(u), item_.Row(v), config_.dim) + item_bias_[v];
}

void Bpr::ScoreItems(UserId u, std::span<const ItemId> items,
                     float* out) const {
  DotGather(user_.Row(u), item_.data(), item_.cols(), items.data(),
            items.size(), config_.dim, out);
  for (size_t i = 0; i < items.size(); ++i) out[i] += item_bias_[items[i]];
}

void Bpr::ScoreItemRange(UserId u, ItemId begin, ItemId end,
                         float* out) const {
  if (begin >= end) return;
  DotBatch(user_.Row(u), item_.Row(begin), end - begin, item_.cols(),
           config_.dim, out);
  for (ItemId v = begin; v < end; ++v) out[v - begin] += item_bias_[v];
}

void Bpr::ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                              ItemId end, float* const* out) const {
  if (begin >= end || users.empty()) return;
  std::vector<const float*> urows(users.size());
  for (size_t b = 0; b < users.size(); ++b) urows[b] = user_.Row(users[b]);
  DotBatchMulti(urows.data(), users.size(), item_.Row(begin), end - begin,
                item_.cols(), config_.dim, out);
  for (size_t b = 0; b < users.size(); ++b) {
    for (ItemId v = begin; v < end; ++v) out[b][v - begin] += item_bias_[v];
  }
}

void Bpr::CopyIndexVectors(ItemId begin, ItemId end, float* out) const {
  const size_t d = config_.dim;
  for (ItemId v = begin; v < end; ++v) {
    Copy(item_.Row(v), out, d);
    out[d] = item_bias_[v];
    out += index_dim();
  }
}

void Bpr::WriteIndexQuery(UserId u, float* out) const {
  Copy(user_.Row(u), out, config_.dim);
  out[config_.dim] = 1.0f;
}

}  // namespace mars
