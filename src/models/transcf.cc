#include "models/transcf.h"

#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "models/embedding.h"
#include "models/train_loop.h"
#include "sampling/triplet_sampler.h"
#include "serve/write_tracker.h"
#include "train/parallel_trainer.h"

namespace mars {

TransCf::TransCf(TransCfConfig config) : config_(config) {}

void TransCf::RefreshNeighborhoodMeans(const ImplicitDataset& train) {
  const size_t d = config_.dim;
  user_nbr_.Fill(0.0f);
  for (UserId u = 0; u < train.num_users(); ++u) {
    const auto items = train.ItemsOf(u);
    if (items.empty()) continue;
    float* row = user_nbr_.Row(u);
    for (ItemId v : items) Axpy(1.0f, item_.Row(v), row, d);
    Scale(1.0f / static_cast<float>(items.size()), row, d);
  }
  item_nbr_.Fill(0.0f);
  for (ItemId v = 0; v < train.num_items(); ++v) {
    const auto users = train.UsersOf(v);
    if (users.empty()) continue;
    float* row = item_nbr_.Row(v);
    for (UserId u : users) Axpy(1.0f, user_.Row(u), row, d);
    Scale(1.0f / static_cast<float>(users.size()), row, d);
  }
}

void TransCf::Fit(const ImplicitDataset& train, const TrainOptions& options) {
  const size_t d = config_.dim;
  Rng rng(options.seed);
  user_ = Matrix(train.num_users(), d);
  item_ = Matrix(train.num_items(), d);
  InitEmbeddingInBall(&user_, &rng);
  InitEmbeddingInBall(&item_, &rng);
  user_nbr_ = Matrix(train.num_users(), d);
  item_nbr_ = Matrix(train.num_items(), d);

  const TripletSampler sampler(train, TripletUserMode::kUniformInteraction);
  const size_t steps = ResolveStepsPerEpoch(options, train);
  const float margin = static_cast<float>(config_.margin);
  const float l_dist = static_cast<float>(config_.lambda_dist);
  const float l_nbr = static_cast<float>(config_.lambda_nbr);

  // Neighborhood means are refreshed serially at each epoch start (a global
  // sweep); the per-step Hogwild updates then read them as constants.
  ParallelTrainer trainer(options, &rng);
  struct Scratch {
    std::vector<float> rp, rq, ep, eq;
  };
  std::vector<Scratch> scratch(trainer.num_workers());
  for (Scratch& sc : scratch) {
    sc.rp.resize(d);
    sc.rq.resize(d);
    sc.ep.resize(d);
    sc.eq.resize(d);
  }
  WriteTracker* const tracker = options.write_tracker;
  // Initialisation rewrote every row: the first publish must refresh all.
  if (tracker != nullptr) tracker->MarkAll();
  float lr = 0.0f;  // per-epoch, set before steps fan out

  const auto step = [&](size_t worker, Rng& wrng) {
    Scratch& sc = scratch[worker];
    std::vector<float>& rp = sc.rp;
    std::vector<float>& rq = sc.rq;
    std::vector<float>& ep = sc.ep;
    std::vector<float>& eq = sc.eq;

    Triplet t;
    if (!sampler.Sample(&wrng, &t)) return;
    float* u = user_.Row(t.user);
    float* vp = item_.Row(t.positive);
    float* vq = item_.Row(t.negative);
    if (tracker != nullptr) {
      tracker->MarkUser(t.user);
      tracker->MarkItem(t.positive);
      tracker->MarkItem(t.negative);
    }
    const float* au = user_nbr_.Row(t.user);

    // Relation vectors r_uv = α_u ⊙ β_v and residuals e = u + r - v.
    Hadamard(au, item_nbr_.Row(t.positive), rp.data(), d);
    Hadamard(au, item_nbr_.Row(t.negative), rq.data(), d);
    for (size_t i = 0; i < d; ++i) {
      ep[i] = u[i] + rp[i] - vp[i];
      eq[i] = u[i] + rq[i] - vq[i];
    }
    const float dp = SquaredNorm(ep.data(), d);
    const float dq = SquaredNorm(eq.data(), d);

    const bool hinge_active = (margin + dp - dq > 0.0f);
    // Hinge gradient + distance regularizer (both act through ep/eq).
    const float wp = (hinge_active ? 1.0f : 0.0f) + l_dist;
    const float wq = hinge_active ? -1.0f : 0.0f;
    for (size_t i = 0; i < d; ++i) {
      const float gp = 2.0f * wp * ep[i];
      const float gq = 2.0f * wq * eq[i];
      u[i] -= lr * (gp + gq);
      vp[i] -= lr * (-gp);
      vq[i] -= lr * (-gq);
    }
    // Neighborhood regularizer: pull entities toward their means.
    for (size_t i = 0; i < d; ++i) {
      u[i] -= lr * l_nbr * 2.0f * (u[i] - au[i]);
      vp[i] -= lr * l_nbr * 2.0f * (vp[i] - item_nbr_.Row(t.positive)[i]);
    }
    ProjectToUnitBall(u, d);
    ProjectToUnitBall(vp, d);
    ProjectToUnitBall(vq, d);
  };

  RunTrainingLoop(options, *this, name(), [&](size_t, double lr_d) {
    RefreshNeighborhoodMeans(train);
    // The refreshed means enter every pair's score: the whole catalog
    // (and every user) is effectively rewritten each epoch.
    if (tracker != nullptr) {
      tracker->MarkAll();
    }
    lr = static_cast<float>(lr_d);
    trainer.RunEpoch(steps, step);
  });
  // Means must reflect the final embeddings for scoring.
  RefreshNeighborhoodMeans(train);
}

void TransCf::ScoreItemRange(UserId u, ItemId begin, ItemId end,
                             float* out) const {
  // r_uv = α_u ⊙ β_v depends on the candidate, so there is no single-kernel
  // form — but the user side (e_u, α_u) hoists, and the item tables are
  // scanned sequentially over the contiguous range.
  const size_t d = config_.dim;
  const float* au = user_nbr_.Row(u);
  const float* eu = user_.Row(u);
  for (ItemId v = begin; v < end; ++v) {
    const float* bv = item_nbr_.Row(v);
    const float* ev = item_.Row(v);
    float acc = 0.0f;
    for (size_t i = 0; i < d; ++i) {
      const float e = eu[i] + au[i] * bv[i] - ev[i];
      acc += e * e;
    }
    out[v - begin] = -acc;
  }
}

float TransCf::Score(UserId u, ItemId v) const {
  const size_t d = config_.dim;
  const float* au = user_nbr_.Row(u);
  const float* bv = item_nbr_.Row(v);
  const float* eu = user_.Row(u);
  const float* ev = item_.Row(v);
  float acc = 0.0f;
  for (size_t i = 0; i < d; ++i) {
    const float e = eu[i] + au[i] * bv[i] - ev[i];
    acc += e * e;
  }
  return -acc;
}

}  // namespace mars
