#include "models/lrml.h"

#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "models/embedding.h"
#include "models/train_loop.h"
#include "sampling/triplet_sampler.h"
#include "serve/write_tracker.h"
#include "train/parallel_trainer.h"

namespace mars {

Lrml::Lrml(LrmlConfig config) : config_(config) {}

void Lrml::Relation(const float* u, const float* v, float* attention,
                    float* relation) const {
  const size_t d = config_.dim;
  const size_t s_n = config_.memory_slots;
  std::vector<float> p(d);
  Hadamard(u, v, p.data(), d);
  std::vector<float> logits(s_n);
  for (size_t s = 0; s < s_n; ++s) {
    logits[s] = Dot(keys_.Row(s), p.data(), d);
  }
  Softmax(logits.data(), attention, s_n);
  Fill(0.0f, relation, d);
  for (size_t s = 0; s < s_n; ++s) {
    Axpy(attention[s], memory_.Row(s), relation, d);
  }
}

void Lrml::BackwardPair(float* u, float* v, const float* grad_e, float lr) {
  const size_t d = config_.dim;
  const size_t s_n = config_.memory_slots;

  std::vector<float> a(s_n), r(d), p(d);
  Relation(u, v, a.data(), r.data());
  Hadamard(u, v, p.data(), d);

  // dL/da_s = m_s · grad_e ; softmax Jacobian ; dL/dp = Σ dt_s k_s.
  std::vector<float> q(s_n), dt(s_n), dp(d, 0.0f);
  float mean_q = 0.0f;
  for (size_t s = 0; s < s_n; ++s) {
    q[s] = Dot(memory_.Row(s), grad_e, d);
    mean_q += a[s] * q[s];
  }
  for (size_t s = 0; s < s_n; ++s) dt[s] = a[s] * (q[s] - mean_q);
  for (size_t s = 0; s < s_n; ++s) {
    if (dt[s] == 0.0f) continue;
    Axpy(dt[s], keys_.Row(s), dp.data(), d);
  }

  // Parameter updates (compute all grads against current values first).
  for (size_t s = 0; s < s_n; ++s) {
    float* key = keys_.Row(s);
    float* mem = memory_.Row(s);
    for (size_t i = 0; i < d; ++i) {
      key[i] -= lr * dt[s] * p[i];
      mem[i] -= lr * a[s] * grad_e[i];
    }
    ProjectToUnitBall(mem, d);
  }
  for (size_t i = 0; i < d; ++i) {
    const float du = grad_e[i] + dp[i] * v[i];
    const float dv = -grad_e[i] + dp[i] * u[i];
    u[i] -= lr * du;
    v[i] -= lr * dv;
  }
  ProjectToUnitBall(u, d);
  ProjectToUnitBall(v, d);
}

void Lrml::Fit(const ImplicitDataset& train, const TrainOptions& options) {
  const size_t d = config_.dim;
  const size_t s_n = config_.memory_slots;
  Rng rng(options.seed);
  user_ = Matrix(train.num_users(), d);
  item_ = Matrix(train.num_items(), d);
  keys_ = Matrix(s_n, d);
  memory_ = Matrix(s_n, d);
  InitEmbeddingInBall(&user_, &rng);
  InitEmbeddingInBall(&item_, &rng);
  InitEmbedding(&keys_, &rng);
  InitEmbeddingInBall(&memory_, &rng);

  const TripletSampler sampler(train, TripletUserMode::kUniformInteraction);
  const size_t steps = ResolveStepsPerEpoch(options, train);
  const float margin = static_cast<float>(config_.margin);

  // Hogwild workers race on the global key/memory matrices, which every
  // step reads and writes — dense per-step contention, unlike the rare
  // row collisions of the embedding tables. Training still proceeds as
  // approximate SGD, but multi-thread quality for LRML is unvalidated;
  // prefer num_threads=1 here (see ROADMAP "shard/ownership model").
  ParallelTrainer trainer(options, &rng);
  struct Scratch {
    std::vector<float> a, rp, rq, ep, eq, grad_e;
  };
  std::vector<Scratch> scratch(trainer.num_workers());
  for (Scratch& sc : scratch) {
    sc.a.resize(s_n);
    sc.rp.resize(d);
    sc.rq.resize(d);
    sc.ep.resize(d);
    sc.eq.resize(d);
    sc.grad_e.resize(d);
  }
  WriteTracker* const tracker = options.write_tracker;
  // Initialisation rewrote every row: the first publish must refresh all.
  if (tracker != nullptr) tracker->MarkAll();
  float lr = 0.0f;  // per-epoch, set before steps fan out

  const auto step = [&](size_t worker, Rng& wrng) {
    Scratch& sc = scratch[worker];
    std::vector<float>& a = sc.a;
    std::vector<float>& rp = sc.rp;
    std::vector<float>& rq = sc.rq;
    std::vector<float>& ep = sc.ep;
    std::vector<float>& eq = sc.eq;
    std::vector<float>& grad_e = sc.grad_e;

    Triplet t;
    if (!sampler.Sample(&wrng, &t)) return;
    float* u = user_.Row(t.user);
    float* vp = item_.Row(t.positive);
    float* vq = item_.Row(t.negative);
    if (tracker != nullptr) {
      // BackwardPair also writes the global key/memory matrices, which
      // enter the relation of *every* pair — the whole catalog is dirty.
      tracker->MarkAll();
    }

    Relation(u, vp, a.data(), rp.data());
    for (size_t i = 0; i < d; ++i) ep[i] = u[i] + rp[i] - vp[i];
    Relation(u, vq, a.data(), rq.data());
    for (size_t i = 0; i < d; ++i) eq[i] = u[i] + rq[i] - vq[i];

    const float dp2 = SquaredNorm(ep.data(), d);
    const float dq2 = SquaredNorm(eq.data(), d);
    if (margin + dp2 - dq2 <= 0.0f) return;

    // Positive pair term: +||e_p||² → grad_e = 2 e_p.
    for (size_t i = 0; i < d; ++i) grad_e[i] = 2.0f * ep[i];
    BackwardPair(u, vp, grad_e.data(), lr);
    // Negative pair term: -||e_q||² → grad_e = -2 e_q.
    for (size_t i = 0; i < d; ++i) grad_e[i] = -2.0f * eq[i];
    BackwardPair(u, vq, grad_e.data(), lr);
  };

  RunTrainingLoop(options, *this, name(), [&](size_t, double lr_d) {
    lr = static_cast<float>(lr_d);
    trainer.RunEpoch(steps, step);
  });
}

void Lrml::ScoreItemRange(UserId u, ItemId begin, ItemId end,
                          float* out) const {
  // Attention is per pair, so the sweep hoists only the user row and the
  // scratch buffers out of the item loop (Score reallocates them per call).
  const size_t d = config_.dim;
  std::vector<float> a(config_.memory_slots), r(d);
  const float* eu = user_.Row(u);
  for (ItemId v = begin; v < end; ++v) {
    const float* ev = item_.Row(v);
    Relation(eu, ev, a.data(), r.data());
    float acc = 0.0f;
    for (size_t i = 0; i < d; ++i) {
      const float e = eu[i] + r[i] - ev[i];
      acc += e * e;
    }
    out[v - begin] = -acc;
  }
}

float Lrml::Score(UserId u, ItemId v) const {
  const size_t d = config_.dim;
  std::vector<float> a(config_.memory_slots), r(d);
  Relation(user_.Row(u), item_.Row(v), a.data(), r.data());
  const float* eu = user_.Row(u);
  const float* ev = item_.Row(v);
  float acc = 0.0f;
  for (size_t i = 0; i < d; ++i) {
    const float e = eu[i] + r[i] - ev[i];
    acc += e * e;
  }
  return -acc;
}

}  // namespace mars
