#include "core/mars.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/kernels.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/vec.h"
#include "core/adaptive_margin.h"
#include "core/facet_init.h"
#include "models/embedding.h"
#include "models/train_loop.h"
#include "opt/sphere.h"
#include "sampling/triplet_sampler.h"
#include "serve/write_tracker.h"
#include "train/parallel_trainer.h"

namespace mars {

namespace {

// The push/pull gradients of one facet, written over its three gradient
// rows:
//   g_u = w_push·(q − p) − w_pull·p,  g_p = −(w_push + w_pull)·u,
//   g_q = w_push·u.
// The leading `0.0f +` keeps the bits of accumulating into a zero-filled
// row (it turns a −0 into +0).
void PushPullGradients(const float* __restrict u, const float* __restrict p,
                       const float* __restrict q, float w_push, float w_pull,
                       size_t d, float* __restrict gu, float* __restrict gp,
                       float* __restrict gq) {
  const float w_pos = -(w_push + w_pull);
  for (size_t i = 0; i < d; ++i) {
    gu[i] = 0.0f + (w_push * (q[i] - p[i]) - w_pull * p[i]);
    gp[i] = 0.0f + w_pos * u[i];
    gq[i] = 0.0f + w_push * u[i];
  }
}

// One facet pair's separating-loss gradient: g_i += w·x_j, g_j += w·x_i.
void FacetPairGradients(const float* __restrict xi,
                        const float* __restrict xj, float w, size_t d,
                        float* __restrict gi, float* __restrict gj) {
  for (size_t x = 0; x < d; ++x) {
    gi[x] += w * xj[x];
    gj[x] += w * xi[x];
  }
}

// Prefetches the cache lines of one FacetStore entity block.
void PrefetchBlock(const float* block, size_t floats) {
  constexpr size_t kLineFloats = 64 / sizeof(float);
  for (size_t i = 0; i < floats; i += kLineFloats) {
    __builtin_prefetch(block + i);
  }
}

}  // namespace

Mars::Mars(MultiFacetConfig config, MarsOptions mars_options)
    : config_(config), mars_options_(mars_options) {
  MARS_CHECK(config_.num_facets >= 1);
  MARS_CHECK(config_.dim >= 2);
  radii_.assign(config_.num_facets, 1.0f);
}

void Mars::Fit(const ImplicitDataset& train, const TrainOptions& options) {
  // A mapped model is an immutable serving snapshot over PROT_READ pages;
  // training it is a caller bug, not a recoverable condition.
  MARS_CHECK_MSG(!mapped(),
                 "cannot Fit a mapped model (LoadMarsMapped serves an "
                 "immutable snapshot; copy it with ServingSnapshot to "
                 "retrain)");
  const size_t d = config_.dim;
  const size_t kf = config_.num_facets;
  Rng rng(options.seed);

  // --- Initialization: Eq. 1-2 factorization feeds the spheres ------------
  // Universal embeddings + near-identity projections, then each facet
  // embedding is the normalized projection output.
  {
    Matrix user_universal(train.num_users(), d);
    Matrix item_universal(train.num_items(), d);
    InitEmbedding(&user_universal, &rng);
    InitEmbedding(&item_universal, &rng);
    user_facets_ = FacetStore(train.num_users(), kf, d);
    item_facets_ = FacetStore(train.num_items(), kf, d);
    Matrix phi(d, d), psi(d, d);
    std::vector<float> z(d);
    for (size_t k = 0; k < kf; ++k) {
      phi.FillIdentityPlusNoise(&rng, 0.25f);
      psi.FillIdentityPlusNoise(&rng, 0.25f);
      for (UserId u = 0; u < train.num_users(); ++u) {
        GemvTransposed(phi, user_universal.Row(u), z.data());
        if (!NormalizeInPlace(z.data(), d)) z[0] = 1.0f;
        Copy(z.data(), user_facets_.Row(u, k), d);
      }
      for (ItemId v = 0; v < train.num_items(); ++v) {
        GemvTransposed(psi, item_universal.Row(v), z.data());
        if (!NormalizeInPlace(z.data(), d)) z[0] = 1.0f;
        Copy(z.data(), item_facets_.Row(v, k), d);
      }
    }
  }

  {
    const Matrix theta_init =
        config_.theta_init_nmf
            ? InitThetaLogitsFromNmf(train, kf, config_.theta_nmf_iterations,
                                     options.seed + 17)
            : InitThetaLogitsUniform(train.num_users(), kf);
    theta_logits_.mutable_vec().assign(
        theta_init.data(), theta_init.data() + theta_init.size());
  }
  radii_.assign(kf, 1.0f);

  margins_.mutable_vec() =
      config_.adaptive_margin
          ? ComputeAdaptiveMargins(train)
          : std::vector<float>(train.num_users(),
                               static_cast<float>(config_.fixed_margin));
  float* const theta_logits = theta_logits_.mutable_data();
  const float* const margins = margins_.data();

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
  const bool calibrated = mars_options_.calibrated;
  // Corrected facet loss penalizes +cos (separate); the as-printed variant
  // penalizes −cos, which *pulls facets together* (kept for the ablation).
  const float facet_sign =
      mars_options_.facet_sign == FacetLossSign::kSeparate ? 1.0f : -1.0f;

  const size_t fs = user_facets_.row_stride();
  const size_t block_floats = user_facets_.entity_stride();

  const float lr_comp =
      config_.scale_lr_by_facets ? static_cast<float>(kf) : 1.0f;

  // One SGD step touches only the triplet's rows, so workers update the
  // shared stores Hogwild-style; each worker owns its scratch buffers.
  ParallelTrainer trainer(options, &rng);
  struct Scratch {
    std::vector<float> gu, gvp, gvq, theta, coeff, cos, pair_cos;
    // Operands of the interleaved reductions (DotMany) and the 3K rows the
    // Riemannian update takes.
    std::vector<const float*> lhs, rhs;
    std::vector<float*> rows, grads;
    // The worker's next triplet, drawn one step ahead (see the step).
    Triplet next;
    bool next_ok = false;
    bool primed = false;
  };
  WriteTracker* const tracker = options.write_tracker;
  // Initialisation rewrote every row: the first publish must refresh all.
  if (tracker != nullptr) tracker->MarkAll();
  const size_t num_pairs = kf * (kf - 1) / 2;
  std::vector<Scratch> scratch(trainer.num_workers());
  for (Scratch& sc : scratch) {
    sc.gu.resize(kf * d);
    sc.gvp.resize(kf * d);
    sc.gvq.resize(kf * d);
    sc.theta.resize(kf);
    sc.coeff.resize(kf);
    sc.cos.resize(2 * kf);
    sc.pair_cos.resize(2 * num_pairs);
    sc.lhs.resize(std::max(2 * kf, 2 * num_pairs));
    sc.rhs.resize(sc.lhs.size());
    sc.rows.resize(3 * kf);
    sc.grads.resize(3 * kf);
  }

  // Per-epoch learning rates, set before the steps fan out.
  float lr = 0.0f;
  float theta_lr = 0.0f;

  const auto step = [&](size_t worker, Rng& wrng) {
    Scratch& sc = scratch[worker];
    float* const gu = sc.gu.data();
    float* const gvp = sc.gvp.data();
    float* const gvq = sc.gvq.data();
    float* const theta = sc.theta.data();
    float* const coeff = sc.coeff.data();
    const float** const lhs = sc.lhs.data();
    const float** const rhs = sc.rhs.data();

    // Sample one triplet ahead and prefetch its entity blocks, so their
    // cache misses overlap this step's arithmetic. The sampler is the
    // step's only RNG consumer, so the draws keep their order: the s-th
    // step of a worker trains on its s-th draw, as without the lookahead.
    if (!sc.primed) {
      sc.next_ok = sampler.Sample(&wrng, &sc.next);
      sc.primed = true;
    }
    const Triplet t = sc.next;
    const bool sampled = sc.next_ok;
    sc.next_ok = sampler.Sample(&wrng, &sc.next);
    if (sc.next_ok) {
      PrefetchBlock(user_facets_.EntityBlock(sc.next.user), block_floats);
      PrefetchBlock(item_facets_.EntityBlock(sc.next.positive), block_floats);
      PrefetchBlock(item_facets_.EntityBlock(sc.next.negative), block_floats);
    }
    if (!sampled) return;
    if (tracker != nullptr) {
      tracker->MarkUser(t.user);
      tracker->MarkItem(t.positive);
      tracker->MarkItem(t.negative);
      // Radii are K global floats entering every score.
      if (mars_options_.learn_radius) tracker->MarkAllItems();
    }

    // --- Forward: cosine similarities per facet ------------------------
    // The triplet's three entity blocks are each one contiguous read; the
    // 2K cosines (s_p, then s_q) run as one interleaved pass.
    const float* ublock = user_facets_.EntityBlock(t.user);
    const float* pblock = item_facets_.EntityBlock(t.positive);
    const float* qblock = item_facets_.EntityBlock(t.negative);
    for (size_t k = 0; k < kf; ++k) {
      lhs[k] = lhs[kf + k] = ublock + k * fs;
      rhs[k] = pblock + k * fs;
      rhs[kf + k] = qblock + k * fs;
    }
    DotMany(lhs, rhs, 2 * kf, d, sc.cos.data());
    const float* const sp = sc.cos.data();
    const float* const sq = sp + kf;
    Softmax(theta_logits + t.user * kf, theta, kf);
    float push_val = margins[t.user];
    for (size_t k = 0; k < kf; ++k) {
      push_val += theta[k] * radii_[k] * (sq[k] - sp[k]);
    }
    const bool active = push_val > 0.0f;

    // --- Euclidean gradients in the ambient space -----------------------
    for (size_t k = 0; k < kf; ++k) {
      const float w_push = active ? theta[k] * radii_[k] : 0.0f;
      const float w_pull = lambda_pull * theta[k] * radii_[k];
      PushPullGradients(ublock + k * fs, pblock + k * fs, qblock + k * fs,
                        w_push, w_pull, d, gu + k * d, gvp + k * d,
                        gvq + k * d);
    }
    // Spherical facet-separating loss over facet pairs (user + pos item).
    // The K(K−1) pair cosines (user pairs, then positive-item pairs) run
    // as one interleaved pass; the rows then accumulate in pair order.
    if (lambda_facet > 0.0f && kf > 1) {
      size_t pair = 0;
      for (size_t i = 0; i < kf; ++i) {
        for (size_t j = i + 1; j < kf; ++j, ++pair) {
          lhs[pair] = ublock + i * fs;
          rhs[pair] = ublock + j * fs;
          lhs[num_pairs + pair] = pblock + i * fs;
          rhs[num_pairs + pair] = pblock + j * fs;
        }
      }
      float* const pair_cos = sc.pair_cos.data();
      DotMany(lhs, rhs, 2 * num_pairs, d, pair_cos);
      pair = 0;
      for (size_t i = 0; i < kf; ++i) {
        for (size_t j = i + 1; j < kf; ++j, ++pair) {
          const float cu = pair_cos[pair];
          const float cv = pair_cos[num_pairs + pair];
          // L = (1/α) log(1+exp(sign·α·cos)) per entity;
          // dL/dcos = sign·σ(sign·α·cos).
          const float wu = lambda_facet * facet_sign *
                           static_cast<float>(Sigmoid(facet_sign * alpha * cu));
          const float wv = lambda_facet * facet_sign *
                           static_cast<float>(Sigmoid(facet_sign * alpha * cv));
          FacetPairGradients(ublock + i * fs, ublock + j * fs, wu, d,
                             gu + i * d, gu + j * d);
          FacetPairGradients(pblock + i * fs, pblock + j * fs, wv, d,
                             gvp + i * d, gvp + j * d);
        }
      }
    }

    // --- Θ update --------------------------------------------------------
    float mean_c = 0.0f;
    for (size_t k = 0; k < kf; ++k) {
      coeff[k] = radii_[k] * ((active ? (sq[k] - sp[k]) : 0.0f) -
                              static_cast<float>(lambda_pull) * sp[k]);
      mean_c += theta[k] * coeff[k];
    }
    float* logits = theta_logits + t.user * kf;
    for (size_t k = 0; k < kf; ++k) {
      logits[k] -= theta_lr * theta[k] * (coeff[k] - mean_c);
    }

    // --- Facet-radius update (future-work extension) --------------------
    // radii_ is K global floats shared by every worker; concurrent updates
    // race Hogwild-style like the embedding rows.
    if (mars_options_.learn_radius) {
      constexpr float kMinRadius = 0.1f;
      constexpr float kMaxRadius = 10.0f;
      for (size_t k = 0; k < kf; ++k) {
        const float grad_r =
            theta[k] * ((active ? (sq[k] - sp[k]) : 0.0f) -
                        static_cast<float>(lambda_pull) * sp[k]);
        radii_[k] = std::clamp(radii_[k] - theta_lr * grad_r, kMinRadius,
                               kMaxRadius);
      }
    }

    // --- Calibrated Riemannian updates (Eq. 21), clipped and fused ------
    // The 3K rows sit in three contiguous entity blocks; their gradients
    // are disjoint scratch rows.
    for (size_t k = 0; k < kf; ++k) {
      sc.rows[3 * k] = user_facets_.Row(t.user, k);
      sc.rows[3 * k + 1] = item_facets_.Row(t.positive, k);
      sc.rows[3 * k + 2] = item_facets_.Row(t.negative, k);
      sc.grads[3 * k] = gu + k * d;
      sc.grads[3 * k + 1] = gvp + k * d;
      sc.grads[3 * k + 2] = gvq + k * d;
    }
    ClippedRiemannianSgdSteps(sc.rows.data(), sc.grads.data(), 3 * kf, lr,
                              clip, d, calibrated);
  };

  RunTrainingLoop(options, *this, name(), [&](size_t, double lr_d) {
    lr = static_cast<float>(lr_d) * lr_comp;
    theta_lr = static_cast<float>(lr_d) *
               static_cast<float>(config_.theta_lr_scale);
    trainer.RunEpoch(steps, step);
  });
}

float Mars::Score(UserId u, ItemId v) const {
  const size_t kf = config_.num_facets;
  std::vector<float> theta(kf);
  Softmax(ThetaLogits(u), theta.data(), kf);
  for (size_t k = 0; k < kf; ++k) theta[k] *= radii_[k];
  return WeightedFacetDot(user_facets_.EntityBlock(u),
                          user_facets_.row_stride(),
                          item_facets_.EntityBlock(v),
                          item_facets_.row_stride(), theta.data(), kf,
                          config_.dim);
}

void Mars::ScoreItems(UserId u, std::span<const ItemId> items,
                      float* out) const {
  const size_t kf = config_.num_facets;
  std::vector<float> theta(kf);
  Softmax(ThetaLogits(u), theta.data(), kf);
  for (size_t k = 0; k < kf; ++k) theta[k] *= radii_[k];
  // Per candidate, both entity blocks are contiguous: one fused pass over
  // 2·K·D floats instead of K scattered row pairs.
  const float* ublock = user_facets_.EntityBlock(u);
  const size_t us = user_facets_.row_stride();
  const size_t vs = item_facets_.row_stride();
  for (size_t idx = 0; idx < items.size(); ++idx) {
    out[idx] = WeightedFacetDot(ublock, us,
                                item_facets_.EntityBlock(items[idx]), vs,
                                theta.data(), kf, config_.dim);
  }
}

void Mars::ScoreItemRange(UserId u, ItemId begin, ItemId end,
                          float* out) const {
  if (begin >= end) return;
  const size_t kf = config_.num_facets;
  std::vector<float> theta(kf);
  Softmax(ThetaLogits(u), theta.data(), kf);
  for (size_t k = 0; k < kf; ++k) theta[k] *= radii_[k];
  const size_t count = end - begin;
  // The item store is contiguous: the sweep streams over `count`
  // consecutive entity blocks in one pass.
  WeightedFacetDotBatch(user_facets_.EntityBlock(u),
                        user_facets_.row_stride(),
                        item_facets_.EntityBlock(begin),
                        item_facets_.entity_stride(),
                        item_facets_.row_stride(), theta.data(), kf,
                        count, config_.dim, out);
}

void Mars::ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                               ItemId end, float* const* out) const {
  if (begin >= end || users.empty()) return;
  const size_t kf = config_.num_facets;
  // Per-user θ·r weight vectors, then one fused multi-user pass over the
  // contiguous item store: each candidate facet row is loaded once per
  // user quad instead of once per user.
  std::vector<float> thetas(users.size() * kf);
  std::vector<const float*> ublocks(users.size()), ws(users.size());
  for (size_t b = 0; b < users.size(); ++b) {
    float* theta = thetas.data() + b * kf;
    Softmax(ThetaLogits(users[b]), theta, kf);
    for (size_t k = 0; k < kf; ++k) theta[k] *= radii_[k];
    ublocks[b] = user_facets_.EntityBlock(users[b]);
    ws[b] = theta;
  }
  WeightedFacetDotBatchMulti(ublocks.data(), user_facets_.row_stride(),
                             ws.data(), users.size(),
                             item_facets_.EntityBlock(begin),
                             item_facets_.entity_stride(),
                             item_facets_.row_stride(), kf, end - begin,
                             config_.dim, out);
}

void Mars::CopyIndexVectors(ItemId begin, ItemId end, float* out) const {
  const size_t kf = config_.num_facets;
  const size_t d = config_.dim;
  for (ItemId v = begin; v < end; ++v, out += kf * d) {
    item_facets_.CopyEntityTo(v, out);
  }
}

void Mars::WriteIndexQuery(UserId u, float* out) const {
  const size_t kf = config_.num_facets;
  const size_t d = config_.dim;
  std::vector<float> theta(kf);
  Softmax(ThetaLogits(u), theta.data(), kf);
  for (size_t k = 0; k < kf; ++k) theta[k] *= radii_[k];
  for (size_t k = 0; k < kf; ++k) {
    const float* row = user_facets_.Row(u, k);
    float* dst = out + k * d;
    for (size_t i = 0; i < d; ++i) dst[i] = theta[k] * row[i];
  }
}

std::vector<float> Mars::UserFacetEmbedding(UserId u, size_t k) const {
  MARS_CHECK(k < config_.num_facets);
  std::vector<float> out(config_.dim);
  Copy(user_facets_.Row(u, k), out.data(), config_.dim);
  return out;
}

std::vector<float> Mars::ItemFacetEmbedding(ItemId v, size_t k) const {
  MARS_CHECK(k < config_.num_facets);
  std::vector<float> out(config_.dim);
  Copy(item_facets_.Row(v, k), out.data(), config_.dim);
  return out;
}

std::vector<float> Mars::FacetWeights(UserId u) const {
  std::vector<float> theta(config_.num_facets);
  Softmax(ThetaLogits(u), theta.data(), config_.num_facets);
  return theta;
}

float Mars::MarginOf(UserId u) const {
  MARS_CHECK(u < margins_.size());
  return margins_[u];
}

std::unique_ptr<Mars> Mars::ServingSnapshot() const {
  auto snap = std::make_unique<Mars>(config_, mars_options_);
  snap->user_facets_ = user_facets_.OwnedCopy();
  snap->item_facets_ = item_facets_.OwnedCopy();
  snap->theta_logits_ = theta_logits_.OwnedCopy();
  snap->radii_ = radii_;
  snap->margins_ = margins_.OwnedCopy();
  return snap;
}

}  // namespace mars
