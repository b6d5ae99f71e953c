#include "models/neumf.h"

#include <cmath>

#include "common/rng.h"
#include "common/vec.h"
#include "models/embedding.h"
#include "models/train_loop.h"
#include "sampling/negative_sampler.h"

namespace mars {

NeuMf::NeuMf(NeuMfConfig config) : config_(config) {}

size_t NeuMf::ForwardSize() const {
  return 2 * config_.mlp_dim + config_.gmf_dim + tower_->buffer_size();
}

float NeuMf::ForwardLogit(UserId u, ItemId v, float* buf) const {
  WriteUserInput(u, buf);
  return ForwardItem(u, v, buf);
}

void NeuMf::WriteUserInput(UserId u, float* buf) const {
  Copy(mlp_user_.Row(u), buf, config_.mlp_dim);
}

float NeuMf::ForwardItem(UserId u, ItemId v, float* buf) const {
  const size_t dg = config_.gmf_dim;
  const size_t dm = config_.mlp_dim;
  float* concat = buf;
  float* gmf_out = buf + 2 * dm;
  Hadamard(gmf_user_.Row(u), gmf_item_.Row(v), gmf_out, dg);
  Copy(mlp_item_.Row(v), concat + dm, dm);
  const float* mlp_out = tower_->Forward(concat, gmf_out + dg);
  float logit = out_bias_;
  logit += Dot(out_weight_.data(), gmf_out, dg);
  logit += Dot(out_weight_.data() + dg, mlp_out, tower_->out_dim());
  return logit;
}

void NeuMf::Fit(const ImplicitDataset& train, const TrainOptions& options) {
  Rng rng(options.seed);
  const size_t dg = config_.gmf_dim;
  const size_t dm = config_.mlp_dim;

  gmf_user_ = Matrix(train.num_users(), dg);
  gmf_item_ = Matrix(train.num_items(), dg);
  mlp_user_ = Matrix(train.num_users(), dm);
  mlp_item_ = Matrix(train.num_items(), dm);
  InitEmbedding(&gmf_user_, &rng);
  InitEmbedding(&gmf_item_, &rng);
  InitEmbedding(&mlp_user_, &rng);
  InitEmbedding(&mlp_item_, &rng);

  std::vector<size_t> dims;
  dims.push_back(2 * dm);
  for (size_t h : config_.hidden) dims.push_back(h);
  tower_ = std::make_unique<Mlp>(dims, Activation::kIdentity, &rng);

  const size_t out_dim = dg + tower_->out_dim();
  out_weight_.resize(out_dim);
  for (float& w : out_weight_) {
    w = static_cast<float>(rng.Normal(0.0, 1.0 / std::sqrt(out_dim)));
  }
  out_bias_ = 0.0f;

  const NegativeSampler negatives(train);
  const size_t steps = ResolveStepsPerEpoch(options, train);
  const float l2 = static_cast<float>(config_.l2_reg);
  const auto& log = train.interactions();

  std::vector<float> grad_mlp_out(tower_->out_dim());
  std::vector<float> grad_concat(2 * dm);
  // The step's forward activations (ForwardLogit's layout), read back by
  // the backward pass.
  std::vector<float> fwd(ForwardSize());
  const float* concat = fwd.data();
  float* gmf_out = fwd.data() + 2 * dm;
  const float* tower_buf = gmf_out + dg;
  const float* mlp_out = tower_->output(tower_buf);

  // One SGD step on a single labeled pair.
  auto step_pair = [&](UserId u, ItemId v, float label, float lr) {
    const float logit = ForwardLogit(u, v, fwd.data());
    const float pred = static_cast<float>(Sigmoid(logit));
    const float dlogit = pred - label;  // BCE gradient

    // Output layer splits into GMF and MLP halves: grad wrt out_weight
    // and the two tower outputs.
    for (size_t i = 0; i < dg; ++i) {
      const float w = out_weight_[i];
      out_weight_[i] -= lr * (dlogit * gmf_out[i] + l2 * w);
      gmf_out[i] = dlogit * w;  // reuse as grad buffer
    }
    for (size_t i = 0; i < tower_->out_dim(); ++i) {
      const float w = out_weight_[dg + i];
      out_weight_[dg + i] -= lr * (dlogit * mlp_out[i] + l2 * w);
      grad_mlp_out[i] = dlogit * w;
    }
    out_bias_ -= lr * dlogit;

    // GMF tower backprop: g_i = p_i q_i.
    float* pu = gmf_user_.Row(u);
    float* qv = gmf_item_.Row(v);
    for (size_t i = 0; i < dg; ++i) {
      const float gp = gmf_out[i] * qv[i];
      const float gq = gmf_out[i] * pu[i];
      pu[i] -= lr * (gp + l2 * pu[i]);
      qv[i] -= lr * (gq + l2 * qv[i]);
    }

    // MLP tower backprop into the concatenated embeddings.
    tower_->Backward(concat, tower_buf, grad_mlp_out.data(), lr, l2,
                     grad_concat.data());
    float* mu = mlp_user_.Row(u);
    float* mv = mlp_item_.Row(v);
    for (size_t i = 0; i < dm; ++i) {
      mu[i] -= lr * (grad_concat[i] + l2 * mu[i]);
      mv[i] -= lr * (grad_concat[dm + i] + l2 * mv[i]);
    }
  };

  RunTrainingLoop(options, *this, name(), [&](size_t, double lr_d) {
    const float lr = static_cast<float>(lr_d);
    for (size_t s = 0; s < steps; ++s) {
      const Interaction& x = log[rng.UniformInt(log.size())];
      step_pair(x.user, x.item, 1.0f, lr);
      for (size_t k = 0; k < config_.negatives_per_positive; ++k) {
        ItemId vq;
        if (!negatives.Sample(x.user, &rng, &vq)) break;
        step_pair(x.user, vq, 0.0f, lr);
      }
    }
  });
}

float NeuMf::Score(UserId u, ItemId v) const {
  std::vector<float> buf(ForwardSize());
  return ForwardLogit(u, v, buf.data());
}

void NeuMf::ScoreItems(UserId u, std::span<const ItemId> items,
                       float* out) const {
  std::vector<float> buf(ForwardSize());
  WriteUserInput(u, buf.data());
  for (size_t i = 0; i < items.size(); ++i) {
    out[i] = ForwardItem(u, items[i], buf.data());
  }
}

void NeuMf::ScoreItemRange(UserId u, ItemId begin, ItemId end,
                           float* out) const {
  std::vector<float> buf(ForwardSize());
  WriteUserInput(u, buf.data());
  for (ItemId v = begin; v < end; ++v) {
    out[v - begin] = ForwardItem(u, v, buf.data());
  }
}

}  // namespace mars
