#include "models/mlp.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/vec.h"

namespace mars {

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, Activation activation,
                       Rng* rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      activation_(activation),
      w_(out_dim, in_dim),
      b_(out_dim, 0.0f),
      delta_(out_dim, 0.0f) {
  // Xavier/Glorot uniform.
  const float bound = std::sqrt(6.0f / static_cast<float>(in_dim + out_dim));
  w_.FillUniform(rng, -bound, bound);
}

void DenseLayer::Forward(const float* x, float* pre, float* out) const {
  for (size_t o = 0; o < out_dim_; ++o) {
    pre[o] = Dot(w_.Row(o), x, in_dim_) + b_[o];
    out[o] = (activation_ == Activation::kRelu && pre[o] < 0.0f) ? 0.0f
                                                                 : pre[o];
  }
}

void DenseLayer::Backward(const float* x, const float* pre,
                          const float* grad_out, float lr, float l2,
                          float* grad_in) {
  // delta = dL/d(pre) = grad_out ⊙ act'(pre)
  for (size_t o = 0; o < out_dim_; ++o) {
    const float mask =
        (activation_ == Activation::kRelu && pre[o] <= 0.0f) ? 0.0f : 1.0f;
    delta_[o] = grad_out[o] * mask;
  }
  if (grad_in != nullptr) {
    Fill(0.0f, grad_in, in_dim_);
    for (size_t o = 0; o < out_dim_; ++o) {
      if (delta_[o] == 0.0f) continue;
      Axpy(delta_[o], w_.Row(o), grad_in, in_dim_);
    }
  }
  // SGD update: W -= lr (delta xᵀ + l2 W); b -= lr delta.
  for (size_t o = 0; o < out_dim_; ++o) {
    float* wrow = w_.Row(o);
    const float d = delta_[o];
    if (d != 0.0f || l2 != 0.0f) {
      for (size_t i = 0; i < in_dim_; ++i) {
        wrow[i] -= lr * (d * x[i] + l2 * wrow[i]);
      }
      b_[o] -= lr * d;
    }
  }
}

Mlp::Mlp(const std::vector<size_t>& dims, Activation final_activation,
         Rng* rng) {
  MARS_CHECK(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = (i + 2 == dims.size());
    layers_.emplace_back(dims[i], dims[i + 1],
                         last ? final_activation : Activation::kRelu, rng);
  }
  grads_.resize(layers_.size());
  for (size_t i = 0; i < layers_.size(); ++i) {
    buffer_size_ += 2 * layers_[i].out_dim();
    grads_[i].assign(layers_[i].in_dim(), 0.0f);
  }
}

const float* Mlp::Forward(const float* x, float* buffer) const {
  const float* cur = x;
  for (const DenseLayer& layer : layers_) {
    float* out = buffer + layer.out_dim();
    layer.Forward(cur, buffer, out);
    cur = out;
    buffer = out + layer.out_dim();
  }
  return cur;
}

void Mlp::Backward(const float* x, const float* buffer, const float* grad_out,
                   float lr, float l2, float* grad_in) {
  // Layer i's pre-activations sit at `pre`, its input (the activations of
  // layer i - 1) just before them.
  const float* pre = buffer + buffer_size_;
  const float* cur_grad = grad_out;
  for (size_t i = layers_.size(); i-- > 0;) {
    pre -= 2 * layers_[i].out_dim();
    const float* in = (i == 0) ? x : pre - layers_[i - 1].out_dim();
    float* sink = (i == 0) ? grad_in : grads_[i].data();
    layers_[i].Backward(in, pre, cur_grad, lr, l2, sink);
    cur_grad = sink;
  }
}

}  // namespace mars
