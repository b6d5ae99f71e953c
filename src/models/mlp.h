// Minimal dense layers with manual backprop (per-sample SGD).
//
// NeuMF's tower is the only deep component in the library; a hand-rolled
// layer with exact gradients keeps the build dependency-free. Layers
// process one sample at a time, which matches the SGD training loops used
// throughout. The forward pass is const and writes into caller buffers,
// so scoring may run it from many threads; Backward reads the buffers of
// the forward it differentiates.
#ifndef MARS_MODELS_MLP_H_
#define MARS_MODELS_MLP_H_

#include <cstddef>
#include <vector>

#include "common/matrix.h"

namespace mars {

class Rng;

/// Supported activations.
enum class Activation {
  kIdentity,
  kRelu,
};

/// Fully-connected layer y = act(W x + b).
class DenseLayer {
 public:
  /// Xavier-initialized layer (in → out).
  DenseLayer(size_t in_dim, size_t out_dim, Activation activation, Rng* rng);

  /// Computes the layer for `x` (size in_dim): pre-activations into `pre`
  /// and activations into `out` (size out_dim each). Reads only the
  /// weights, so any number of threads may run it at once.
  void Forward(const float* x, float* pre, float* out) const;

  /// Given dL/dy (size out_dim) and the `x` and `pre` of the Forward that
  /// produced y, accumulates dL/dx into `grad_in` (size in_dim; may be
  /// null) and applies an SGD update with learning rate `lr` and L2 `l2`.
  void Backward(const float* x, const float* pre, const float* grad_out,
                float lr, float l2, float* grad_in);

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  const Matrix& weights() const { return w_; }

 private:
  size_t in_dim_;
  size_t out_dim_;
  Activation activation_;
  Matrix w_;                    // out×in
  std::vector<float> b_;        // out
  std::vector<float> delta_;    // Backward scratch: dL/d(pre)
};

/// A stack of DenseLayers applied in sequence.
class Mlp {
 public:
  /// Builds layers sized dims[0] → dims[1] → ... → dims.back(); all hidden
  /// layers use ReLU and the final layer uses `final_activation`.
  Mlp(const std::vector<size_t>& dims, Activation final_activation, Rng* rng);

  /// Floats a Forward writes: every layer's pre-activations and
  /// activations, layer after layer.
  size_t buffer_size() const { return buffer_size_; }

  /// Forward through all layers into `buffer` (buffer_size() floats);
  /// returns output(buffer). Reads only the weights, so any number of
  /// threads may run it at once, each with its own buffer.
  const float* Forward(const float* x, float* buffer) const;

  /// The final activations (size out_dim) a Forward left in `buffer`.
  const float* output(const float* buffer) const {
    return buffer + buffer_size_ - out_dim();
  }

  /// Backprop from dL/d(output) through the Forward that filled `buffer`
  /// from `x`; accumulates dL/d(input) into `grad_in` (may be null) and
  /// updates all layers.
  void Backward(const float* x, const float* buffer, const float* grad_out,
                float lr, float l2, float* grad_in);

  size_t out_dim() const { return layers_.back().out_dim(); }
  size_t in_dim() const { return layers_.front().in_dim(); }
  size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<DenseLayer> layers_;
  size_t buffer_size_ = 0;
  std::vector<std::vector<float>> grads_;   // scratch per-layer grad buffers
};

}  // namespace mars

#endif  // MARS_MODELS_MLP_H_
