#include "models/mlp.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vec.h"

namespace mars {
namespace {

TEST(MlpTest, ForwardShapes) {
  Rng rng(1);
  Mlp mlp({8, 16, 4}, Activation::kIdentity, &rng);
  EXPECT_EQ(mlp.in_dim(), 8u);
  EXPECT_EQ(mlp.out_dim(), 4u);
  EXPECT_EQ(mlp.num_layers(), 2u);
  std::vector<float> x(8, 0.5f), buf(mlp.buffer_size());
  const float* y = mlp.Forward(x.data(), buf.data());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(y[i]));
  }
}

TEST(MlpTest, ReluClampsNegativePreActivations) {
  Rng rng(2);
  DenseLayer layer(2, 2, Activation::kRelu, &rng);
  std::vector<float> x = {100.0f, -100.0f}, pre(2), y(2);
  layer.Forward(x.data(), pre.data(), y.data());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_GE(y[i], 0.0f);
  }
}

// Finite-difference gradient check for a single dense layer.
TEST(MlpTest, DenseLayerInputGradientMatchesFiniteDifference) {
  Rng rng(3);
  DenseLayer layer(5, 3, Activation::kIdentity, &rng);
  std::vector<float> x(5);
  for (auto& v : x) v = static_cast<float>(rng.Normal());

  // Loss = sum(outputs); dL/dy = 1.
  std::vector<float> pre(3), y(3);
  auto loss = [&](const float* input) {
    layer.Forward(input, pre.data(), y.data());
    float total = 0.0f;
    for (size_t i = 0; i < 3; ++i) total += y[i];
    return total;
  };

  layer.Forward(x.data(), pre.data(), y.data());
  std::vector<float> grad_out(3, 1.0f), grad_in(5);
  // lr = 0 → pure gradient computation, no weight update.
  layer.Backward(x.data(), pre.data(), grad_out.data(), 0.0f, 0.0f,
                 grad_in.data());

  const float eps = 1e-3f;
  for (size_t i = 0; i < 5; ++i) {
    std::vector<float> xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const float numeric = (loss(xp.data()) - loss(xm.data())) / (2 * eps);
    EXPECT_NEAR(grad_in[i], numeric, 5e-2f) << "input " << i;
  }
}

TEST(MlpTest, MlpInputGradientMatchesFiniteDifference) {
  Rng rng(4);
  Mlp mlp({4, 6, 2}, Activation::kIdentity, &rng);
  std::vector<float> x(4);
  for (auto& v : x) v = static_cast<float>(rng.Normal());

  std::vector<float> buf(mlp.buffer_size());
  auto loss = [&](const float* input) {
    const float* y = mlp.Forward(input, buf.data());
    return y[0] * 2.0f + y[1];
  };

  mlp.Forward(x.data(), buf.data());
  std::vector<float> grad_out = {2.0f, 1.0f};
  std::vector<float> grad_in(4);
  mlp.Backward(x.data(), buf.data(), grad_out.data(), 0.0f, 0.0f,
               grad_in.data());

  const float eps = 1e-3f;
  for (size_t i = 0; i < 4; ++i) {
    std::vector<float> xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const float numeric = (loss(xp.data()) - loss(xm.data())) / (2 * eps);
    EXPECT_NEAR(grad_in[i], numeric, 5e-2f) << "input " << i;
  }
}

TEST(MlpTest, TrainingReducesLossOnToyRegression) {
  // Learn y = x0 - x1 with a small MLP and per-sample SGD.
  Rng rng(5);
  Mlp mlp({2, 8, 1}, Activation::kIdentity, &rng);
  std::vector<float> buf(mlp.buffer_size());
  auto sample_loss = [&](float x0, float x1) {
    const float target = x0 - x1;
    std::vector<float> x = {x0, x1};
    const float pred = mlp.Forward(x.data(), buf.data())[0];
    return 0.5f * (pred - target) * (pred - target);
  };
  // Initial average loss.
  Rng data_rng(6);
  float before = 0.0f;
  std::vector<std::pair<float, float>> test_points;
  for (int i = 0; i < 50; ++i) {
    const float a = static_cast<float>(data_rng.Uniform(-1, 1));
    const float b = static_cast<float>(data_rng.Uniform(-1, 1));
    test_points.emplace_back(a, b);
    before += sample_loss(a, b);
  }
  // Train.
  for (int step = 0; step < 4000; ++step) {
    const float a = static_cast<float>(data_rng.Uniform(-1, 1));
    const float b = static_cast<float>(data_rng.Uniform(-1, 1));
    const float target = a - b;
    std::vector<float> x = {a, b};
    const float pred = mlp.Forward(x.data(), buf.data())[0];
    std::vector<float> grad_out = {pred - target};
    mlp.Backward(x.data(), buf.data(), grad_out.data(), 0.05f, 0.0f,
                 nullptr);
  }
  float after = 0.0f;
  for (const auto& [a, b] : test_points) after += sample_loss(a, b);
  EXPECT_LT(after, before * 0.2f);
}

TEST(MlpTest, BackwardWithNullGradInIsSafe) {
  Rng rng(7);
  Mlp mlp({3, 4, 2}, Activation::kRelu, &rng);
  std::vector<float> x = {1.0f, -1.0f, 0.5f}, buf(mlp.buffer_size());
  mlp.Forward(x.data(), buf.data());
  std::vector<float> grad_out = {1.0f, 1.0f};
  mlp.Backward(x.data(), buf.data(), grad_out.data(), 0.01f, 0.0f, nullptr);
  SUCCEED();
}

TEST(MlpTest, L2RegularizationShrinksWeights) {
  Rng rng(8);
  DenseLayer layer(2, 2, Activation::kIdentity, &rng);
  const float w_before = layer.weights().FrobeniusNorm();
  std::vector<float> x = {0.0f, 0.0f};  // zero input → pure decay
  std::vector<float> pre(2), y(2);
  layer.Forward(x.data(), pre.data(), y.data());
  std::vector<float> grad_out = {0.0f, 0.0f};
  for (int i = 0; i < 100; ++i) {
    layer.Backward(x.data(), pre.data(), grad_out.data(), 0.1f, 0.1f,
                   nullptr);
  }
  EXPECT_LT(layer.weights().FrobeniusNorm(), w_before * 0.5f);
}

}  // namespace
}  // namespace mars
