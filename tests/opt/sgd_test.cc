#include "opt/sgd.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/vec.h"

namespace mars {
namespace {

TEST(SgdTest, StepMovesAgainstGradient) {
  std::vector<float> x = {1.0f, 2.0f};
  const std::vector<float> g = {0.5f, -1.0f};
  SgdStep(x.data(), g.data(), 0.1f, 2);
  EXPECT_FLOAT_EQ(x[0], 0.95f);
  EXPECT_FLOAT_EQ(x[1], 2.1f);
}

TEST(SgdTest, BallProjectedStepStaysInBall) {
  std::vector<float> x = {0.9f, 0.0f};
  const std::vector<float> g = {-10.0f, 0.0f};  // pushes far outside
  SgdStepBallProjected(x.data(), g.data(), 1.0f, 2);
  EXPECT_LE(Norm(x.data(), 2), 1.0f + 1e-6f);
}

TEST(SgdTest, BallProjectedStepInsideBallUntouched) {
  std::vector<float> x = {0.1f, 0.1f};
  const std::vector<float> g = {0.01f, 0.0f};
  SgdStepBallProjected(x.data(), g.data(), 0.1f, 2);
  EXPECT_FLOAT_EQ(x[0], 0.099f);
  EXPECT_FLOAT_EQ(x[1], 0.1f);
}

TEST(SgdTest, ClipGradientShrinksLargeGradients) {
  std::vector<float> g = {3.0f, 4.0f};  // norm 5
  const float pre = ClipGradient(g.data(), 2, 1.0f);
  EXPECT_FLOAT_EQ(pre, 5.0f);
  EXPECT_NEAR(Norm(g.data(), 2), 1.0f, 1e-6f);
  EXPECT_NEAR(g[0] / g[1], 0.75f, 1e-6f);  // direction preserved
}

TEST(SgdTest, ClipGradientLeavesSmallGradients) {
  std::vector<float> g = {0.3f, 0.4f};
  ClipGradient(g.data(), 2, 1.0f);
  EXPECT_FLOAT_EQ(g[0], 0.3f);
  EXPECT_FLOAT_EQ(g[1], 0.4f);
}

TEST(SgdTest, GradientDescentConvergesOnQuadratic) {
  // minimize ||x - c||²
  const std::vector<float> c = {3.0f, -2.0f};
  std::vector<float> x = {0.0f, 0.0f}, g(2);
  for (int i = 0; i < 200; ++i) {
    for (int j = 0; j < 2; ++j) g[j] = 2.0f * (x[j] - c[j]);
    SgdStep(x.data(), g.data(), 0.1f, 2);
  }
  EXPECT_NEAR(x[0], 3.0f, 1e-3f);
  EXPECT_NEAR(x[1], -2.0f, 1e-3f);
}

}  // namespace
}  // namespace mars
