#include "common/vec.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mars {
namespace {

TEST(VecTest, DotBasic) {
  const std::vector<float> a = {1, 2, 3};
  const std::vector<float> b = {4, 5, 6};
  EXPECT_FLOAT_EQ(Dot(a, b), 32.0f);
}

TEST(VecTest, DotHandlesOddLengths) {
  for (size_t n : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 13u}) {
    std::vector<float> a(n, 2.0f), b(n, 3.0f);
    EXPECT_FLOAT_EQ(Dot(a.data(), b.data(), n), 6.0f * n);
  }
}

TEST(VecTest, SquaredDistanceBasic) {
  const std::vector<float> a = {1, 0, 0};
  const std::vector<float> b = {0, 1, 0};
  EXPECT_FLOAT_EQ(SquaredDistance(a, b), 2.0f);
}

TEST(VecTest, SquaredDistanceZeroForEqual) {
  const std::vector<float> a = {1.5f, -2.5f, 3.25f};
  EXPECT_FLOAT_EQ(SquaredDistance(a, a), 0.0f);
}

TEST(VecTest, NormAndSquaredNormAgree) {
  const std::vector<float> a = {3, 4};
  EXPECT_FLOAT_EQ(Norm(a.data(), 2), 5.0f);
  EXPECT_FLOAT_EQ(SquaredNorm(a.data(), 2), 25.0f);
}

TEST(VecTest, AxpyAccumulates) {
  std::vector<float> a = {1, 1, 1};
  const std::vector<float> b = {1, 2, 3};
  Axpy(2.0f, b.data(), a.data(), 3);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  EXPECT_FLOAT_EQ(a[1], 5.0f);
  EXPECT_FLOAT_EQ(a[2], 7.0f);
}

TEST(VecTest, ScaleFillCopySubAddHadamard) {
  std::vector<float> a = {2, 4};
  Scale(0.5f, a.data(), 2);
  EXPECT_FLOAT_EQ(a[0], 1.0f);
  EXPECT_FLOAT_EQ(a[1], 2.0f);

  Fill(7.0f, a.data(), 2);
  EXPECT_FLOAT_EQ(a[0], 7.0f);

  std::vector<float> b = {1, 2}, out(2);
  Copy(b.data(), out.data(), 2);
  EXPECT_EQ(out[0], 1.0f);

  Sub(a.data(), b.data(), out.data(), 2);
  EXPECT_FLOAT_EQ(out[0], 6.0f);
  Add(a.data(), b.data(), out.data(), 2);
  EXPECT_FLOAT_EQ(out[1], 9.0f);
  Hadamard(a.data(), b.data(), out.data(), 2);
  EXPECT_FLOAT_EQ(out[1], 14.0f);
}

TEST(VecTest, CosineBounds) {
  Rng rng(3);
  std::vector<float> a(16), b(16);
  for (int trial = 0; trial < 100; ++trial) {
    for (auto& x : a) x = static_cast<float>(rng.Normal());
    for (auto& x : b) x = static_cast<float>(rng.Normal());
    const float c = Cosine(a.data(), b.data(), 16);
    EXPECT_GE(c, -1.0f - 1e-5f);
    EXPECT_LE(c, 1.0f + 1e-5f);
  }
}

TEST(VecTest, CosineOfParallelVectorsIsOne) {
  std::vector<float> a = {1, 2, 3};
  std::vector<float> b = {2, 4, 6};
  EXPECT_NEAR(Cosine(a, b), 1.0f, 1e-6f);
}

TEST(VecTest, CosineOfZeroVectorIsZero) {
  std::vector<float> a = {0, 0, 0};
  std::vector<float> b = {1, 2, 3};
  EXPECT_FLOAT_EQ(Cosine(a, b), 0.0f);
}

TEST(VecTest, NormalizeInPlaceMakesUnit) {
  std::vector<float> a = {3, 4, 0};
  ASSERT_TRUE(NormalizeInPlace(a.data(), 3));
  EXPECT_NEAR(Norm(a.data(), 3), 1.0f, 1e-6f);
}

TEST(VecTest, NormalizeZeroReturnsFalse) {
  std::vector<float> a = {0, 0};
  EXPECT_FALSE(NormalizeInPlace(a.data(), 2));
}

TEST(VecTest, ProjectToUnitBallOnlyShrinksOutside) {
  std::vector<float> inside = {0.3f, 0.4f};
  EXPECT_FALSE(ProjectToUnitBall(inside.data(), 2));
  EXPECT_FLOAT_EQ(inside[0], 0.3f);

  std::vector<float> outside = {3, 4};
  EXPECT_TRUE(ProjectToUnitBall(outside.data(), 2));
  EXPECT_NEAR(Norm(outside.data(), 2), 1.0f, 1e-6f);
  // Direction preserved.
  EXPECT_NEAR(outside[0] / outside[1], 0.75f, 1e-6f);
}

TEST(VecTest, SoftmaxSumsToOne) {
  const std::vector<float> logits = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> p(4);
  Softmax(logits.data(), p.data(), 4);
  float sum = 0.0f;
  for (float x : p) {
    EXPECT_GT(x, 0.0f);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  // Monotonic in the logits.
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[2], p[3]);
}

TEST(VecTest, SoftmaxStableForHugeLogits) {
  const std::vector<float> logits = {1000.0f, 1000.0f};
  std::vector<float> p(2);
  Softmax(logits.data(), p.data(), 2);
  EXPECT_NEAR(p[0], 0.5f, 1e-6f);
  EXPECT_NEAR(p[1], 0.5f, 1e-6f);
}

TEST(VecTest, SoftmaxUniformForEqualLogits) {
  const std::vector<float> logits(5, -3.0f);
  std::vector<float> p(5);
  Softmax(logits.data(), p.data(), 5);
  for (float x : p) EXPECT_NEAR(x, 0.2f, 1e-6f);
}

TEST(VecTest, SigmoidProperties) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-9);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-9);
  // Symmetry: σ(x) + σ(-x) = 1.
  for (double x : {0.1, 0.5, 2.0, 10.0}) {
    EXPECT_NEAR(Sigmoid(x) + Sigmoid(-x), 1.0, 1e-12);
  }
}

class VecDimensionSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(VecDimensionSweep, DistanceExpansionIdentity) {
  // ||a-b||² = ||a||² + ||b||² - 2<a,b> must hold for all dims.
  const size_t n = GetParam();
  Rng rng(n);
  std::vector<float> a(n), b(n);
  for (auto& x : a) x = static_cast<float>(rng.Normal());
  for (auto& x : b) x = static_cast<float>(rng.Normal());
  const float lhs = SquaredDistance(a.data(), b.data(), n);
  const float rhs = SquaredNorm(a.data(), n) + SquaredNorm(b.data(), n) -
                    2.0f * Dot(a.data(), b.data(), n);
  EXPECT_NEAR(lhs, rhs, 1e-3f * (1.0f + std::abs(rhs)));
}

INSTANTIATE_TEST_SUITE_P(Dims, VecDimensionSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 16, 32, 33, 64,
                                           128, 257));

}  // namespace
}  // namespace mars
