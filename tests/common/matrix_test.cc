#include "common/matrix.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vec.h"

namespace mars {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(m.At(r, c), 0.0f);
    }
  }
  m.At(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.Row(1)[2], 5.0f);
}

TEST(MatrixTest, ValueConstructorFills) {
  Matrix m(2, 2, 3.5f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 3.5f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 3.5f);
}

TEST(MatrixTest, FillNormalHasRightMoments) {
  Rng rng(1);
  Matrix m(100, 100);
  m.FillNormal(&rng, 2.0f, 0.5f);
  double sum = 0.0;
  for (size_t i = 0; i < m.size(); ++i) sum += m.data()[i];
  EXPECT_NEAR(sum / m.size(), 2.0, 0.02);
}

TEST(MatrixTest, FillUniformRespectsBounds) {
  Rng rng(2);
  Matrix m(50, 50);
  m.FillUniform(&rng, -1.0f, 1.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], -1.0f);
    EXPECT_LT(m.data()[i], 1.0f);
  }
}

TEST(MatrixTest, IdentityPlusNoiseIsNearIdentity) {
  Rng rng(3);
  Matrix m(8, 8);
  m.FillIdentityPlusNoise(&rng, 0.01f);
  for (size_t r = 0; r < 8; ++r) {
    for (size_t c = 0; c < 8; ++c) {
      const float expected = r == c ? 1.0f : 0.0f;
      EXPECT_NEAR(m.At(r, c), expected, 0.1f);
    }
  }
}

TEST(MatrixTest, GemvBasic) {
  // M = [[1,2],[3,4],[5,6]] (3×2), x = [1,1] → Mx = [3,7,11].
  Matrix m(3, 2);
  m.At(0, 0) = 1;
  m.At(0, 1) = 2;
  m.At(1, 0) = 3;
  m.At(1, 1) = 4;
  m.At(2, 0) = 5;
  m.At(2, 1) = 6;
  const std::vector<float> x = {1, 1};
  std::vector<float> y(3);
  Gemv(m, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 3);
  EXPECT_FLOAT_EQ(y[1], 7);
  EXPECT_FLOAT_EQ(y[2], 11);
}

TEST(MatrixTest, GemvTransposedBasic) {
  // Mᵀ x with M as above and x = [1,1,1] → [9, 12].
  Matrix m(3, 2);
  m.At(0, 0) = 1;
  m.At(0, 1) = 2;
  m.At(1, 0) = 3;
  m.At(1, 1) = 4;
  m.At(2, 0) = 5;
  m.At(2, 1) = 6;
  const std::vector<float> x = {1, 1, 1};
  std::vector<float> y(2);
  GemvTransposed(m, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 9);
  EXPECT_FLOAT_EQ(y[1], 12);
}

TEST(MatrixTest, GemvTransposedMatchesRowByRowAxpyBits) {
  // GemvTransposed sums in column blocks of 16, 8, 4 and 1; every width
  // up to 41 must give the bits of adding x[r]·row r into a zeroed output
  // in row order (Axpy per row, zero x[r] skipped).
  for (size_t cols = 1; cols <= 41; ++cols) {
    Rng rng(1000 + cols);
    Matrix m(9, cols);
    m.FillNormal(&rng, 0.0f, 1.0f);
    std::vector<float> x(9);
    for (auto& v : x) v = static_cast<float>(rng.Normal());
    x[3] = 0.0f;
    std::vector<float> want(cols, 0.0f), got(cols, -1.0f);
    for (size_t r = 0; r < 9; ++r) {
      if (x[r] != 0.0f) Axpy(x[r], m.Row(r), want.data(), cols);
    }
    GemvTransposed(m, x.data(), got.data());
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(got[c], want[c]) << "cols=" << cols << " c=" << c;
    }
  }
}

TEST(MatrixTest, GemvAndTransposedAreAdjoint) {
  // <Mx, y> == <x, Mᵀy> for random matrices.
  Rng rng(4);
  Matrix m(7, 5);
  m.FillNormal(&rng, 0.0f, 1.0f);
  std::vector<float> x(5), y(7), mx(7), mty(5);
  for (auto& v : x) v = static_cast<float>(rng.Normal());
  for (auto& v : y) v = static_cast<float>(rng.Normal());
  Gemv(m, x.data(), mx.data());
  GemvTransposed(m, y.data(), mty.data());
  EXPECT_NEAR(Dot(mx.data(), y.data(), 7), Dot(x.data(), mty.data(), 5),
              1e-3f);
}

TEST(MatrixTest, AddOuterProduct) {
  Matrix m(2, 2);
  const std::vector<float> x = {1, 2};
  const std::vector<float> y = {3, 4};
  AddOuterProduct(2.0f, x.data(), y.data(), &m);
  EXPECT_FLOAT_EQ(m.At(0, 0), 6);
  EXPECT_FLOAT_EQ(m.At(0, 1), 8);
  EXPECT_FLOAT_EQ(m.At(1, 0), 12);
  EXPECT_FLOAT_EQ(m.At(1, 1), 16);
}

TEST(MatrixTest, GramMatchesDefinition) {
  Rng rng(5);
  Matrix a(6, 3);
  a.FillNormal(&rng, 0.0f, 1.0f);
  Matrix g(3, 3);
  Gram(a, &g);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      float expect = 0.0f;
      for (size_t r = 0; r < 6; ++r) expect += a.At(r, i) * a.At(r, j);
      EXPECT_NEAR(g.At(i, j), expect, 1e-4f);
    }
  }
  // Symmetry.
  EXPECT_NEAR(g.At(0, 1), g.At(1, 0), 1e-5f);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(2, 2);
  m.At(0, 0) = 3;
  m.At(1, 1) = 4;
  EXPECT_FLOAT_EQ(m.FrobeniusNorm(), 5.0f);
}

}  // namespace
}  // namespace mars
