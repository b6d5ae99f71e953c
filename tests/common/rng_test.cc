#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace mars {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(99);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(5);
  for (uint64_t n : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformInt(n), n);
    }
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntIsUnbiased) {
  Rng rng(13);
  const uint64_t n = 7;
  std::vector<int> counts(n, 0);
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.UniformInt(n)];
  for (uint64_t v = 0; v < n; ++v) {
    EXPECT_NEAR(counts[v] / static_cast<double>(draws), 1.0 / n, 0.01);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalShiftScale) {
  Rng rng(23);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, GammaIsPositiveAndHasRightMean) {
  Rng rng(29);
  for (double shape : {0.3, 1.0, 2.5, 7.0}) {
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      const double g = rng.Gamma(shape);
      ASSERT_GT(g, 0.0);
      sum += g;
    }
    // Gamma(shape, 1) has mean = shape.
    EXPECT_NEAR(sum / n, shape, shape * 0.05) << "shape=" << shape;
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    const auto p = rng.Dirichlet({0.4, 0.4, 0.4, 0.4});
    double sum = std::accumulate(p.begin(), p.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (double x : p) EXPECT_GE(x, 0.0);
  }
}

TEST(RngTest, DirichletSparseConcentratesMass) {
  Rng rng(37);
  // With small alpha most draws should put > 50% mass on one component.
  int concentrated = 0;
  for (int i = 0; i < 200; ++i) {
    const auto p = rng.Dirichlet({0.1, 0.1, 0.1, 0.1});
    if (*std::max_element(p.begin(), p.end()) > 0.5) ++concentrated;
  }
  EXPECT_GT(concentrated, 120);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(41);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(43);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(RngTest, ShuffleChangesOrder) {
  Rng rng(47);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, original);
}

TEST(RngTest, SplitMix64Advances) {
  uint64_t s = 0;
  const uint64_t a = SplitMix64(&s);
  const uint64_t b = SplitMix64(&s);
  EXPECT_NE(a, b);
  EXPECT_EQ(s, 2 * 0x9E3779B97F4A7C15ULL);
}

class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanStableAcrossSeeds) {
  Rng rng(GetParam());
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 12345ULL,
                                           0xFFFFFFFFFFFFFFFFULL));

}  // namespace
}  // namespace mars
