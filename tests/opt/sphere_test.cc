#include "opt/sphere.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vec.h"
#include "opt/sgd.h"

namespace mars {
namespace {

std::vector<float> RandomUnit(Rng* rng, size_t n) {
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(rng->Normal());
  NormalizeInPlace(x.data(), n);
  return x;
}

TEST(SphereTest, TangentProjectionIsOrthogonal) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    auto x = RandomUnit(&rng, 8);
    std::vector<float> g(8);
    for (auto& v : g) v = static_cast<float>(rng.Normal());
    TangentProject(x.data(), g.data(), 8);
    EXPECT_NEAR(Dot(x.data(), g.data(), 8), 0.0f, 1e-5f);
  }
}

TEST(SphereTest, TangentProjectionIsIdempotent) {
  Rng rng(2);
  auto x = RandomUnit(&rng, 16);
  std::vector<float> g(16);
  for (auto& v : g) v = static_cast<float>(rng.Normal());
  TangentProject(x.data(), g.data(), 16);
  std::vector<float> g2 = g;
  TangentProject(x.data(), g2.data(), 16);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(g[i], g2[i], 1e-5f);
  }
}

TEST(SphereTest, RetractionKeepsUnitNorm) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    auto x = RandomUnit(&rng, 8);
    std::vector<float> z(8);
    for (auto& v : z) v = static_cast<float>(rng.Normal(0.0, 0.3));
    ASSERT_TRUE(Retract(x.data(), z.data(), 8));
    EXPECT_NEAR(Norm(x.data(), 8), 1.0f, 1e-5f);
  }
}

TEST(SphereTest, RetractionWithZeroStepIsIdentity) {
  Rng rng(4);
  auto x = RandomUnit(&rng, 8);
  const auto before = x;
  std::vector<float> z(8, 0.0f);
  ASSERT_TRUE(Retract(x.data(), z.data(), 8));
  for (size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], before[i], 1e-6f);
}

TEST(SphereTest, DegenerateRetractionRejected) {
  std::vector<float> x = {1.0f, 0.0f};
  std::vector<float> z = {-1.0f, 0.0f};  // x + z = 0
  EXPECT_FALSE(Retract(x.data(), z.data(), 2));
  // x restored.
  EXPECT_FLOAT_EQ(x[0], 1.0f);
  EXPECT_FLOAT_EQ(x[1], 0.0f);
}

TEST(SphereTest, CalibrationFactorRange) {
  // For unit x, factor = 1 + cos(angle(x, g)) ∈ [0, 2].
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    auto x = RandomUnit(&rng, 8);
    std::vector<float> g(8);
    for (auto& v : g) v = static_cast<float>(rng.Normal());
    const float f = CalibrationFactor(x.data(), g.data(), 8);
    EXPECT_GE(f, -1e-5f);
    EXPECT_LE(f, 2.0f + 1e-5f);
  }
}

TEST(SphereTest, CalibrationFactorExtremes) {
  std::vector<float> x = {1.0f, 0.0f};
  std::vector<float> aligned = {2.0f, 0.0f};
  std::vector<float> opposed = {-3.0f, 0.0f};
  std::vector<float> orthogonal = {0.0f, 5.0f};
  EXPECT_NEAR(CalibrationFactor(x.data(), aligned.data(), 2), 2.0f, 1e-6f);
  EXPECT_NEAR(CalibrationFactor(x.data(), opposed.data(), 2), 0.0f, 1e-6f);
  EXPECT_NEAR(CalibrationFactor(x.data(), orthogonal.data(), 2), 1.0f, 1e-6f);
}

TEST(SphereTest, CalibrationFactorZeroGradient) {
  std::vector<float> x = {1.0f, 0.0f};
  std::vector<float> zero = {0.0f, 0.0f};
  EXPECT_FLOAT_EQ(CalibrationFactor(x.data(), zero.data(), 2), 1.0f);
}

TEST(SphereTest, RsgdStepStaysOnSphere) {
  Rng rng(6);
  auto x = RandomUnit(&rng, 16);
  std::vector<float> scratch(16);
  for (int step = 0; step < 100; ++step) {
    std::vector<float> g(16);
    for (auto& v : g) v = static_cast<float>(rng.Normal());
    RiemannianSgdStep(x.data(), g.data(), 0.1f, 16, scratch.data(), true);
    ASSERT_NEAR(Norm(x.data(), 16), 1.0f, 1e-4f) << "step " << step;
  }
}

// Maximizing <x, target> on the sphere: gradient of the loss -<x,t> is -t.
class RsgdConvergence : public ::testing::TestWithParam<bool> {};

TEST_P(RsgdConvergence, ConvergesToTargetDirection) {
  // Note the calibrated variant anneals: the factor 1 + x·∇f/||∇f||
  // approaches 0 as x aligns with the target, so its tail convergence is
  // polynomial rather than exponential — hence the longer budget and the
  // slightly looser threshold.
  const bool calibrated = GetParam();
  Rng rng(7);
  auto x = RandomUnit(&rng, 8);
  auto target = RandomUnit(&rng, 8);
  std::vector<float> g(8), scratch(8);
  const int steps = calibrated ? 4000 : 500;
  for (int step = 0; step < steps; ++step) {
    for (size_t i = 0; i < 8; ++i) g[i] = -target[i];  // ∇(-<x,t>)
    RiemannianSgdStep(x.data(), g.data(), 0.05f, 8, scratch.data(),
                      calibrated);
  }
  EXPECT_GT(Dot(x.data(), target.data(), 8), calibrated ? 0.95f : 0.99f);
}

INSTANTIATE_TEST_SUITE_P(Both, RsgdConvergence, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Calibrated" : "Plain";
                         });

TEST(SphereTest, CalibratedConvergesFasterFromAntipode) {
  // Start nearly opposite to the target: the calibration factor is small
  // near the antipode but grows as the iterate turns toward the target,
  // matching the paper's Fig. 4 intuition. Both must converge; we check
  // the calibrated path is not slower in the tail.
  std::vector<float> target = {1.0f, 0.0f, 0.0f, 0.0f};
  auto run = [&](bool calibrated) {
    std::vector<float> x = {-0.95f, 0.3122f, 0.0f, 0.0f};
    NormalizeInPlace(x.data(), 4);
    std::vector<float> g(4), scratch(4);
    int steps = 0;
    while (Dot(x.data(), target.data(), 4) < 0.99f && steps < 10000) {
      for (size_t i = 0; i < 4; ++i) g[i] = -target[i];
      RiemannianSgdStep(x.data(), g.data(), 0.05f, 4, scratch.data(),
                        calibrated);
      ++steps;
    }
    return steps;
  };
  const int plain = run(false);
  const int calib = run(true);
  EXPECT_LT(plain, 10000);
  EXPECT_LT(calib, 10000);
}

class FusedStepEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(FusedStepEquivalence, MatchesComposedPath) {
  // The fused kernel must reproduce the composed TangentProject +
  // CalibrationFactor + Retract step to float rounding across dims that
  // exercise both the unrolled body and the scalar tail.
  const bool calibrated = GetParam();
  Rng rng(42);
  for (size_t n : {2u, 7u, 8u, 16u, 33u, 128u}) {
    for (int trial = 0; trial < 20; ++trial) {
      auto x_ref = RandomUnit(&rng, n);
      auto x_fused = x_ref;
      std::vector<float> g(n), scratch(n);
      for (auto& v : g) v = static_cast<float>(rng.Normal());
      RiemannianSgdStep(x_ref.data(), g.data(), 0.05f, n, scratch.data(),
                        calibrated);
      ASSERT_TRUE(
          FusedRiemannianSgdStep(x_fused.data(), g.data(),
                                 SquaredNorm(g.data(), n), 0.05f, n,
                                 calibrated));
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x_fused[i], x_ref[i], 1e-5f)
            << "n=" << n << " trial=" << trial << " i=" << i;
      }
    }
  }
}

TEST_P(FusedStepEquivalence, MatchesComposedPathOverTrajectory) {
  // Rounding must not diverge over many consecutive steps either.
  const bool calibrated = GetParam();
  Rng rng(43);
  auto x_ref = RandomUnit(&rng, 24);
  auto x_fused = x_ref;
  std::vector<float> g(24), scratch(24);
  for (int step = 0; step < 200; ++step) {
    for (auto& v : g) v = static_cast<float>(rng.Normal());
    RiemannianSgdStep(x_ref.data(), g.data(), 0.05f, 24, scratch.data(),
                      calibrated);
    FusedRiemannianSgdStep(x_fused.data(), g.data(), SquaredNorm(g.data(), 24),
                           0.05f, 24, calibrated);
  }
  for (size_t i = 0; i < 24; ++i) {
    EXPECT_NEAR(x_fused[i], x_ref[i], 1e-4f);
  }
  EXPECT_NEAR(Norm(x_fused.data(), 24), 1.0f, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Both, FusedStepEquivalence, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Calibrated" : "Plain";
                         });

TEST(SphereTest, FusedStepStaysOnSphere) {
  Rng rng(44);
  auto x = RandomUnit(&rng, 16);
  for (int step = 0; step < 100; ++step) {
    std::vector<float> g(16);
    for (auto& v : g) v = static_cast<float>(rng.Normal());
    FusedRiemannianSgdStep(x.data(), g.data(), SquaredNorm(g.data(), 16), 0.1f,
                           16, true);
    ASSERT_NEAR(Norm(x.data(), 16), 1.0f, 1e-4f) << "step " << step;
  }
}

TEST(SphereTest, FusedStepRadialGradientIsNoop) {
  // A purely radial gradient is annihilated by the tangent projection; the
  // fused step must reduce to a renormalization, like the composed path.
  std::vector<float> x = {1.0f, 0.0f};
  std::vector<float> g = {20.0f, 0.0f};
  EXPECT_TRUE(FusedRiemannianSgdStep(x.data(), g.data(),
                                     SquaredNorm(g.data(), 2), 0.05f, 2,
                                     false));
  EXPECT_NEAR(x[0], 1.0f, 1e-6f);
  EXPECT_NEAR(x[1], 0.0f, 1e-6f);
}

TEST(SphereTest, FusedStepRenormalizesLikeRetract) {
  // Zero gradient on a non-unit point: Retract(x, 0) renormalizes; the
  // fused kernel must do the same.
  std::vector<float> x = {2.0f, 0.0f};
  std::vector<float> g = {0.0f, 0.0f};
  EXPECT_TRUE(FusedRiemannianSgdStep(x.data(), g.data(),
                                     SquaredNorm(g.data(), 2), 0.1f, 2, true));
  EXPECT_NEAR(x[0], 1.0f, 1e-6f);
  EXPECT_NEAR(x[1], 0.0f, 1e-6f);
}

TEST(SphereTest, FusedStepDegenerateRejected) {
  // x = 0 and g = 0 leaves nothing to retract onto the sphere: the kernel
  // must refuse and leave x untouched (mirrors Retract's degenerate case).
  std::vector<float> x = {0.0f, 0.0f};
  std::vector<float> g = {0.0f, 0.0f};
  EXPECT_FALSE(FusedRiemannianSgdStep(x.data(), g.data(),
                                      SquaredNorm(g.data(), 2), 0.1f, 2,
                                      true));
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_FLOAT_EQ(x[1], 0.0f);
}

TEST(SphereTest, ZeroGradientIsNoop) {
  Rng rng(8);
  auto x = RandomUnit(&rng, 8);
  const auto before = x;
  std::vector<float> g(8, 0.0f), scratch(8);
  RiemannianSgdStep(x.data(), g.data(), 0.5f, 8, scratch.data(), true);
  for (size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], before[i], 1e-6f);
}

// ClippedRiemannianSgdSteps reduces each ||grad||² once and interleaves
// four rows; it must leave every row and every clipped gradient exactly
// as the composed per-row path does: ClipGradient, then the
// SquaredNorm(grad) > 0 test, then FusedRiemannianSgdStep. Nine rows make
// two full four-row chunks and a lone row; their kinds cover an ordinary
// step, a gradient above the clip, an all-zero gradient (no step) and a
// degenerate retraction (x = 0 with a tiny gradient: ||x + z|| < 1e-12,
// so x stays put).
TEST(ClippedRiemannianSgdStepsTest, MatchesClipThenFusedStepBitForBit) {
  enum Kind { kPlain, kOverClip, kZero, kDegenerate };
  const Kind kinds[] = {kPlain, kOverClip, kPlain,      kOverClip, kZero,
                        kDegenerate, kPlain, kOverClip, kPlain};
  constexpr size_t kRows = sizeof(kinds) / sizeof(kinds[0]);
  for (const size_t n : {2u, 30u, 32u, 128u}) {
    for (const bool calibrated : {false, true}) {
      for (const float clip : {0.0f, 1.5f}) {
        Rng rng(1000 * n + 10 * calibrated + (clip > 0.0f));
        std::vector<std::vector<float>> x(kRows), g(kRows);
        for (size_t r = 0; r < kRows; ++r) {
          x[r] = RandomUnit(&rng, n);
          g[r].resize(n);
          for (auto& v : g[r]) v = static_cast<float>(rng.Normal());
          if (kinds[r] == kPlain) {
            Scale(0.5f / Norm(g[r].data(), n), g[r].data(), n);
          }
          if (kinds[r] == kOverClip) {
            Scale(3.0f / Norm(g[r].data(), n), g[r].data(), n);
          }
          if (kinds[r] == kZero) g[r].assign(n, 0.0f);
          if (kinds[r] == kDegenerate) {
            x[r].assign(n, 0.0f);
            g[r].assign(n, 1e-20f);
          }
        }
        auto x_ref = x;
        auto g_ref = g;
        std::vector<float*> xs, gs;
        for (size_t r = 0; r < kRows; ++r) {
          xs.push_back(x[r].data());
          gs.push_back(g[r].data());
          if (clip > 0.0f) {
            const float pre = ClipGradient(g_ref[r].data(), n, clip);
            if (kinds[r] == kOverClip) EXPECT_GT(pre, clip);
          }
          const float norm2 = SquaredNorm(g_ref[r].data(), n);
          if (norm2 > 0.0f) {
            const bool moved = FusedRiemannianSgdStep(
                x_ref[r].data(), g_ref[r].data(), norm2, 0.05f, n, calibrated);
            EXPECT_EQ(moved, kinds[r] != kDegenerate) << "row " << r;
          }
        }
        ClippedRiemannianSgdSteps(xs.data(), gs.data(), kRows, 0.05f, clip, n,
                                  calibrated);
        for (size_t r = 0; r < kRows; ++r) {
          for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(x[r][i], x_ref[r][i])
                << "n=" << n << " calibrated=" << calibrated
                << " clip=" << clip << " row=" << r << " i=" << i;
            EXPECT_EQ(g[r][i], g_ref[r][i])
                << "n=" << n << " calibrated=" << calibrated
                << " clip=" << clip << " row=" << r << " i=" << i;
          }
        }
        EXPECT_EQ(x[5], std::vector<float>(n, 0.0f))
            << "the degenerate row must stay put";
      }
    }
  }
}

}  // namespace
}  // namespace mars
