#include "opt/sphere.h"

#include <algorithm>
#include <cmath>

#include "common/vec.h"

namespace mars {

void TangentProject(const float* x, float* grad, size_t n) {
  const float radial = Dot(x, grad, n);
  Axpy(-radial, x, grad, n);
}

bool Retract(float* x, const float* z, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] += z[i];
  if (!NormalizeInPlace(x, n)) {
    // Degenerate: x + z vanished; undo the additive part.
    for (size_t i = 0; i < n; ++i) x[i] -= z[i];
    return false;
  }
  return true;
}

float CalibrationFactor(const float* x, const float* grad, size_t n) {
  const float gnorm = Norm(grad, n);
  if (gnorm < 1e-12f) return 1.0f;
  return 1.0f + Dot(x, grad, n) / gnorm;
}

void RiemannianSgdStep(float* x, const float* grad, float lr, size_t n,
                       float* scratch, bool calibrated) {
  const float factor = calibrated ? CalibrationFactor(x, grad, n) : 1.0f;
  // scratch = (I - xxᵀ) grad
  Copy(grad, scratch, n);
  TangentProject(x, scratch, n);
  Scale(-lr * factor, scratch, n);
  Retract(x, scratch, n);
}

namespace {

using vec_detail::Lanes4;
using vec_detail::LoadLanes;
using vec_detail::SumLanes;

// The retraction argument of one row, x + z = cx·x + cg·∇f. With
//   radial = x·∇f,  f = 1 + radial/||∇f||  (calibration),
// cg = -η·f and cx = 1 - cg·radial, so the tangent step is never
// materialized.
struct Retraction {
  float cx, cg;
};

Retraction RetractionOf(float radial, float gnorm, float lr,
                        bool calibrated) {
  const float factor =
      (calibrated && gnorm >= 1e-12f) ? 1.0f + radial / gnorm : 1.0f;
  const float cg = -lr * factor;
  return {1.0f - cg * radial, cg};
}

inline Lanes4 CombinedLanes(const float* x, const float* g, Retraction c,
                            size_t i) {
  return c.cx * LoadLanes(x + i) + c.cg * LoadLanes(g + i);
}

// ||cx·x + cg·∇f||², a same-order reduction (common/vec.h). Read-only,
// so a degenerate step can bail out without clobbering x.
float RetractionNorm2(const float* x, const float* g, Retraction c,
                      size_t n) {
  const size_t body = n - n % 4;
  Lanes4 acc = {};
  for (size_t i = 0; i < body; i += 4) {
    const Lanes4 y = CombinedLanes(x, g, c, i);
    acc += y * y;
  }
  float s = SumLanes(acc);
  for (size_t i = body; i < n; ++i) {
    const float y = c.cx * x[i] + c.cg * g[i];
    s += y * y;
  }
  return s;
}

// Four RetractionNorm2 reductions interleaved; out[j] is bit-identical to
// RetractionNorm2(x[j], g[j], c[j], n).
void RetractionNorm2X4(const float* const* x, const float* const* g,
                       const Retraction* c, size_t n, float* out) {
  const size_t body = n - n % 4;
  Lanes4 acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
  for (size_t i = 0; i < body; i += 4) {
    const Lanes4 y0 = CombinedLanes(x[0], g[0], c[0], i);
    const Lanes4 y1 = CombinedLanes(x[1], g[1], c[1], i);
    const Lanes4 y2 = CombinedLanes(x[2], g[2], c[2], i);
    const Lanes4 y3 = CombinedLanes(x[3], g[3], c[3], i);
    acc0 += y0 * y0;
    acc1 += y1 * y1;
    acc2 += y2 * y2;
    acc3 += y3 * y3;
  }
  float s[4] = {SumLanes(acc0), SumLanes(acc1), SumLanes(acc2),
                SumLanes(acc3)};
  for (size_t m = 0; m < 4; ++m) {
    for (size_t i = body; i < n; ++i) {
      const float y = c[m].cx * x[m][i] + c[m].cg * g[m][i];
      s[m] += y * y;
    }
    out[m] = s[m];
  }
}

// x ← (cx·x + cg·∇f)/||cx·x + cg·∇f|| given that squared norm; false
// (x untouched) when it vanishes.
bool RetractRow(float* __restrict x, const float* __restrict g,
                Retraction c, float norm2, size_t n) {
  const float norm = std::sqrt(norm2);
  if (norm < 1e-12f) return false;
  const float inv = 1.0f / norm;
  const float ax = c.cx * inv;
  const float ag = c.cg * inv;
  for (size_t i = 0; i < n; ++i) x[i] = ax * x[i] + ag * g[i];
  return true;
}

}  // namespace

bool FusedRiemannianSgdStep(float* x, const float* grad, float grad_norm2,
                            float lr, size_t n, bool calibrated) {
  const Retraction c = RetractionOf(Dot(x, grad, n), std::sqrt(grad_norm2),
                                    lr, calibrated);
  return RetractRow(x, grad, c, RetractionNorm2(x, grad, c, n), n);
}

void ClippedRiemannianSgdSteps(float* const* xs, float* const* grads,
                               size_t rows, float lr, float clip, size_t n,
                               bool calibrated) {
  constexpr size_t kChunk = 4;
  for (size_t r0 = 0; r0 < rows; r0 += kChunk) {
    const size_t m = std::min(kChunk, rows - r0);
    float* const* x = xs + r0;
    float* const* g = grads + r0;
    // ||∇f||² and then x·∇f of every row in the chunk, interleaved.
    const float* lhs[2 * kChunk];
    const float* rhs[2 * kChunk];
    float dots[2 * kChunk];
    for (size_t j = 0; j < m; ++j) {
      lhs[j] = g[j];
      rhs[j] = g[j];
      lhs[m + j] = x[j];
      rhs[m + j] = g[j];
    }
    DotMany(lhs, rhs, 2 * m, n, dots);

    // Clip exactly as ClipGradient does, then keep the rows whose
    // clipped gradient is nonzero. ||∇f|| serves both the clip test and
    // the calibration.
    float* live_x[kChunk];
    float* live_g[kChunk];
    Retraction coeffs[kChunk];
    size_t num_live = 0;
    for (size_t j = 0; j < m; ++j) {
      float norm2 = dots[j];
      float radial = dots[m + j];
      float gnorm = std::sqrt(norm2);
      if (clip > 0.0f && gnorm > clip && gnorm > 0.0f) {
        Scale(clip / gnorm, g[j], n);
        norm2 = SquaredNorm(g[j], n);
        radial = Dot(x[j], g[j], n);
        gnorm = std::sqrt(norm2);
      }
      if (!(norm2 > 0.0f)) continue;
      live_x[num_live] = x[j];
      live_g[num_live] = g[j];
      coeffs[num_live] = RetractionOf(radial, gnorm, lr, calibrated);
      ++num_live;
    }

    float norms2[kChunk];
    if (num_live == kChunk) {
      RetractionNorm2X4(live_x, live_g, coeffs, n, norms2);
    } else {
      for (size_t q = 0; q < num_live; ++q) {
        norms2[q] = RetractionNorm2(live_x[q], live_g[q], coeffs[q], n);
      }
    }
    for (size_t q = 0; q < num_live; ++q) {
      RetractRow(live_x[q], live_g[q], coeffs[q], norms2[q], n);
    }
  }
}

}  // namespace mars
