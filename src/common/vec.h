// Dense single-precision vector kernels.
//
// These are the hot-loop primitives every model in the library is built on:
// dot products, squared distances, AXPY updates, normalization, cosine
// similarity. All functions operate on raw float spans so embedding tables
// can be stored as flat contiguous arrays (cache-friendly, allocation-free
// in the training loop).
#ifndef MARS_COMMON_VEC_H_
#define MARS_COMMON_VEC_H_

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

namespace mars {

// --- Same-order reductions ----------------------------------------------
//
// Dot, SquaredNorm, Norm and DotMany reduce in one fixed order, so any two
// of them over the same floats agree bit for bit, whoever calls them:
//
//  * four lane accumulators: lane j sums a[i]·b[i] over i ≡ j (mod 4) for
//    the first 4·⌊n/4⌋ elements, each product rounded before its add;
//  * the lanes finished as (acc0 + acc1) + (acc2 + acc3);
//  * the n mod 4 tail elements then added one at a time.
//
// The lanes are a GCC/Clang vector type, so on x86-64 each four elements
// cost one SSE multiply and one add, and the reductions inline into the
// training step (opt/sphere.h, core/mars.cc) instead of costing a call
// each. No FMA contraction: the x86-64 baseline has no FMA, so a product
// and its sum round separately. A function compiled for FMA
// (MARS_AVX2_FN, common/kernels_detail.h) may contract `acc += a * b`
// into one rounding, so no same-order reduction may be inlined into one.

namespace vec_detail {

/// Four float lanes; arithmetic on them is lane-wise.
typedef float Lanes4 __attribute__((vector_size(16)));

inline Lanes4 LoadLanes(const float* p) {
  Lanes4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// The lane finish of every same-order reduction.
inline float SumLanes(Lanes4 v) { return (v[0] + v[1]) + (v[2] + v[3]); }

}  // namespace vec_detail

/// Dot product <a, b> over `n` elements (same-order reduction).
inline float Dot(const float* a, const float* b, size_t n) {
  const size_t body = n - n % 4;
  vec_detail::Lanes4 acc = {};
  for (size_t i = 0; i < body; i += 4) {
    acc += vec_detail::LoadLanes(a + i) * vec_detail::LoadLanes(b + i);
  }
  float s = vec_detail::SumLanes(acc);
  for (size_t i = body; i < n; ++i) s += a[i] * b[i];
  return s;
}

/// out[j] = Dot(a[j], b[j], n) for j < count, bit for bit. Four
/// reductions run interleaved per pass, so their add chains overlap
/// instead of waiting on each other.
inline void DotMany(const float* const* a, const float* const* b,
                    size_t count, size_t n, float* out) {
  using vec_detail::LoadLanes;
  const size_t body = n - n % 4;
  const size_t quads = count - count % 4;
  for (size_t j = 0; j < quads; j += 4) {
    const float* const* aj = a + j;
    const float* const* bj = b + j;
    vec_detail::Lanes4 acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
    for (size_t i = 0; i < body; i += 4) {
      acc0 += LoadLanes(aj[0] + i) * LoadLanes(bj[0] + i);
      acc1 += LoadLanes(aj[1] + i) * LoadLanes(bj[1] + i);
      acc2 += LoadLanes(aj[2] + i) * LoadLanes(bj[2] + i);
      acc3 += LoadLanes(aj[3] + i) * LoadLanes(bj[3] + i);
    }
    float s[4] = {vec_detail::SumLanes(acc0), vec_detail::SumLanes(acc1),
                  vec_detail::SumLanes(acc2), vec_detail::SumLanes(acc3)};
    for (size_t m = 0; m < 4; ++m) {
      for (size_t i = body; i < n; ++i) s[m] += aj[m][i] * bj[m][i];
      out[j + m] = s[m];
    }
  }
  for (size_t j = quads; j < count; ++j) out[j] = Dot(a[j], b[j], n);
}

/// Squared norm ||a||^2 (same-order reduction: Dot(a, a, n)).
inline float SquaredNorm(const float* a, size_t n) { return Dot(a, a, n); }

/// Euclidean norm ||a||.
inline float Norm(const float* a, size_t n) {
  return std::sqrt(SquaredNorm(a, n));
}

/// Squared Euclidean distance ||a - b||^2.
float SquaredDistance(const float* a, const float* b, size_t n);

/// a += alpha * b.
void Axpy(float alpha, const float* b, float* a, size_t n);

/// a *= alpha.
void Scale(float alpha, float* a, size_t n);

/// out = a - b.
void Sub(const float* a, const float* b, float* out, size_t n);

/// out = a + b.
void Add(const float* a, const float* b, float* out, size_t n);

/// out = a (copy).
void Copy(const float* a, float* out, size_t n);

/// Sets all elements to `value`.
void Fill(float value, float* a, size_t n);

/// Elementwise product out = a ⊙ b.
void Hadamard(const float* a, const float* b, float* out, size_t n);

/// Cosine similarity <a,b>/(||a||·||b||); returns 0 if either norm is ~0.
float Cosine(const float* a, const float* b, size_t n);

/// Rescales `a` to unit norm in place. No-op (returns false) if ||a|| ~ 0.
bool NormalizeInPlace(float* a, size_t n);

/// Projects `a` onto the unit ball: if ||a|| > 1, rescale to norm 1.
/// Returns true if a rescale happened. This is the CML-style constraint.
bool ProjectToUnitBall(float* a, size_t n);

/// Numerically-stable softmax of `logits` into `out` (sizes must match).
void Softmax(const float* logits, float* out, size_t n);

/// Logistic sigmoid 1/(1+exp(-x)), numerically stable.
double Sigmoid(double x);

/// Convenience overloads on std::vector<float>.
float Dot(const std::vector<float>& a, const std::vector<float>& b);
float SquaredDistance(const std::vector<float>& a,
                      const std::vector<float>& b);
float Cosine(const std::vector<float>& a, const std::vector<float>& b);

}  // namespace mars

#endif  // MARS_COMMON_VEC_H_
