#include "common/vec.h"

#include <cmath>
#include <cstring>

#include "common/check.h"

namespace mars {

float SquaredDistance(const float* a, const float* b, size_t n) {
  float acc0 = 0.0f, acc1 = 0.0f;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
  }
  float acc = acc0 + acc1;
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void Axpy(float alpha, const float* b, float* a, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a[i] += alpha * b[i];
    a[i + 1] += alpha * b[i + 1];
    a[i + 2] += alpha * b[i + 2];
    a[i + 3] += alpha * b[i + 3];
  }
  for (; i < n; ++i) a[i] += alpha * b[i];
}

void Scale(float alpha, float* a, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] *= alpha;
}

void Sub(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void Add(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void Copy(const float* a, float* out, size_t n) {
  std::memcpy(out, a, n * sizeof(float));
}

void Fill(float value, float* a, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] = value;
}

void Hadamard(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

float Cosine(const float* a, const float* b, size_t n) {
  // One fused traversal: dot and both squared norms share the loads.
  float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
  float p0 = 0.0f, p1 = 0.0f, p2 = 0.0f, p3 = 0.0f;
  float q0 = 0.0f, q1 = 0.0f, q2 = 0.0f, q3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float a0 = a[i], a1 = a[i + 1], a2 = a[i + 2], a3 = a[i + 3];
    const float b0 = b[i], b1 = b[i + 1], b2 = b[i + 2], b3 = b[i + 3];
    d0 += a0 * b0;
    d1 += a1 * b1;
    d2 += a2 * b2;
    d3 += a3 * b3;
    p0 += a0 * a0;
    p1 += a1 * a1;
    p2 += a2 * a2;
    p3 += a3 * a3;
    q0 += b0 * b0;
    q1 += b1 * b1;
    q2 += b2 * b2;
    q3 += b3 * b3;
  }
  float dot = (d0 + d1) + (d2 + d3);
  float na2 = (p0 + p1) + (p2 + p3);
  float nb2 = (q0 + q1) + (q2 + q3);
  for (; i < n; ++i) {
    dot += a[i] * b[i];
    na2 += a[i] * a[i];
    nb2 += b[i] * b[i];
  }
  const float na = std::sqrt(na2);
  const float nb = std::sqrt(nb2);
  if (na < 1e-12f || nb < 1e-12f) return 0.0f;
  return dot / (na * nb);
}

bool NormalizeInPlace(float* a, size_t n) {
  const float norm = Norm(a, n);
  if (norm < 1e-12f) return false;
  Scale(1.0f / norm, a, n);
  return true;
}

bool ProjectToUnitBall(float* a, size_t n) {
  const float norm = Norm(a, n);
  if (norm <= 1.0f) return false;
  Scale(1.0f / norm, a, n);
  return true;
}

void Softmax(const float* logits, float* out, size_t n) {
  MARS_CHECK(n > 0);
  float max_logit = logits[0];
  for (size_t i = 1; i < n; ++i) max_logit = std::max(max_logit, logits[i]);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    out[i] = std::exp(static_cast<double>(logits[i] - max_logit));
    sum += out[i];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (size_t i = 0; i < n; ++i) out[i] *= inv;
}

double Sigmoid(double x) {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

float Dot(const std::vector<float>& a, const std::vector<float>& b) {
  MARS_CHECK(a.size() == b.size());
  return Dot(a.data(), b.data(), a.size());
}

float SquaredDistance(const std::vector<float>& a,
                      const std::vector<float>& b) {
  MARS_CHECK(a.size() == b.size());
  return SquaredDistance(a.data(), b.data(), a.size());
}

float Cosine(const std::vector<float>& a, const std::vector<float>& b) {
  MARS_CHECK(a.size() == b.size());
  return Cosine(a.data(), b.data(), a.size());
}

}  // namespace mars
