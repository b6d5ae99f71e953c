#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace mars {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (int i = 0; i < 4; ++i) s_[i] = SplitMix64(&sm);
  // xoshiro must not be seeded with all zeros; SplitMix64 of any seed cannot
  // produce four zero words, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  MARS_DCHECK(lo <= hi);
  return lo + (hi - lo) * Uniform();
}

uint64_t Rng::UniformInt(uint64_t n) {
  MARS_CHECK(n > 0);
  // Lemire-style rejection to avoid modulo bias.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::Gamma(double shape) {
  MARS_CHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
    const double u = Uniform();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 1e-300 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v;
  }
}

std::vector<double> Rng::Dirichlet(const std::vector<double>& alpha) {
  MARS_CHECK(!alpha.empty());
  std::vector<double> out(alpha.size());
  double sum = 0.0;
  for (size_t i = 0; i < alpha.size(); ++i) {
    out[i] = Gamma(alpha[i]);
    sum += out[i];
  }
  if (sum <= 0.0) {
    // Degenerate draw (all gammas underflowed); fall back to uniform.
    for (double& x : out) x = 1.0 / static_cast<double>(out.size());
    return out;
  }
  for (double& x : out) x /= sum;
  return out;
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

}  // namespace mars
