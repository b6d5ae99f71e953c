// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (data generation, samplers,
// model initialization, SGD shuffling) draw from mars::Rng seeded
// explicitly, so every experiment is reproducible bit-for-bit across runs.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded via SplitMix64,
// which is fast, has a 2^256-1 period, and passes BigCrush.
#ifndef MARS_COMMON_RNG_H_
#define MARS_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mars {

/// Stateless SplitMix64 step; used for seeding and cheap hash-like mixing.
uint64_t SplitMix64(uint64_t* state);

/// Deterministic random number generator (xoshiro256**).
class Rng {
 public:
  /// Creates a generator whose stream is fully determined by `seed`.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller (cached spare value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Gamma(shape, 1) via Marsaglia-Tsang; `shape` > 0.
  double Gamma(double shape);

  /// Dirichlet sample with concentration `alpha` (size = alpha.size()).
  std::vector<double> Dirichlet(const std::vector<double>& alpha);

  /// Bernoulli draw with probability `p`.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle of `data`.
  template <typename T>
  void Shuffle(std::vector<T>* data) {
    if (data->size() < 2) return;
    for (size_t i = data->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*data)[i], (*data)[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace mars

#endif  // MARS_COMMON_RNG_H_
