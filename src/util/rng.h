// Deterministic pseudo-random number generation.
//
// All stochastic components (graph generators, sample selection, SGD
// initialization) take an explicit Rng so experiments are reproducible from a
// single seed.
#ifndef RNE_UTIL_RNG_H_
#define RNE_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "util/macros.h"

namespace rne {

/// Seeded wrapper around std::mt19937_64 with convenience draws.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    RNE_DCHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n).
  size_t UniformIndex(size_t n) {
    RNE_DCHECK(n > 0);
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Uniform real in [lo, hi).
  double UniformReal(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal draw scaled by `stddev`.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Weighted index draw proportional to non-negative `weights`.
  /// At least one weight must be positive.
  size_t WeightedIndex(const std::vector<double>& weights) {
    RNE_DCHECK(!weights.empty());
    return std::discrete_distribution<size_t>(weights.begin(),
                                              weights.end())(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::span<T> v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[UniformIndex(i)]);
    }
  }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    Shuffle(std::span<T>(v));
  }

  /// Derives an independent child generator (for per-thread streams).
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace rne

#endif  // RNE_UTIL_RNG_H_
