#ifndef AMS_UTIL_RNG_H_
#define AMS_UTIL_RNG_H_

#include <array>
#include <cstdint>
#include <vector>

namespace ams::util {

/// One step of the SplitMix64 generator; used for seeding and hashing.
uint64_t SplitMix64(uint64_t* state);

/// Deterministically mixes two 64-bit values into one (order-sensitive).
uint64_t HashCombine(uint64_t a, uint64_t b);

/// Deterministic, seedable pseudo-random generator (xoshiro256**).
///
/// All stochastic behaviour in the library flows through this class so that
/// datasets, model outputs and training runs replay bit-exactly for a seed.
/// Not thread-safe; give each thread its own instance (seeded, say, with
/// HashCombine(seed, thread_index)).
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  int UniformInt(int lo, int hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Gaussian sample (Box–Muller, spare cached).
  double Normal(double mean, double stddev);

  /// Log-normal sample parameterized by the underlying normal's mu/sigma.
  double LogNormal(double mu, double sigma);

  /// Samples an index proportionally to `weights` (must be non-negative,
  /// not all zero). Linear scan; fine for the few hundred categories we use.
  int Categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (int i = static_cast<int>(v->size()) - 1; i > 0; --i) {
      int j = UniformInt(0, i);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n).
  std::vector<int> SampleWithoutReplacement(int n, int k);

 private:
  std::array<uint64_t, 4> s_;
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

/// Cumulative-weight categorical distribution with O(log n) sampling.
/// Use when the same weight vector is sampled many times.
class DiscreteDistribution {
 public:
  DiscreteDistribution() = default;
  explicit DiscreteDistribution(const std::vector<double>& weights);

  /// Samples an index in [0, size()).
  int Sample(Rng* rng) const;

  int size() const { return static_cast<int>(cumulative_.size()); }

  /// Probability mass of index i.
  double Probability(int i) const;

 private:
  std::vector<double> cumulative_;  // normalized, strictly increasing to 1.0
};

/// Weights for a Zipf-like distribution over n categories with exponent s.
/// Heavier heads model natural label frequencies (a few categories dominate).
std::vector<double> ZipfWeights(int n, double s);

}  // namespace ams::util

#endif  // AMS_UTIL_RNG_H_
