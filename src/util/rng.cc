#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace ams::util {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  uint64_t state = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  uint64_t h = SplitMix64(&state);
  return h ^ (b << 1);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
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

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  AMS_DCHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

int Rng::UniformInt(int lo, int hi) {
  AMS_DCHECK(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  return lo + static_cast<int>(NextU64() % range);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Normal(double mean, double stddev) {
  if (has_spare_) {
    has_spare_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586;
  spare_normal_ = mag * std::sin(two_pi * u2);
  has_spare_ = true;
  return mean + stddev * mag * std::cos(two_pi * u2);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

int Rng::Categorical(const std::vector<double>& weights) {
  AMS_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    AMS_DCHECK(w >= 0.0);
    total += w;
  }
  AMS_CHECK(total > 0.0, "all categorical weights are zero");
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  AMS_CHECK(k >= 0 && k <= n);
  std::vector<int> all(n);
  std::iota(all.begin(), all.end(), 0);
  // Partial Fisher–Yates: the first k slots become the sample.
  for (int i = 0; i < k; ++i) {
    int j = UniformInt(i, n - 1);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

DiscreteDistribution::DiscreteDistribution(const std::vector<double>& weights) {
  AMS_CHECK(!weights.empty());
  cumulative_.resize(weights.size());
  double total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    AMS_CHECK(weights[i] >= 0.0, "negative weight");
    total += weights[i];
    cumulative_[i] = total;
  }
  AMS_CHECK(total > 0.0, "all weights are zero");
  for (double& c : cumulative_) c /= total;
  cumulative_.back() = 1.0;
}

int DiscreteDistribution::Sample(Rng* rng) const {
  AMS_DCHECK(!cumulative_.empty());
  const double u = rng->NextDouble();
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  if (it == cumulative_.end()) --it;
  return static_cast<int>(it - cumulative_.begin());
}

double DiscreteDistribution::Probability(int i) const {
  AMS_DCHECK(i >= 0 && i < size());
  return i == 0 ? cumulative_[0] : cumulative_[i] - cumulative_[i - 1];
}

std::vector<double> ZipfWeights(int n, double s) {
  AMS_CHECK(n > 0);
  std::vector<double> w(n);
  for (int i = 0; i < n; ++i) w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  return w;
}

}  // namespace ams::util
