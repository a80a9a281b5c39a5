// Unit tests of the deterministic RNG substrate: reproducibility, range
// contracts and (coarse) distributional correctness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "util/rng.h"

namespace ams::util {
namespace {

class RngSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedTest, SameSeedSameStream) {
  Rng a(GetParam());
  Rng b(GetParam());
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST_P(RngSeedTest, DifferentSeedsDiverge) {
  Rng a(GetParam());
  Rng b(GetParam() + 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST_P(RngSeedTest, NextDoubleInUnitInterval) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST_P(RngSeedTest, UniformIntInclusiveRangeAndCoverage) {
  Rng rng(GetParam());
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.UniformInt(-3, 4);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u) << "all 8 values should appear in 2000 draws";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(0ull, 1ull, 42ull, 123456789ull,
                                           0xFFFFFFFFFFFFFFFFull));

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(RngTest, LogNormalIsPositiveWithCorrectMedian) {
  Rng rng(12);
  std::vector<double> values;
  for (int i = 0; i < 20001; ++i) {
    const double x = rng.LogNormal(std::log(0.2), 0.1);
    ASSERT_GT(x, 0.0);
    values.push_back(x);
  }
  std::nth_element(values.begin(), values.begin() + 10000, values.end());
  EXPECT_NEAR(values[10000], 0.2, 0.01);  // median = exp(mu)
}

TEST(RngTest, CategoricalFrequenciesMatchWeights) {
  Rng rng(13);
  const std::vector<double> weights = {1.0, 2.0, 0.0, 5.0};
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(rng.Categorical(weights))];
  EXPECT_EQ(counts[2], 0) << "zero-weight category must never be drawn";
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 1.0 / 8.0, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 2.0 / 8.0, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 5.0 / 8.0, 0.02);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(14);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
  EXPECT_NE(v, original) << "50 elements should virtually never fix-point";
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(15);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<int> sample = rng.SampleWithoutReplacement(20, 7);
    ASSERT_EQ(sample.size(), 7u);
    std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 7u);
    for (int s : sample) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, 20);
    }
  }
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 5).size(), 5u);
}

TEST(DiscreteDistributionTest, SampleMatchesProbability) {
  const std::vector<double> weights = {3.0, 1.0, 6.0};
  DiscreteDistribution dist(weights);
  EXPECT_EQ(dist.size(), 3);
  EXPECT_NEAR(dist.Probability(0), 0.3, 1e-12);
  EXPECT_NEAR(dist.Probability(1), 0.1, 1e-12);
  EXPECT_NEAR(dist.Probability(2), 0.6, 1e-12);
  Rng rng(16);
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(dist.Sample(&rng))];
  for (int k = 0; k < 3; ++k) {
    EXPECT_NEAR(counts[static_cast<size_t>(k)] / static_cast<double>(n),
                dist.Probability(k), 0.02);
  }
}

TEST(ZipfWeightsTest, DecreasingAndNormalizable) {
  const std::vector<double> w = ZipfWeights(100, 0.8);
  ASSERT_EQ(w.size(), 100u);
  for (size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(HashCombineTest, OrderSensitiveAndStable) {
  EXPECT_EQ(HashCombine(1, 2), HashCombine(1, 2));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_NE(HashCombine(0, 0), HashCombine(0, 1));
}

}  // namespace
}  // namespace ams::util
