// Unit tests of the statistics helpers used by every evaluation harness.

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.h"

namespace ams::util {
namespace {

TEST(RunningStatTest, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 4.0, -2.0, 8.0, 3.5};
  RunningStat stat;
  for (double x : xs) stat.Add(x);
  EXPECT_EQ(stat.count(), xs.size());
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / xs.size();
  EXPECT_NEAR(stat.mean(), mean, 1e-12);
  EXPECT_NEAR(stat.sum(), sum, 1e-12);
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  EXPECT_NEAR(stat.variance(), ss / (xs.size() - 1), 1e-12);
  EXPECT_NEAR(stat.stddev(), std::sqrt(ss / (xs.size() - 1)), 1e-12);
  EXPECT_DOUBLE_EQ(stat.min(), -2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 8.0);
}

TEST(RunningStatTest, EmptyAndSingle) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  stat.Add(5.0);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

TEST(PercentileTest, KnownValues) {
  const std::vector<double> v = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 12.5), 15.0);  // interpolated
}

TEST(PercentileTest, UnsortedInputAndSingleElement) {
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3}, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 99), 7.0);
}

TEST(CdfAtTest, StepFunctionSemantics) {
  const std::vector<double> sorted = {1.0, 2.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(CdfAt(sorted, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(CdfAt(sorted, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(CdfAt(sorted, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(CdfAt(sorted, 4.9), 0.75);
  EXPECT_DOUBLE_EQ(CdfAt(sorted, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(CdfAt({}, 3.0), 0.0);
}

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

}  // namespace
}  // namespace ams::util
