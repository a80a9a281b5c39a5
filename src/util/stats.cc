#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ams::util {

void RunningStat::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double Percentile(std::vector<double> values, double p) {
  AMS_CHECK(!values.empty());
  AMS_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double CdfAt(const std::vector<double>& sorted_values, double x) {
  if (sorted_values.empty()) return 0.0;
  auto it = std::upper_bound(sorted_values.begin(), sorted_values.end(), x);
  return static_cast<double>(it - sorted_values.begin()) /
         static_cast<double>(sorted_values.size());
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

}  // namespace ams::util
