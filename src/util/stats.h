#ifndef AMS_UTIL_STATS_H_
#define AMS_UTIL_STATS_H_

#include <cstddef>
#include <limits>
#include <vector>

namespace ams::util {

/// Single-pass accumulator for mean/variance/min/max (Welford's algorithm).
class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// p-th percentile (p in [0,100]) by linear interpolation on a sorted copy.
double Percentile(std::vector<double> values, double p);

/// Fraction of `values` that are <= x.
double CdfAt(const std::vector<double>& sorted_values, double x);

/// Mean of a vector; 0 for empty input.
double Mean(const std::vector<double>& values);

}  // namespace ams::util

#endif  // AMS_UTIL_STATS_H_
