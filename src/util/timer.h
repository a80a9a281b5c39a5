#ifndef AMS_UTIL_TIMER_H_
#define AMS_UTIL_TIMER_H_

#include <chrono>

namespace ams::util {

/// Wall-clock stopwatch (steady clock).
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ams::util

#endif  // AMS_UTIL_TIMER_H_
