#ifndef AMS_UTIL_CLOCK_H_
#define AMS_UTIL_CLOCK_H_

#include <atomic>

namespace ams::util {

/// Time source seam: every timestamp the serving stack takes (admission
/// stamps, deadlines, latency measurements, metrics uptime, trace events)
/// goes through this interface, so tests can substitute a deterministic
/// ManualClock and assert exact latencies, deadline misses, EDF order and
/// span durations without sleeping. Implementations must be monotonic
/// non-decreasing and safe to read from any thread.
///
/// Lives in util:: so every layer — obs:: tracing, core:: steppers, the
/// serve:: runtime — shares one time axis without a dependency on the
/// serving runtime.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Seconds on this clock's own monotonic axis (only differences and
  /// orderings are meaningful; the epoch is implementation-defined).
  virtual double NowSeconds() const = 0;

  /// The process-wide default: a steady wall clock whose epoch is its first
  /// use. Never destroyed (safe to read during static teardown).
  static const Clock& Monotonic();
};

/// Deterministic test clock: time moves only when the test advances it.
/// Reads are lock-free; Advance is safe to call concurrently with readers
/// (but advancing from multiple threads at once makes "now" racy by
/// definition — tests should own time from one thread).
class ManualClock : public Clock {
 public:
  explicit ManualClock(double start_s = 0.0) : now_s_(start_s) {}

  double NowSeconds() const override {
    return now_s_.load(std::memory_order_acquire);
  }

  /// Moves time forward by `seconds` (>= 0).
  void Advance(double seconds);

  /// Jumps to an absolute reading; must not move time backwards.
  void Set(double seconds);

 private:
  std::atomic<double> now_s_;
};

}  // namespace ams::util

#endif  // AMS_UTIL_CLOCK_H_
