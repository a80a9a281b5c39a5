#ifndef AMS_SERVE_METRICS_H_
#define AMS_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "serve/priority_class.h"
#include "util/clock.h"

namespace ams::serve {

/// Lock-free latency histogram: values land in geometrically spaced buckets
/// (sqrt(2) growth from 1 microsecond, covering beyond an hour), recorded
/// with relaxed atomic increments so the serving hot path never serializes
/// on a stats mutex. Percentiles interpolate within the winning bucket, so
/// they are exact to one bucket's resolution (~+-20%) — the right trade for
/// an operational p50/p95/p99, not for microbenchmarks.
///
/// Empty-histogram contract: while count() == 0, every query is defined to
/// return 0.0 — sum(), mean(), max(), and Percentile(p) for every p
/// (including NaN and out-of-range p, which are treated as 0). "No data"
/// deliberately reads as zero latency rather than NaN so dashboards and
/// JSON consumers never see a non-numeric value.
class LatencyHistogram {
 public:
  void Record(double seconds);

  long count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of recorded values; 0 when empty.
  double sum() const;
  /// sum()/count(); 0 when empty.
  double mean() const;
  /// Largest recorded value; 0 when empty.
  double max() const;

  /// p in [0, 100] (out-of-range clamped, NaN treated as 0); 0.0 whenever
  /// nothing was recorded, for every p.
  double Percentile(double p) const;

  /// {"count":N,"mean_s":...,"p50_s":...,"p95_s":...,"p99_s":...,"max_s":...}
  std::string SnapshotJson() const;

 private:
  static constexpr int kBuckets = 64;
  static constexpr double kMinSeconds = 1e-6;

  static int BucketOf(double seconds);
  /// Lower bound of bucket b (kMinSeconds * 2^(b/2)).
  static double BucketLow(int b);

  std::array<std::atomic<long>, kBuckets> buckets_{};
  std::atomic<long> count_{0};
  /// Integer nanoseconds: fetch_add is wait-free, where an atomic<double>
  /// sum would need a CAS loop on a contended line (C++17 has no
  /// fetch_add for atomic<double>).
  std::atomic<int64_t> sum_ns_{0};
  /// CAS max; the loop body only runs while the maximum actually grows, so
  /// steady state is a single relaxed load.
  std::atomic<double> max_{0.0};
};

/// Per-priority-class slice of the registry: the same counter semantics as
/// the queue-wide counters, restricted to one class's requests, plus that
/// class's latency breakdown. This is what makes tenant isolation
/// observable — a saturating batch tenant shows up in by-class queue delay
/// long before it moves the global percentiles.
struct ClassMetrics {
  std::atomic<long> enqueued{0};
  std::atomic<long> completed{0};
  std::atomic<long> rejected{0};
  std::atomic<long> shed{0};
  std::atomic<long> shutdown_refused{0};
  std::atomic<long> deadline_misses{0};
  LatencyHistogram queue_delay;
  LatencyHistogram total_latency;
};

/// Per-tenant slice of the registry: the quota-accounting view. Same
/// counter semantics as the queue-wide counters restricted to one tenant's
/// requests, plus `quota_rejected` — refusals caused by the tenant's own
/// quota (queued/in-flight caps, rate bucket) rather than queue pressure.
/// Slices are created lazily on first use and live for the registry's
/// lifetime (pointer-stable).
struct TenantMetrics {
  std::atomic<long> enqueued{0};
  std::atomic<long> completed{0};
  std::atomic<long> rejected{0};
  std::atomic<long> quota_rejected{0};
  std::atomic<long> shed{0};
  std::atomic<long> shutdown_refused{0};
  std::atomic<long> deadline_misses{0};
  LatencyHistogram queue_delay;
  LatencyHistogram total_latency;
};

/// The serving runtime's metrics registry: throughput counters, queue/flight
/// gauges, and latency histograms, all safely updatable from every worker
/// and enqueuer concurrently, plus per-priority-class and per-tenant
/// breakdowns. Exported as one JSON snapshot for scraping.
///
/// Counter semantics: every request increments `enqueued` exactly once and
/// then exactly one of {completed, rejected, shed, shutdown_refused}; at any
/// quiescent instant enqueued == completed + rejected + shed +
/// shutdown_refused. The same holds within each ClassMetrics and
/// TenantMetrics slice.
class Metrics {
 public:
  // --- counters ---
  std::atomic<long> enqueued{0};
  std::atomic<long> completed{0};
  std::atomic<long> rejected{0};
  /// Subset of `rejected` caused by a tenant quota (queued/in-flight cap or
  /// rate bucket) rather than queue pressure.
  std::atomic<long> quota_rejected{0};
  std::atomic<long> shed{0};
  std::atomic<long> shutdown_refused{0};
  /// Completions that landed after their request deadline.
  std::atomic<long> deadline_misses{0};

  // --- gauges (sampled by the runtime at queue transitions) ---
  std::atomic<long> queue_depth{0};
  std::atomic<long> in_flight{0};

  // --- latency histograms ---
  LatencyHistogram queue_delay;
  LatencyHistogram service_time;
  LatencyHistogram total_latency;

  // --- phase attribution (the MetricsJson face of the obs:: tracing layer;
  //     populated only while a Tracer is attached to the runtime and
  //     enabled, so the untraced hot path never touches these) ---
  /// Duration of one worker stepper tick (arena rewind + batched forward +
  /// one kernel step per resident item).
  LatencyHistogram tick_duration;
  /// Duration of the per-tick deduplicated batched Q-forward (ticks whose
  /// forward had zero fresh rows are not recorded).
  LatencyHistogram forward_duration;
  /// Count / total rows / largest row batch of recorded Q-forwards — the
  /// forward-batch-size gauge (mean = forward_rows / forward_batches).
  std::atomic<long> forward_batches{0};
  std::atomic<long> forward_rows{0};
  std::atomic<long> forward_rows_max{0};
  /// High-water mark of a worker's per-tick arena scratch footprint.
  std::atomic<long> arena_high_water_bytes{0};

  /// Folds one traced tick into the phase section (CAS-max on the gauges).
  void RecordTick(double tick_s, std::size_t arena_used_bytes);
  /// Folds one traced forward pass (rows > 0) into the phase section.
  void RecordForward(double forward_s, int rows);

  // --- per-class slices, indexed by PriorityClass ---
  std::array<ClassMetrics, kNumPriorityClasses> by_class;

  ClassMetrics& for_class(PriorityClass cls) {
    return by_class[static_cast<size_t>(cls)];
  }
  const ClassMetrics& for_class(PriorityClass cls) const {
    return by_class[static_cast<size_t>(cls)];
  }

  /// The tenant's metrics slice. Tenant 0 (the default tenant every plain
  /// Enqueue rides) is an inline member — lock-free, keeping the
  /// single-tenant hot path free of any mutex. Non-zero tenants are created
  /// on first use behind a short mutex-guarded map lookup; cache the
  /// returned reference on hot paths (it stays valid for the registry's
  /// lifetime).
  TenantMetrics& for_tenant(int tenant_id);
  /// Read-only lookup; nullptr when a non-zero tenant has no slice yet.
  const TenantMetrics* find_tenant(int tenant_id) const;

  /// Binds the uptime axis to a serve clock: SnapshotJson() (the no-arg
  /// overload) measures uptime as now - attach time on `clock`. The clock
  /// must outlive the registry.
  void AttachClock(const util::Clock* clock);

  /// One JSON object with counters, gauges, histograms, the phase section,
  /// the per-class breakdown, and the completion throughput over `uptime_s`
  /// (pass the runtime's clock reading).
  ///
  /// Consistency contract: each section's counters are loaded into plain
  /// locals in one tight pass *before* any formatting, so a snapshot taken
  /// mid-run reflects one narrow read window rather than values drifting
  /// apart over the milliseconds JSON formatting takes. What is still NOT
  /// guaranteed — and cannot be without stalling the hot path — is
  /// cross-counter exactness: a request completing inside the read window
  /// can make identities like enqueued == completed + ... off by the
  /// requests in flight during the pass, and histograms (read after the
  /// counter pass) may include a few events the counters missed. At any
  /// quiescent instant every identity holds exactly.
  std::string SnapshotJson(double uptime_s) const;

  /// Same, with uptime taken from the attached clock (0 when none).
  std::string SnapshotJson() const;

 private:
  const util::Clock* clock_ = nullptr;
  double attach_time_s_ = 0.0;
  /// Tenant 0's slice, inline so the default-tenant path never locks.
  TenantMetrics default_tenant_;
  /// Non-zero tenant slices: std::map for pointer stability (for_tenant
  /// hands out long-lived references) and deterministic JSON ordering. The
  /// mutex only guards the map structure; the slices themselves are atomic.
  mutable std::mutex tenants_mu_;
  std::map<int, TenantMetrics> tenants_;
};

}  // namespace ams::serve

#endif  // AMS_SERVE_METRICS_H_
