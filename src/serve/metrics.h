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
#include "serve/request.h"
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

/// One slice of the request ledger: how many requests entered admission and
/// how each one left, plus their queue-delay and total-latency histograms.
/// The registry keeps one slice for every request, one per priority class
/// and one per tenant, and counts each request in exactly three of them
/// (see RequestLedger).
///
/// Counter semantics: every request increments `enqueued` exactly once and
/// then exactly one of {completed, rejected, shed, shutdown_refused}; at any
/// quiescent instant enqueued == completed + rejected + shed +
/// shutdown_refused in every slice.
struct RequestMetrics {
  std::atomic<long> enqueued{0};
  std::atomic<long> completed{0};
  std::atomic<long> rejected{0};
  /// Subset of `rejected` caused by the tenant's own quota (queued/in-flight
  /// cap or rate bucket) rather than queue pressure.
  std::atomic<long> quota_rejected{0};
  std::atomic<long> shed{0};
  std::atomic<long> shutdown_refused{0};
  /// Completions that landed after their request deadline.
  std::atomic<long> deadline_misses{0};
  LatencyHistogram queue_delay;
  LatencyHistogram total_latency;
};

/// The ledger slices one request is counted in (the totals, its class and
/// its tenant), as Metrics::LedgerFor resolves them. Each lifecycle event is
/// one call, which counts it in all three.
class RequestLedger {
 public:
  RequestLedger() = default;

  /// The request arrived at admission.
  void Enqueued() const;
  /// The request left unlabeled: `status` is kRejected, kShed or kShutdown,
  /// and `quota` marks a rejection by the tenant's own quota.
  void Bounced(ServeStatus status, bool quota) const;
  /// A worker popped the request `queue_delay_s` after its arrival.
  void Popped(double queue_delay_s) const;
  /// The request was labeled `service_s` after its pop (recorded in the
  /// registry-wide service histogram) and `latency_s` after its arrival.
  void Completed(double service_s, double latency_s, bool deadline_met) const;

 private:
  friend class Metrics;
  RequestLedger(const std::array<RequestMetrics*, 3>& slices,
                LatencyHistogram* service_time)
      : slices_(slices), service_time_(service_time) {}

  std::array<RequestMetrics*, 3> slices_{};
  LatencyHistogram* service_time_ = nullptr;
};

/// The serving runtime's metrics registry: the request ledger (totals,
/// per-class and per-tenant RequestMetrics slices), queue/flight gauges and
/// the service-time histogram, all safely updatable from every worker and
/// enqueuer concurrently. Exported as one JSON snapshot for scraping.
class Metrics {
 public:
  // --- the request ledger ---
  /// Every request.
  RequestMetrics total;
  /// Per priority class, indexed by PriorityClass: a saturating batch class
  /// shows up in its own queue delay long before it moves the totals.
  std::array<RequestMetrics, kNumPriorityClasses> by_class;

  const RequestMetrics& for_class(PriorityClass cls) const {
    return by_class[static_cast<size_t>(cls)];
  }
  /// The tenant's slice (the quota-accounting view); nullptr when a non-zero
  /// tenant has none yet. Tenant 0 (the default tenant every plain Enqueue
  /// rides) is an inline member, so the single-tenant path never locks;
  /// other tenants' slices are created on first use and live as long as the
  /// registry.
  const RequestMetrics* find_tenant(int tenant_id) const;

  /// The slices a request of class `cls` from tenant `tenant_id` is counted
  /// in. A non-zero tenant costs a short mutex-guarded map lookup (creating
  /// its slice on first use), so keep the ledger rather than resolving it
  /// per event.
  RequestLedger LedgerFor(PriorityClass cls, int tenant_id);

  // --- gauges (sampled by the runtime at queue transitions) ---
  std::atomic<long> queue_depth{0};
  std::atomic<long> in_flight{0};

  /// Pop -> completion of every completed request.
  LatencyHistogram service_time;

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

  /// Binds the uptime axis to a serve clock: SnapshotJson() (the no-arg
  /// overload) measures uptime as now - attach time on `clock`. The clock
  /// must outlive the registry.
  void AttachClock(const util::Clock* clock);

  /// One JSON object: the totals' counters, gauges, the latency histograms,
  /// the phase section, every class and tenant slice, and the completion
  /// throughput over `uptime_s` (pass the runtime's clock reading).
  ///
  /// Consistency contract: every slice's counters (and the gauges) are
  /// loaded into plain locals in one tight pass *before* any formatting, so
  /// a snapshot taken mid-run reflects one narrow read window rather than
  /// values drifting apart over the milliseconds JSON formatting takes.
  /// What is still NOT guaranteed — and cannot be without stalling the hot
  /// path — is cross-counter exactness: a request completing inside the
  /// read window can make identities like enqueued == completed + ... off
  /// by the requests in flight during the pass, and histograms (read after
  /// the counter pass) may include a few events the counters missed. At
  /// any quiescent instant every identity holds exactly.
  std::string SnapshotJson(double uptime_s) const;

  /// Same, with uptime taken from the attached clock (0 when none).
  std::string SnapshotJson() const;

 private:
  const util::Clock* clock_ = nullptr;
  double attach_time_s_ = 0.0;
  /// Tenant 0's slice, inline so the default-tenant path never locks.
  RequestMetrics default_tenant_;
  /// Non-zero tenant slices: std::map for pointer stability (ledgers hold
  /// long-lived pointers) and deterministic JSON ordering. The mutex only
  /// guards the map structure; the slices themselves are atomic.
  mutable std::mutex tenants_mu_;
  std::map<int, RequestMetrics> tenants_;
};

}  // namespace ams::serve

#endif  // AMS_SERVE_METRICS_H_
