#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

namespace ams::serve {

namespace {

/// Relaxed CAS max for atomic<double> (no fetch_max in C++17).
void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (current < value && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

/// Same for atomic<long>: steady state is one relaxed load.
void AtomicMaxLong(std::atomic<long>* target, long value) {
  long current = target->load(std::memory_order_relaxed);
  while (current < value && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

std::string FormatSeconds(double s) {
  std::ostringstream out;
  out.precision(6);
  out << s;
  return out.str();
}

}  // namespace

int LatencyHistogram::BucketOf(double seconds) {
  if (!(seconds > kMinSeconds)) return 0;  // also catches NaN/negative
  // Growth factor sqrt(2): bucket = floor(2 * log2(s / min)).
  const int b = static_cast<int>(2.0 * std::log2(seconds / kMinSeconds));
  return std::min(b, kBuckets - 1);
}

double LatencyHistogram::BucketLow(int b) {
  return kMinSeconds * std::exp2(0.5 * b);
}

void LatencyHistogram::Record(double seconds) {
  buckets_[static_cast<size_t>(BucketOf(seconds))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(static_cast<int64_t>(std::llround(seconds * 1e9)),
                    std::memory_order_relaxed);
  AtomicMax(&max_, seconds);
}

double LatencyHistogram::sum() const {
  return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

double LatencyHistogram::mean() const {
  const long n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double LatencyHistogram::max() const {
  return max_.load(std::memory_order_relaxed);
}

double LatencyHistogram::Percentile(double p) const {
  const long n = count();
  // The documented empty contract: every percentile of "no data" is 0.0.
  if (n == 0) return 0.0;
  // NaN-safe clamp (std::clamp on NaN is undefined): NaN and negatives
  // collapse to 0, anything above 100 to 100.
  if (!(p > 0.0)) {
    p = 0.0;
  } else if (p > 100.0) {
    p = 100.0;
  }
  const double target = p / 100.0 * static_cast<double>(n);
  long seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const long in_bucket = buckets_[static_cast<size_t>(b)].load(
        std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      // Linear interpolation inside the winning bucket, clamped to the
      // recorded maximum (the top bucket is open-ended).
      const double frac =
          std::clamp((target - static_cast<double>(seen)) /
                         static_cast<double>(in_bucket),
                     0.0, 1.0);
      const double low = BucketLow(b);
      const double high = std::min(BucketLow(b + 1), std::max(max(), low));
      return low + frac * (high - low);
    }
    seen += in_bucket;
  }
  return max();
}

std::string LatencyHistogram::SnapshotJson() const {
  std::ostringstream out;
  out << "{\"count\": " << count() << ", \"mean_s\": " << FormatSeconds(mean())
      << ", \"p50_s\": " << FormatSeconds(Percentile(50))
      << ", \"p95_s\": " << FormatSeconds(Percentile(95))
      << ", \"p99_s\": " << FormatSeconds(Percentile(99))
      << ", \"max_s\": " << FormatSeconds(max()) << "}";
  return out.str();
}

void Metrics::RecordTick(double tick_s, std::size_t arena_used_bytes) {
  tick_duration.Record(tick_s);
  AtomicMaxLong(&arena_high_water_bytes,
                static_cast<long>(arena_used_bytes));
}

void Metrics::RecordForward(double forward_s, int rows) {
  forward_duration.Record(forward_s);
  forward_batches.fetch_add(1, std::memory_order_relaxed);
  forward_rows.fetch_add(rows, std::memory_order_relaxed);
  AtomicMaxLong(&forward_rows_max, rows);
}

TenantMetrics& Metrics::for_tenant(int tenant_id) {
  if (tenant_id == 0) return default_tenant_;
  std::lock_guard<std::mutex> lock(tenants_mu_);
  return tenants_[tenant_id];
}

const TenantMetrics* Metrics::find_tenant(int tenant_id) const {
  if (tenant_id == 0) return &default_tenant_;
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const auto it = tenants_.find(tenant_id);
  return it == tenants_.end() ? nullptr : &it->second;
}

void Metrics::AttachClock(const util::Clock* clock) {
  clock_ = clock;
  attach_time_s_ = clock != nullptr ? clock->NowSeconds() : 0.0;
}

std::string Metrics::SnapshotJson() const {
  const double uptime_s =
      clock_ != nullptr ? clock_->NowSeconds() - attach_time_s_ : 0.0;
  return SnapshotJson(uptime_s);
}

namespace {

/// Plain-value images of the registry's counter sections: SnapshotJson
/// loads each section into one of these in a tight pass *before* any
/// stream formatting, so the values in one emitted snapshot come from a
/// single narrow read window instead of interleaving atomic reads with
/// (comparatively slow) JSON formatting. See the header's consistency
/// contract for what can still tear.
struct CounterSnapshot {
  long enqueued, completed, rejected, quota_rejected, shed, shutdown_refused,
      deadline_misses, queue_depth, in_flight, forward_batches, forward_rows,
      forward_rows_max, arena_high_water_bytes;
};

struct ClassSnapshot {
  long enqueued, completed, rejected, shed, shutdown_refused, deadline_misses;
};

struct TenantSnapshot {
  long enqueued, completed, rejected, quota_rejected, shed, shutdown_refused,
      deadline_misses;
};

ClassSnapshot LoadClass(const ClassMetrics& cls) {
  ClassSnapshot s;
  s.enqueued = cls.enqueued.load(std::memory_order_relaxed);
  s.completed = cls.completed.load(std::memory_order_relaxed);
  s.rejected = cls.rejected.load(std::memory_order_relaxed);
  s.shed = cls.shed.load(std::memory_order_relaxed);
  s.shutdown_refused = cls.shutdown_refused.load(std::memory_order_relaxed);
  s.deadline_misses = cls.deadline_misses.load(std::memory_order_relaxed);
  return s;
}

TenantSnapshot LoadTenant(const TenantMetrics& tenant) {
  TenantSnapshot s;
  s.enqueued = tenant.enqueued.load(std::memory_order_relaxed);
  s.completed = tenant.completed.load(std::memory_order_relaxed);
  s.rejected = tenant.rejected.load(std::memory_order_relaxed);
  s.quota_rejected = tenant.quota_rejected.load(std::memory_order_relaxed);
  s.shed = tenant.shed.load(std::memory_order_relaxed);
  s.shutdown_refused = tenant.shutdown_refused.load(std::memory_order_relaxed);
  s.deadline_misses = tenant.deadline_misses.load(std::memory_order_relaxed);
  return s;
}

}  // namespace

std::string Metrics::SnapshotJson(double uptime_s) const {
  // Phase 1: the consistent read pass — every counter in the registry is
  // loaded once, back to back, before a single byte is formatted.
  CounterSnapshot top;
  top.enqueued = enqueued.load(std::memory_order_relaxed);
  top.completed = completed.load(std::memory_order_relaxed);
  top.rejected = rejected.load(std::memory_order_relaxed);
  top.quota_rejected = quota_rejected.load(std::memory_order_relaxed);
  top.shed = shed.load(std::memory_order_relaxed);
  top.shutdown_refused = shutdown_refused.load(std::memory_order_relaxed);
  top.deadline_misses = deadline_misses.load(std::memory_order_relaxed);
  top.queue_depth = queue_depth.load(std::memory_order_relaxed);
  top.in_flight = in_flight.load(std::memory_order_relaxed);
  top.forward_batches = forward_batches.load(std::memory_order_relaxed);
  top.forward_rows = forward_rows.load(std::memory_order_relaxed);
  top.forward_rows_max = forward_rows_max.load(std::memory_order_relaxed);
  top.arena_high_water_bytes =
      arena_high_water_bytes.load(std::memory_order_relaxed);
  std::array<ClassSnapshot, kNumPriorityClasses> classes;
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    classes[static_cast<size_t>(c)] = LoadClass(by_class[static_cast<size_t>(c)]);
  }
  std::vector<std::pair<int, TenantSnapshot>> tenants;
  std::vector<const TenantMetrics*> tenant_slices;
  tenants.emplace_back(0, LoadTenant(default_tenant_));
  tenant_slices.push_back(&default_tenant_);
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    for (const auto& [tenant_id, tenant] : tenants_) {
      tenants.emplace_back(tenant_id, LoadTenant(tenant));
      tenant_slices.push_back(&tenant);
    }
  }

  // Phase 2: formatting, from the plain-value images. Histograms snapshot
  // at format time (bucket-consistent, best effort vs. the counter pass).
  std::ostringstream out;
  out << "{\n";
  out << "  \"counters\": {\"enqueued\": " << top.enqueued
      << ", \"completed\": " << top.completed
      << ", \"rejected\": " << top.rejected
      << ", \"quota_rejected\": " << top.quota_rejected
      << ", \"shed\": " << top.shed
      << ", \"shutdown_refused\": " << top.shutdown_refused
      << ", \"deadline_misses\": " << top.deadline_misses << "},\n";
  out << "  \"gauges\": {\"queue_depth\": " << top.queue_depth
      << ", \"in_flight\": " << top.in_flight << "},\n";
  out << "  \"uptime_s\": " << FormatSeconds(uptime_s)
      << ", \"completed_per_s\": "
      << FormatSeconds(uptime_s > 0.0
                           ? static_cast<double>(top.completed) / uptime_s
                           : 0.0)
      << ",\n";
  out << "  \"latency\": {\"queue_delay\": " << queue_delay.SnapshotJson()
      << ", \"service\": " << service_time.SnapshotJson()
      << ", \"total\": " << total_latency.SnapshotJson() << "},\n";
  out << "  \"phases\": {\"tick\": " << tick_duration.SnapshotJson()
      << ", \"forward\": " << forward_duration.SnapshotJson()
      << ", \"forward_batches\": " << top.forward_batches
      << ", \"forward_rows\": " << top.forward_rows
      << ", \"forward_rows_max\": " << top.forward_rows_max
      << ", \"forward_rows_mean\": "
      << FormatSeconds(top.forward_batches > 0
                           ? static_cast<double>(top.forward_rows) /
                                 static_cast<double>(top.forward_batches)
                           : 0.0)
      << ", \"arena_high_water_bytes\": " << top.arena_high_water_bytes
      << "},\n";
  out << "  \"classes\": {";
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    const ClassSnapshot& s = classes[static_cast<size_t>(c)];
    const ClassMetrics& cls = by_class[static_cast<size_t>(c)];
    if (c > 0) out << ", ";
    out << "\"" << PriorityClassName(static_cast<PriorityClass>(c))
        << "\": {\"enqueued\": " << s.enqueued
        << ", \"completed\": " << s.completed
        << ", \"rejected\": " << s.rejected << ", \"shed\": " << s.shed
        << ", \"shutdown_refused\": " << s.shutdown_refused
        << ", \"deadline_misses\": " << s.deadline_misses
        << ", \"queue_delay\": " << cls.queue_delay.SnapshotJson()
        << ", \"total\": " << cls.total_latency.SnapshotJson() << "}";
  }
  out << "},\n";
  out << "  \"tenants\": {";
  for (size_t i = 0; i < tenants.size(); ++i) {
    const auto& [tenant_id, s] = tenants[i];
    const TenantMetrics& tenant = *tenant_slices[i];
    if (i > 0) out << ", ";
    out << "\"" << tenant_id << "\": {\"enqueued\": " << s.enqueued
        << ", \"completed\": " << s.completed
        << ", \"rejected\": " << s.rejected
        << ", \"quota_rejected\": " << s.quota_rejected
        << ", \"shed\": " << s.shed
        << ", \"shutdown_refused\": " << s.shutdown_refused
        << ", \"deadline_misses\": " << s.deadline_misses
        << ", \"queue_delay\": " << tenant.queue_delay.SnapshotJson()
        << ", \"total\": " << tenant.total_latency.SnapshotJson() << "}";
  }
  out << "}\n";
  out << "}";
  return out.str();
}

}  // namespace ams::serve
