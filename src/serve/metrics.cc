#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

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

void RequestLedger::Enqueued() const {
  for (RequestMetrics* slice : slices_) {
    slice->enqueued.fetch_add(1, std::memory_order_relaxed);
  }
}

void RequestLedger::Bounced(ServeStatus status, bool quota) const {
  AMS_CHECK(status != ServeStatus::kOk, "completed requests are not bounced");
  std::atomic<long> RequestMetrics::*outcome =
      status == ServeStatus::kShed       ? &RequestMetrics::shed
      : status == ServeStatus::kShutdown ? &RequestMetrics::shutdown_refused
                                         : &RequestMetrics::rejected;
  for (RequestMetrics* slice : slices_) {
    (slice->*outcome).fetch_add(1, std::memory_order_relaxed);
    if (quota) slice->quota_rejected.fetch_add(1, std::memory_order_relaxed);
  }
}

void RequestLedger::Popped(double queue_delay_s) const {
  for (RequestMetrics* slice : slices_) {
    slice->queue_delay.Record(queue_delay_s);
  }
}

void RequestLedger::Completed(double service_s, double latency_s,
                              bool deadline_met) const {
  service_time_->Record(service_s);
  for (RequestMetrics* slice : slices_) {
    slice->total_latency.Record(latency_s);
    slice->completed.fetch_add(1, std::memory_order_relaxed);
    if (!deadline_met) {
      slice->deadline_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

RequestLedger Metrics::LedgerFor(PriorityClass cls, int tenant_id) {
  RequestMetrics* tenant = &default_tenant_;
  if (tenant_id != 0) {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenant = &tenants_[tenant_id];
  }
  return RequestLedger({&total, &by_class[static_cast<size_t>(cls)], tenant},
                       &service_time);
}

const RequestMetrics* Metrics::find_tenant(int tenant_id) const {
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

/// Plain-value image of one ledger slice's counters. SnapshotJson loads
/// every slice into one of these in a tight pass *before* any stream
/// formatting, so the values in one emitted snapshot come from a single
/// narrow read window instead of interleaving atomic reads with
/// (comparatively slow) JSON formatting. See the header's consistency
/// contract for what can still tear. The histograms format at write time
/// from `slice`.
struct SliceSnapshot {
  const RequestMetrics* slice;
  long enqueued, completed, rejected, quota_rejected, shed, shutdown_refused,
      deadline_misses;
};

SliceSnapshot LoadSlice(const RequestMetrics& slice) {
  const auto load = [](const std::atomic<long>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  return {&slice,
          load(slice.enqueued),
          load(slice.completed),
          load(slice.rejected),
          load(slice.quota_rejected),
          load(slice.shed),
          load(slice.shutdown_refused),
          load(slice.deadline_misses)};
}

/// `{"enqueued": N, ..., "deadline_misses": N}`, then, with `histograms`,
/// the slice's `"queue_delay"` and `"total"` before the closing brace.
void WriteSlice(const SliceSnapshot& s, bool histograms, std::ostream& out) {
  out << "{\"enqueued\": " << s.enqueued << ", \"completed\": " << s.completed
      << ", \"rejected\": " << s.rejected
      << ", \"quota_rejected\": " << s.quota_rejected
      << ", \"shed\": " << s.shed
      << ", \"shutdown_refused\": " << s.shutdown_refused
      << ", \"deadline_misses\": " << s.deadline_misses;
  if (histograms) {
    out << ", \"queue_delay\": " << s.slice->queue_delay.SnapshotJson()
        << ", \"total\": " << s.slice->total_latency.SnapshotJson();
  }
  out << "}";
}

using NamedSlices = std::vector<std::pair<std::string, SliceSnapshot>>;

/// `"key": {"name": {...}, ...}`: one object per class or tenant slice.
void WriteSliceMap(const char* key, const NamedSlices& slices,
                   std::ostream& out) {
  out << "  \"" << key << "\": {";
  for (size_t i = 0; i < slices.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << slices[i].first << "\": ";
    WriteSlice(slices[i].second, /*histograms=*/true, out);
  }
  out << "}";
}

}  // namespace

std::string Metrics::SnapshotJson(double uptime_s) const {
  // Phase 1: the consistent read pass — every counter in the registry is
  // loaded once, back to back, before a single byte is formatted.
  const SliceSnapshot totals = LoadSlice(total);
  const long depth = queue_depth.load(std::memory_order_relaxed);
  const long flying = in_flight.load(std::memory_order_relaxed);
  const long batches = forward_batches.load(std::memory_order_relaxed);
  const long rows = forward_rows.load(std::memory_order_relaxed);
  const long rows_max = forward_rows_max.load(std::memory_order_relaxed);
  const long arena_bytes =
      arena_high_water_bytes.load(std::memory_order_relaxed);
  NamedSlices classes;
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    classes.emplace_back(PriorityClassName(static_cast<PriorityClass>(c)),
                         LoadSlice(by_class[static_cast<size_t>(c)]));
  }
  NamedSlices tenants;
  tenants.emplace_back("0", LoadSlice(default_tenant_));
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    for (const auto& [tenant_id, tenant] : tenants_) {
      tenants.emplace_back(std::to_string(tenant_id), LoadSlice(tenant));
    }
  }

  // Phase 2: formatting, from the plain-value images. Histograms snapshot
  // at format time (bucket-consistent, best effort vs. the counter pass).
  std::ostringstream out;
  out << "{\n";
  out << "  \"counters\": ";
  WriteSlice(totals, /*histograms=*/false, out);
  out << ",\n";
  out << "  \"gauges\": {\"queue_depth\": " << depth
      << ", \"in_flight\": " << flying << "},\n";
  out << "  \"uptime_s\": " << FormatSeconds(uptime_s)
      << ", \"completed_per_s\": "
      << FormatSeconds(uptime_s > 0.0
                           ? static_cast<double>(totals.completed) / uptime_s
                           : 0.0)
      << ",\n";
  out << "  \"latency\": {\"queue_delay\": " << total.queue_delay.SnapshotJson()
      << ", \"service\": " << service_time.SnapshotJson()
      << ", \"total\": " << total.total_latency.SnapshotJson() << "},\n";
  out << "  \"phases\": {\"tick\": " << tick_duration.SnapshotJson()
      << ", \"forward\": " << forward_duration.SnapshotJson()
      << ", \"forward_batches\": " << batches
      << ", \"forward_rows\": " << rows
      << ", \"forward_rows_max\": " << rows_max
      << ", \"forward_rows_mean\": "
      << FormatSeconds(batches > 0 ? static_cast<double>(rows) /
                                         static_cast<double>(batches)
                                   : 0.0)
      << ", \"arena_high_water_bytes\": " << arena_bytes << "},\n";
  WriteSliceMap("classes", classes, out);
  out << ",\n";
  WriteSliceMap("tenants", tenants, out);
  out << "\n}";
  return out.str();
}

}  // namespace ams::serve
