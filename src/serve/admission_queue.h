#ifndef AMS_SERVE_ADMISSION_QUEUE_H_
#define AMS_SERVE_ADMISSION_QUEUE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/priority_class.h"
#include "serve/request.h"
#include "util/clock.h"

namespace ams::serve {

/// What a full admission queue does with new work.
enum class OverloadPolicy {
  /// Enqueue blocks until a worker frees a slot (backpressure onto the
  /// caller; nothing is ever refused or dropped).
  kBlock,
  /// Enqueue refuses immediately (fail-fast admission control; the caller
  /// gets ServeStatus::kRejected and decides whether to retry).
  kReject,
  /// A resident request is dropped (ServeStatus::kShed) to admit the new
  /// one — freshest-work-wins load shedding. Victims come from the least
  /// important non-empty class that is no more important than the arrival
  /// (batch work is shed before interactive work; an arrival never
  /// displaces more important work — when only more important work is
  /// resident, the arrival itself bounces as kRejected). Within the victim
  /// class, the victim is the oldest admission sequence.
  kShedOldest,
};

const char* OverloadPolicyName(OverloadPolicy policy);

/// How AdmissionQueue::Enqueue disposed of a request.
enum class AdmitOutcome {
  /// Queued; the request was consumed.
  kAccepted,
  /// Refused (full queue under kReject, or under kShedOldest with only
  /// more-important work resident); the request is handed back via
  /// `bounced` for the caller to resolve.
  kRejected,
  /// Refused by the request's tenant quota (queued cap, in-flight cap, or
  /// an empty rate-token bucket); handed back via `bounced`. A distinct
  /// outcome so callers can account quota pressure separately from queue
  /// pressure.
  kRejectedQuota,
  /// Refused because Close() had been called; handed back via `bounced`.
  kClosed,
};

/// Weighted-round-robin share of each class, indexed by PriorityClass:
/// consecutive pops a class is granted per turn while it has queued work.
/// Fixed at 8:4:1 interactive:standard:batch. The cycle bounds starvation
/// by itself: a class with queued work is passed over at most the other
/// two weights' sum of consecutive pops — 5 (interactive), 9 (standard)
/// and 12 (batch).
inline constexpr std::array<int, kNumPriorityClasses> kClassWeights = {
    8, 4, 1};

/// Admission quota of one tenant. A zero limit means "unlimited" for that
/// dimension; the all-zero default constrains nothing.
struct TenantQuota {
  /// Bound on the tenant's queued (admitted, not yet popped) requests.
  int max_queued = 0;
  /// Bound on the tenant's popped-but-unfinished requests (the runtime
  /// reports completions back through AdmissionQueue::TenantFinished).
  int max_in_flight = 0;
  /// Token-bucket refill rate in requests/second; 0 disables the bucket.
  /// An arrival finding an empty bucket bounces kRejectedQuota whatever the
  /// overload policy — blocking on future tokens has no wakeup source, and
  /// a rate limiter is fail-fast by design. A token is spent by every
  /// arrival that passes the gate (even one that later bounces on
  /// capacity): the bucket limits arrival rate, not acceptance rate, which
  /// is also what keeps concurrent same-tenant kBlock enqueues from
  /// spending one balance twice.
  double rate_per_s = 0.0;
  /// Token-bucket size (burst allowance); <= 0 with rate_per_s > 0 means 1.
  /// Values in (0, 1) are rejected at construction (they could never admit
  /// a request).
  double burst = 0.0;

  bool Unconstrained() const {
    return max_queued == 0 && max_in_flight == 0 && rate_per_s == 0.0;
  }
};

/// Per-tenant quota table: explicit entries by tenant id plus an optional
/// default applied to every unlisted tenant. An empty table disables tenant
/// accounting entirely (the PR-4 fast path).
struct TenantQuotaTable {
  std::map<int, TenantQuota> per_tenant;
  std::optional<TenantQuota> default_quota;

  /// The quota governing `tenant_id`; nullptr = unconstrained.
  const TenantQuota* QuotaFor(int tenant_id) const {
    const auto it = per_tenant.find(tenant_id);
    if (it != per_tenant.end()) return &it->second;
    return default_quota.has_value() ? &*default_quota : nullptr;
  }
  bool empty() const {
    return per_tenant.empty() && !default_quota.has_value();
  }
};

/// Admission-queue configuration. The pop order is fixed (see
/// AdmissionQueue); only capacity, overload, quotas and the clock are set.
struct AdmissionConfig {
  /// Bound on the total queued (not yet popped) requests, >= 1.
  int capacity = 1024;
  /// What a full queue does with new work, for every class.
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// Per-tenant quotas; empty = no tenant accounting (zero overhead).
  TenantQuotaTable tenant_quotas;
  /// Timestamp source for admission stamps (enqueue_time_s, deadline_s);
  /// null = util::Clock::Monotonic().
  const util::Clock* clock = nullptr;
};

/// Bounded multi-tenant admission queue in front of the serving runtime:
/// one EDF band per PriorityClass, weighted round-robin between classes at
/// the fixed kClassWeights, one overload policy over a queue-wide capacity,
/// and per-tenant quotas (queued cap, in-flight cap, rate token bucket).
/// Thread-safe; the blocking operations (kBlock enqueues, WaitPop) are
/// condition-variable based and wake on Close().
///
/// Pop-order contract (the reference model in
/// tests/serve_admission_model_test.cc mirrors this literally):
///  1. Between classes, weighted round-robin: the current class keeps
///     serving while it has queued work and credit left (credit starts at
///     its kClassWeights entry each turn); otherwise the turn advances
///     cyclically to the next non-empty class. A class with queued work is
///     therefore passed over at most 5 / 9 / 12 consecutive pops
///     (interactive / standard / batch).
///  2. Within the chosen class, earliest deadline first: (deadline, then
///     admission sequence). Single-class workloads therefore pop in exactly
///     the single-band EDF order.
///
/// Tenant-quota contract: an arrival whose tenant is over quota is treated
/// as overload — kReject bounces it kRejectedQuota; kShedOldest sheds a
/// queued-cap breach by displacing the tenant's own oldest queued request
/// (least important class first, never a class more important than the
/// arrival), and bounces kRejectedQuota when the tenant has nothing
/// sheddable (in-flight breach, or only more-important work); kBlock waits
/// until the tenant has room again (pops free queued slots, TenantFinished
/// frees in-flight slots). An empty rate-token bucket always bounces
/// kRejectedQuota immediately, whatever the policy.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionConfig& config);

  /// Stamps the request (enqueue_time_s = now, deadline_s = now + slack_s),
  /// applies the tenant quota and the overload policy, and queues it.
  ///  - kAccepted: the request was consumed; any shed victims (kShedOldest)
  ///    are appended to `bounced` with their original promises intact.
  ///  - kRejected / kRejectedQuota / kClosed: the request itself is
  ///    appended to `bounced` for the caller to resolve.
  /// The caller resolves every bounced promise — the queue never touches
  /// result semantics.
  AdmitOutcome Enqueue(QueuedRequest&& request,
                       std::vector<QueuedRequest>* bounced);

  /// Pops the next request per the pop-order contract; false when empty.
  bool TryPop(QueuedRequest* out);

  /// Pops up to `max_requests` under one lock (the worker refill path: one
  /// acquisition per tick instead of one per item). A single batch spans
  /// classes exactly as `max_requests` successive TryPops would. Returns
  /// the number appended to `out`.
  int TryPopBatch(int max_requests, std::vector<QueuedRequest>* out);

  /// Blocks until a request is available or the queue is closed AND empty
  /// (drain-then-stop: queued work survives Close). False means "no more
  /// work, ever" — the worker run-loops' exit signal.
  bool WaitPop(QueuedRequest* out);

  /// Reports one popped request of `tenant_id` as finished, freeing an
  /// in-flight quota slot and waking enqueuers blocked on it. Call exactly
  /// once per popped request (after completion); a no-op when tenant
  /// accounting is off.
  void TenantFinished(int tenant_id);

  /// Stops admission (subsequent Enqueues return kClosed) and wakes every
  /// blocked enqueuer and popper. Queued requests remain poppable.
  void Close();

  bool closed() const;
  /// Current queued count; lock-free (updated under the queue mutex, read
  /// relaxed — a gauge, not a synchronization point).
  size_t size() const { return depth_.load(std::memory_order_relaxed); }
  /// Queued count of one class (under the queue mutex).
  size_t class_size(PriorityClass cls) const;
  /// Queued / popped-but-unfinished counts of one tenant (under the queue
  /// mutex); 0 when tenant accounting is off.
  int tenant_queued(int tenant_id) const;
  int tenant_in_flight(int tenant_id) const;
  /// Enqueuers currently blocked inside a kBlock Enqueue (under the queue
  /// mutex). Lets tests wait for "the enqueuer has parked" deterministically
  /// instead of sleeping.
  int waiting_enqueuers() const;

 private:
  /// Min-heap comparator on (deadline, sequence) for the EDF bands.
  /// Implemented as a std::push_heap/pop_heap max-heap with inverted
  /// comparison.
  static bool Later(const QueuedRequest& a, const QueuedRequest& b) {
    if (a.deadline_s != b.deadline_s) return a.deadline_s > b.deadline_s;
    return a.sequence > b.sequence;
  }

  /// Per-tenant accounting (only maintained when the quota table is
  /// non-empty).
  struct TenantState {
    int queued = 0;
    int in_flight = 0;
    double tokens = 0.0;
    double last_refill_s = 0.0;
    bool bucket_started = false;
  };

  /// Whether the queue can accept one more request.
  bool HasSpaceLocked() const;
  /// Whether `tenant`'s queued and in-flight counts leave room under
  /// `quota` (null quota = always true).
  bool TenantHasRoomLocked(const TenantQuota* quota,
                           const TenantState* tenant) const;
  size_t TotalLocked() const;
  /// The round-robin half of the pop-order contract: which class serves
  /// the next pop (the queue must be non-empty). Advances the turn as a
  /// side effect, so call exactly once per actual pop.
  int SelectClassLocked();
  bool PopLocked(QueuedRequest* out);
  /// Pops the shed victim of class `cls` into `victim`: the oldest
  /// (smallest admission sequence) request. When `tenant_filter` is
  /// non-negative only that tenant's requests are candidates (the band
  /// must contain one).
  void EvictVictimLocked(int cls, int tenant_filter, QueuedRequest* victim);
  /// Whether class `cls` holds at least one request of `tenant`.
  bool BandHasTenantLocked(int cls, int tenant) const;

  const AdmissionConfig config_;
  const util::Clock* const clock_;
  /// Tenant accounting enabled (config_.tenant_quotas non-empty).
  const bool track_tenants_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  /// One (deadline, sequence) heap of queued requests per class.
  std::array<std::vector<QueuedRequest>, kNumPriorityClasses> bands_;
  std::map<int, TenantState> tenants_;
  /// Weighted-round-robin cursor: current class and pops left in its turn.
  /// Starts one before class 0 (cyclically) with no credit, so the first
  /// pop's turn scan begins at the most important class.
  int rr_class_ = kNumPriorityClasses - 1;
  int rr_credit_ = 0;
  std::atomic<size_t> depth_{0};  // mirrors the summed band sizes
  /// Sleeper counts, so the hot paths skip the condition-variable notify
  /// (a potential futex syscall) entirely while everyone is busy — the
  /// steady-state throughput regime.
  int waiting_poppers_ = 0;
  int waiting_enqueuers_ = 0;
  bool closed_ = false;
};

}  // namespace ams::serve

#endif  // AMS_SERVE_ADMISSION_QUEUE_H_
