#include "serve/admission_queue.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/check.h"

namespace ams::serve {

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kRejected:
      return "rejected";
    case ServeStatus::kShed:
      return "shed";
    case ServeStatus::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kReject:
      return "reject";
    case OverloadPolicy::kShedOldest:
      return "shed_oldest";
  }
  return "unknown";
}

const char* WithinClassOrderName(WithinClassOrder order) {
  switch (order) {
    case WithinClassOrder::kEdf:
      return "edf";
    case WithinClassOrder::kValueDensity:
      return "value";
    case WithinClassOrder::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

bool WithinClassOrderFromName(const char* name, WithinClassOrder* out) {
  if (name == nullptr || out == nullptr) return false;
  if (!std::strcmp(name, "edf")) {
    *out = WithinClassOrder::kEdf;
  } else if (!std::strcmp(name, "value")) {
    *out = WithinClassOrder::kValueDensity;
  } else if (!std::strcmp(name, "hybrid")) {
    *out = WithinClassOrder::kHybrid;
  } else {
    return false;
  }
  return true;
}

AdmissionQueue::AdmissionQueue(const AdmissionConfig& config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock
                                     : &util::Clock::Monotonic()),
      forced_service_after_(config.starvation_bound -
                            (kNumPriorityClasses - 1)),
      track_tenants_(!config.tenant_quotas.empty()) {
  AMS_CHECK(config_.capacity >= 1, "admission queue needs capacity >= 1");
  AMS_CHECK(config_.starvation_bound >= kNumPriorityClasses,
            "the starvation bound must cover one pop per class");
  for (const ClassConfig& cls : config_.classes) {
    AMS_CHECK(cls.weight >= 0, "class weights must be non-negative");
    AMS_CHECK(cls.queue_capacity >= 0,
              "per-class capacity must be >= 0 (0 = uncapped)");
  }
  const auto check_quota = [](const TenantQuota& quota) {
    AMS_CHECK(quota.max_queued >= 0 && quota.max_in_flight >= 0,
              "tenant quota caps must be >= 0 (0 = unlimited)");
    AMS_CHECK(std::isfinite(quota.rate_per_s) && quota.rate_per_s >= 0.0,
              "tenant rate must be finite and >= 0");
    AMS_CHECK(std::isfinite(quota.burst) || quota.rate_per_s == 0.0,
              "tenant burst must be finite when rate limited");
    // A bucket that can never hold one whole token would silently reject
    // the tenant's every request.
    AMS_CHECK(quota.rate_per_s == 0.0 || quota.burst <= 0.0 ||
                  quota.burst >= 1.0,
              "tenant burst in (0, 1) could never admit a request "
              "(leave <= 0 to mean 1)");
  };
  for (const auto& [tenant_id, quota] : config_.tenant_quotas.per_tenant) {
    (void)tenant_id;
    check_quota(quota);
  }
  if (config_.tenant_quotas.default_quota.has_value()) {
    check_quota(*config_.tenant_quotas.default_quota);
  }
}

AdmissionQueue::AdmissionQueue(int capacity, OverloadPolicy policy)
    : AdmissionQueue([&] {
        AdmissionConfig config;
        config.capacity = capacity;
        config.overload = policy;
        return config;
      }()) {}

OverloadPolicy AdmissionQueue::PolicyFor(PriorityClass cls) const {
  const std::optional<OverloadPolicy>& per_class =
      config_.classes[static_cast<size_t>(cls)].overload;
  return per_class.has_value() ? *per_class : config_.overload;
}

WithinClassOrder AdmissionQueue::OrderFor(PriorityClass cls) const {
  return OrderForLocked(static_cast<int>(cls));  // config-only: no lock needed
}

WithinClassOrder AdmissionQueue::OrderForLocked(int cls) const {
  const std::optional<WithinClassOrder>& per_class =
      config_.classes[static_cast<size_t>(cls)].order;
  return per_class.has_value() ? *per_class : config_.within_class_order;
}

size_t AdmissionQueue::TotalLocked() const {
  size_t total = 0;
  for (const ClassBand& band : bands_) total += band.heap.size();
  return total;
}

bool AdmissionQueue::HasSpaceLocked(int cls) const {
  if (TotalLocked() >= static_cast<size_t>(config_.capacity)) return false;
  const int class_cap = config_.classes[static_cast<size_t>(cls)].queue_capacity;
  return class_cap == 0 ||
         bands_[static_cast<size_t>(cls)].heap.size() <
             static_cast<size_t>(class_cap);
}

bool AdmissionQueue::TenantHasRoomLocked(const TenantQuota* quota,
                                         const TenantState* tenant) const {
  if (quota == nullptr || tenant == nullptr) return true;
  if (quota->max_queued > 0 && tenant->queued >= quota->max_queued) {
    return false;
  }
  return quota->max_in_flight == 0 ||
         tenant->in_flight < quota->max_in_flight;
}

int AdmissionQueue::SelectClassLocked() {
  // 1. Starvation guard: a class passed over forced_service_after_ times
  //    while non-empty is served now; longest-passed-over first, ties to
  //    the more important class. Guard service does not touch the
  //    round-robin turn.
  int chosen = -1;
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    const ClassBand& band = bands_[static_cast<size_t>(c)];
    if (band.heap.empty() || band.passed_over < forced_service_after_) continue;
    if (chosen < 0 ||
        band.passed_over > bands_[static_cast<size_t>(chosen)].passed_over) {
      chosen = c;
    }
  }
  if (chosen < 0) {
    // 2. Weighted round-robin: the current class keeps its turn while it
    //    has work and credit; otherwise the turn advances cyclically to the
    //    next non-empty positive-weight class, reloading that class's
    //    credit from its weight.
    if (rr_credit_ > 0 && config_.classes[static_cast<size_t>(rr_class_)].weight > 0 &&
        !bands_[static_cast<size_t>(rr_class_)].heap.empty()) {
      chosen = rr_class_;
      --rr_credit_;
    } else {
      for (int step = 1; step <= kNumPriorityClasses; ++step) {
        const int c = (rr_class_ + step) % kNumPriorityClasses;
        if (config_.classes[static_cast<size_t>(c)].weight > 0 &&
            !bands_[static_cast<size_t>(c)].heap.empty()) {
          rr_class_ = c;
          rr_credit_ = config_.classes[static_cast<size_t>(c)].weight - 1;
          chosen = c;
          break;
        }
      }
    }
  }
  if (chosen < 0) {
    // 3. Strict fallback: only weight-0 (background) classes have work;
    //    serve the most important one.
    for (int c = 0; c < kNumPriorityClasses; ++c) {
      if (!bands_[static_cast<size_t>(c)].heap.empty()) {
        chosen = c;
        break;
      }
    }
  }
  AMS_CHECK(chosen >= 0, "SelectClassLocked called on an empty queue");
  // Starvation accounting: every other class with queued work was passed
  // over by this pop; the served class (and empty classes) start fresh.
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    ClassBand& band = bands_[static_cast<size_t>(c)];
    if (c == chosen || band.heap.empty()) {
      band.passed_over = 0;
    } else {
      ++band.passed_over;
    }
  }
  return chosen;
}

size_t AdmissionQueue::SelectWithinLocked(int cls, double now_s) const {
  const std::vector<QueuedRequest>& band =
      bands_[static_cast<size_t>(cls)].heap;
  AMS_CHECK(!band.empty(), "SelectWithinLocked on an empty band");
  const WithinClassOrder order = OrderForLocked(cls);
  if (order == WithinClassOrder::kEdf) return 0;  // heap head
  if (order == WithinClassOrder::kValueDensity) {
    // Highest density first; FIFO among equal densities.
    size_t best = 0;
    for (size_t i = 1; i < band.size(); ++i) {
      if (band[i].value_density > band[best].value_density ||
          (band[i].value_density == band[best].value_density &&
           band[i].sequence < band[best].sequence)) {
        best = i;
      }
    }
    return best;
  }
  // kHybrid: highest density among still-feasible requests (ties: earlier
  // deadline, then sequence); EDF over everything once all are late.
  size_t best = band.size();
  for (size_t i = 0; i < band.size(); ++i) {
    if (band[i].deadline_s < now_s) continue;  // already late
    if (best == band.size() ||
        band[i].value_density > band[best].value_density ||
        (band[i].value_density == band[best].value_density &&
         (band[i].deadline_s < band[best].deadline_s ||
          (band[i].deadline_s == band[best].deadline_s &&
           band[i].sequence < band[best].sequence)))) {
      best = i;
    }
  }
  if (best < band.size()) return best;
  best = 0;
  for (size_t i = 1; i < band.size(); ++i) {
    if (band[i].deadline_s < band[best].deadline_s ||
        (band[i].deadline_s == band[best].deadline_s &&
         band[i].sequence < band[best].sequence)) {
      best = i;
    }
  }
  return best;
}

void AdmissionQueue::RemoveAtLocked(int cls, size_t i, QueuedRequest* out) {
  std::vector<QueuedRequest>& band = bands_[static_cast<size_t>(cls)].heap;
  if (OrderForLocked(cls) == WithinClassOrder::kEdf) {
    if (i == 0) {
      // The common case: popping the heap head through the heap primitive.
      std::pop_heap(band.begin(), band.end(), Later);
      *out = std::move(band.back());
      band.pop_back();
      return;
    }
    // Eviction from the middle breaks the heap property at one position;
    // re-heapify the bounded band.
    *out = std::move(band[i]);
    band[i] = std::move(band.back());
    band.pop_back();
    std::make_heap(band.begin(), band.end(), Later);
    return;
  }
  // Scan-ordered bands have no invariant beyond membership: swap-pop.
  *out = std::move(band[i]);
  band[i] = std::move(band.back());
  band.pop_back();
}

bool AdmissionQueue::BandHasTenantLocked(int cls, int tenant) const {
  const std::vector<QueuedRequest>& band =
      bands_[static_cast<size_t>(cls)].heap;
  for (const QueuedRequest& request : band) {
    if (request.tenant_id == tenant) return true;
  }
  return false;
}

void AdmissionQueue::EvictVictimLocked(int cls, int tenant_filter,
                                       QueuedRequest* victim) {
  std::vector<QueuedRequest>& band = bands_[static_cast<size_t>(cls)].heap;
  AMS_CHECK(!band.empty(), "no shed victim in the chosen class");
  const WithinClassOrder order = OrderForLocked(cls);
  // Linear scan over the bounded band: the oldest admission sequence under
  // kEdf, the lowest value density (ties: oldest) under value ordering.
  size_t chosen = band.size();
  for (size_t i = 0; i < band.size(); ++i) {
    if (tenant_filter >= 0 && band[i].tenant_id != tenant_filter) continue;
    if (chosen == band.size()) {
      chosen = i;
      continue;
    }
    if (order == WithinClassOrder::kEdf) {
      if (band[i].sequence < band[chosen].sequence) chosen = i;
    } else if (band[i].value_density < band[chosen].value_density ||
               (band[i].value_density == band[chosen].value_density &&
                band[i].sequence < band[chosen].sequence)) {
      chosen = i;
    }
  }
  AMS_CHECK(chosen < band.size(), "no shed victim matches the tenant filter");
  RemoveAtLocked(cls, chosen, victim);
}

AdmitOutcome AdmissionQueue::Enqueue(QueuedRequest&& request,
                                     std::vector<QueuedRequest>* bounced) {
  AMS_CHECK(bounced != nullptr);
  const int cls = static_cast<int>(request.priority_class);
  AMS_CHECK(cls >= 0 && cls < kNumPriorityClasses, "unknown priority class");
  // Negative ids would collide with EvictVictimLocked's "no tenant filter"
  // sentinel and corrupt quota accounting.
  AMS_CHECK(request.tenant_id >= 0, "tenant ids must be >= 0");
  const size_t bounced_at_entry = bounced->size();
  // Arrival stamps (before any kBlock wait: the latency clock starts when
  // the caller showed up, and EDF urgency is arrival + slack).
  request.enqueue_time_s = clock_->NowSeconds();
  request.deadline_s = request.enqueue_time_s + request.slack_s;

  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) {
    lock.unlock();
    bounced->push_back(std::move(request));
    return AdmitOutcome::kClosed;
  }
  const OverloadPolicy policy = PolicyFor(request.priority_class);
  const TenantQuota* quota =
      track_tenants_ ? config_.tenant_quotas.QuotaFor(request.tenant_id)
                     : nullptr;
  TenantState* tenant =
      track_tenants_ ? &tenants_[request.tenant_id] : nullptr;
  if (quota != nullptr && quota->rate_per_s > 0.0) {
    // Lazy token-bucket refill on the arrival stamp. An empty bucket
    // bounces immediately whatever the policy: there is no wakeup source
    // for "time passed", and a rate limiter is fail-fast by design.
    // Arrival stamps are taken before the lock, so same-tenant enqueuers
    // can reach this point with out-of-order timestamps; clamping the
    // refill instant at last_refill_s keeps the delta non-negative and the
    // bucket monotone (a rewound stamp must neither drain tokens nor
    // double-count a refill window).
    const double burst = quota->burst > 0.0 ? quota->burst : 1.0;
    const double refill_s =
        std::max(request.enqueue_time_s, tenant->last_refill_s);
    if (!tenant->bucket_started) {
      tenant->tokens = burst;
      tenant->bucket_started = true;
    } else {
      tenant->tokens =
          std::min(burst, tenant->tokens + (refill_s - tenant->last_refill_s) *
                                               quota->rate_per_s);
    }
    tenant->last_refill_s = refill_s;
    if (tenant->tokens < 1.0) {
      lock.unlock();
      bounced->push_back(std::move(request));
      return AdmitOutcome::kRejectedQuota;
    }
    // The token is spent by passing the rate gate, not by eventual
    // admission: reserving it here (before any kBlock wait releases the
    // lock) is what keeps concurrent same-tenant enqueuers from admitting
    // several requests against the same balance. A gate-passing request
    // that later bounces on capacity keeps its token spent — the bucket
    // limits arrival rate, not acceptance rate.
    tenant->tokens -= 1.0;
  }
  if (policy == OverloadPolicy::kBlock) {
    ++waiting_enqueuers_;
    not_full_.wait(lock, [this, cls, quota, tenant] {
      return closed_ || (HasSpaceLocked(cls) && TenantHasRoomLocked(quota, tenant));
    });
    --waiting_enqueuers_;
  }
  if (closed_) {
    lock.unlock();
    bounced->push_back(std::move(request));
    return AdmitOutcome::kClosed;
  }
  if (!TenantHasRoomLocked(quota, tenant)) {
    // Over quota (kBlock waited this out above, so the policy here is
    // kReject or kShedOldest).
    const bool queued_breach =
        quota->max_queued > 0 && tenant->queued >= quota->max_queued;
    if (policy == OverloadPolicy::kReject || !queued_breach) {
      // An in-flight breach is never sheddable: displacing queued work
      // frees no in-flight slot.
      lock.unlock();
      bounced->push_back(std::move(request));
      return AdmitOutcome::kRejectedQuota;
    }
    // kShedOldest on a queued-cap breach: displace the tenant's own queued
    // work — least important class first, never a class more important than
    // the arrival (when the tenant only has more-important work resident,
    // the arrival bounces instead of inverting priority).
    int victim_class = -1;
    for (int c = kNumPriorityClasses - 1; c >= cls; --c) {
      if (BandHasTenantLocked(c, request.tenant_id)) {
        victim_class = c;
        break;
      }
    }
    if (victim_class < 0) {
      lock.unlock();
      bounced->push_back(std::move(request));
      return AdmitOutcome::kRejectedQuota;
    }
    QueuedRequest victim;
    EvictVictimLocked(victim_class, request.tenant_id, &victim);
    --tenant->queued;
    bounced->push_back(std::move(victim));
  }
  if (!HasSpaceLocked(cls)) {
    if (policy == OverloadPolicy::kReject) {
      lock.unlock();
      bounced->push_back(std::move(request));
      return AdmitOutcome::kRejected;
    }
    // kShedOldest. A class-cap overflow sheds within the arriving class; a
    // queue-wide overflow sheds from the least important non-empty class
    // that is no more important than the arrival.
    const int class_cap =
        config_.classes[static_cast<size_t>(cls)].queue_capacity;
    int victim_class = -1;
    if (class_cap > 0 && bands_[static_cast<size_t>(cls)].heap.size() >=
                             static_cast<size_t>(class_cap)) {
      victim_class = cls;
    } else {
      for (int c = kNumPriorityClasses - 1; c >= cls; --c) {
        if (!bands_[static_cast<size_t>(c)].heap.empty()) {
          victim_class = c;
          break;
        }
      }
    }
    if (victim_class < 0) {
      // Everything resident outranks the arrival: shedding would invert
      // priority, so the arrival bounces instead.
      lock.unlock();
      bounced->push_back(std::move(request));
      return AdmitOutcome::kRejected;
    }
    QueuedRequest victim;
    EvictVictimLocked(victim_class, /*tenant_filter=*/-1, &victim);
    if (track_tenants_) --tenants_[victim.tenant_id].queued;
    bounced->push_back(std::move(victim));
  }
  if (tenant != nullptr) ++tenant->queued;
  std::vector<QueuedRequest>& band = bands_[static_cast<size_t>(cls)].heap;
  band.push_back(std::move(request));
  if (OrderForLocked(cls) == WithinClassOrder::kEdf) {
    std::push_heap(band.begin(), band.end(), Later);
  }
  depth_.store(TotalLocked(), std::memory_order_relaxed);
  const bool wake = waiting_poppers_ > 0;
  // Any shed can satisfy a blocked enqueuer's predicate even though the
  // total depth did not drop: a victim from another band frees that band's
  // class cap, a victim of another tenant frees that tenant's queued
  // quota, and a double shed (quota victim + capacity victim) opens net
  // queue-wide space. So every shedding enqueue must wake the waiters.
  const bool wake_enqueuers =
      bounced->size() > bounced_at_entry && waiting_enqueuers_ > 0;
  lock.unlock();
  if (wake) not_empty_.notify_one();
  if (wake_enqueuers) not_full_.notify_all();
  return AdmitOutcome::kAccepted;
}

bool AdmissionQueue::PopLocked(QueuedRequest* out) {
  if (TotalLocked() == 0) return false;
  const int cls = SelectClassLocked();
  // Only kHybrid feasibility needs the clock; spare the virtual call on the
  // kEdf/kValueDensity pop paths.
  const double now_s = OrderForLocked(cls) == WithinClassOrder::kHybrid
                           ? clock_->NowSeconds()
                           : 0.0;
  const size_t i = SelectWithinLocked(cls, now_s);
  RemoveAtLocked(cls, i, out);
  if (track_tenants_) {
    TenantState& tenant = tenants_[out->tenant_id];
    --tenant.queued;
    ++tenant.in_flight;
  }
  depth_.store(TotalLocked(), std::memory_order_relaxed);
  return true;
}

bool AdmissionQueue::TryPop(QueuedRequest* out) {
  AMS_CHECK(out != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  if (!PopLocked(out)) return false;
  const bool wake = waiting_enqueuers_ > 0;
  lock.unlock();
  // notify_all, not notify_one: blocked enqueuers wait on class- and
  // tenant-specific predicates (per-class caps, tenant quotas), so the
  // single woken thread might not be the one that gained space.
  if (wake) not_full_.notify_all();
  return true;
}

int AdmissionQueue::TryPopBatch(int max_requests,
                                std::vector<QueuedRequest>* out) {
  AMS_CHECK(out != nullptr);
  int popped = 0;
  std::unique_lock<std::mutex> lock(mu_);
  QueuedRequest request;
  while (popped < max_requests && PopLocked(&request)) {
    out->push_back(std::move(request));
    ++popped;
  }
  const bool wake = popped > 0 && waiting_enqueuers_ > 0;
  lock.unlock();
  if (wake) {
    // Several slots may have opened at once, across several classes.
    not_full_.notify_all();
  }
  return popped;
}

bool AdmissionQueue::WaitPop(QueuedRequest* out) {
  AMS_CHECK(out != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  ++waiting_poppers_;
  not_empty_.wait(lock, [this] { return closed_ || TotalLocked() > 0; });
  --waiting_poppers_;
  if (!PopLocked(out)) return false;  // closed and empty: no more work, ever
  const bool wake = waiting_enqueuers_ > 0;
  lock.unlock();
  if (wake) not_full_.notify_all();
  return true;
}

void AdmissionQueue::TenantFinished(int tenant_id) {
  if (!track_tenants_) return;
  std::unique_lock<std::mutex> lock(mu_);
  TenantState& tenant = tenants_[tenant_id];
  AMS_CHECK(tenant.in_flight > 0, "TenantFinished without a matching pop");
  --tenant.in_flight;
  const bool wake = waiting_enqueuers_ > 0;
  lock.unlock();
  // A freed in-flight slot may unblock a kBlock enqueuer of this tenant.
  if (wake) not_full_.notify_all();
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t AdmissionQueue::class_size(PriorityClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return bands_[static_cast<size_t>(cls)].heap.size();
}

int AdmissionQueue::tenant_queued(int tenant_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant_id);
  return it == tenants_.end() ? 0 : it->second.queued;
}

int AdmissionQueue::tenant_in_flight(int tenant_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant_id);
  return it == tenants_.end() ? 0 : it->second.in_flight;
}

int AdmissionQueue::waiting_enqueuers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_enqueuers_;
}

}  // namespace ams::serve
