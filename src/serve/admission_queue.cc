#include "serve/admission_queue.h"

#include <algorithm>
#include <cmath>
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

AdmissionQueue::AdmissionQueue(const AdmissionConfig& config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock
                                     : &util::Clock::Monotonic()),
      track_tenants_(!config.tenant_quotas.empty()) {
  AMS_CHECK(config_.capacity >= 1, "admission queue needs capacity >= 1");
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

void AdmissionQueue::Band::Push(const EdfKey& key) {
  if (sorted && (empty() || Later()(key, keys.back()))) {
    keys.push_back(key);
    return;
  }
  if (sorted) {
    DropPopped();
    sorted = false;
  }
  keys.push_back(key);
  std::push_heap(keys.begin(), keys.end(), Later());
}

AdmissionQueue::EdfKey AdmissionQueue::Band::Pop() {
  if (sorted) {
    const EdfKey key = keys[head++];
    if (2 * head >= keys.size()) DropPopped();
    return key;
  }
  std::pop_heap(keys.begin(), keys.end(), Later());
  const EdfKey key = keys.back();
  keys.pop_back();
  sorted = keys.empty();
  return key;
}

AdmissionQueue::EdfKey AdmissionQueue::Band::Remove(size_t i) {
  // Sheds come only with overload, so a sorted band turns into a heap here
  // rather than keep a removal path of its own (no-op on a heap).
  i -= head;
  DropPopped();
  sorted = false;
  const EdfKey key = keys[i];
  // Removal from the middle breaks the heap property at one position;
  // re-heapify the bounded band.
  keys[i] = keys.back();
  keys.pop_back();
  std::make_heap(keys.begin(), keys.end(), Later());
  sorted = keys.empty();
  return key;
}

void AdmissionQueue::Band::DropPopped() {
  keys.erase(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(head));
  head = 0;
}

bool AdmissionQueue::HasSpaceLocked() const {
  return queued_ < static_cast<size_t>(config_.capacity);
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
  // The current class keeps its turn while it has work and credit;
  // otherwise the turn advances cyclically to the next non-empty class,
  // reloading that class's credit from its weight.
  if (rr_credit_ > 0 && !bands_[static_cast<size_t>(rr_class_)].empty()) {
    --rr_credit_;
    return rr_class_;
  }
  for (int step = 1; step <= kNumPriorityClasses; ++step) {
    const int c = (rr_class_ + step) % kNumPriorityClasses;
    if (!bands_[static_cast<size_t>(c)].empty()) {
      rr_class_ = c;
      rr_credit_ = kClassWeights[static_cast<size_t>(c)] - 1;
      return c;
    }
  }
  AMS_CHECK(false, "SelectClassLocked called on an empty queue");
  return -1;
}

bool AdmissionQueue::BandHasTenantLocked(int cls, int tenant) const {
  const Band& band = bands_[static_cast<size_t>(cls)];
  for (size_t i = band.head; i < band.keys.size(); ++i) {
    if (band.keys[i].tenant_id == tenant) return true;
  }
  return false;
}

uint32_t AdmissionQueue::ParkLocked(QueuedRequest&& request) {
  if (free_slots_.empty()) {
    pool_.push_back(std::move(request));
    return static_cast<uint32_t>(pool_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  pool_[slot] = std::move(request);
  return slot;
}

void AdmissionQueue::EvictVictimLocked(int cls, int tenant_filter,
                                       std::vector<QueuedRequest>* bounced) {
  Band& band = bands_[static_cast<size_t>(cls)];
  AMS_CHECK(!band.empty(), "no shed victim in the chosen class");
  // Linear scan over the bounded band for the oldest admission sequence.
  const std::vector<EdfKey>& keys = band.keys;
  size_t chosen = keys.size();
  for (size_t i = band.head; i < keys.size(); ++i) {
    if (tenant_filter >= 0 && keys[i].tenant_id != tenant_filter) continue;
    if (chosen == keys.size() || keys[i].sequence < keys[chosen].sequence) {
      chosen = i;
    }
  }
  AMS_CHECK(chosen < keys.size(), "no shed victim matches the tenant filter");
  const uint32_t slot = band.Remove(chosen).slot;
  --queued_;
  free_slots_.push_back(slot);
  bounced->push_back(std::move(pool_[slot]));
}

AdmitOutcome AdmissionQueue::Enqueue(QueuedRequest&& request,
                                     std::vector<QueuedRequest>* bounced) {
  AMS_CHECK(bounced != nullptr);
  const int cls = static_cast<int>(request.priority_class);
  AMS_CHECK(cls >= 0 && cls < kNumPriorityClasses, "unknown priority class");
  // Negative ids would collide with EvictVictimLocked's "no tenant filter"
  // sentinel and corrupt quota accounting.
  AMS_CHECK(request.tenant_id >= 0, "tenant ids must be >= 0");
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
  const OverloadPolicy policy = config_.overload;
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
    not_full_.wait(lock, [this, quota, tenant] {
      return closed_ ||
             (HasSpaceLocked() && TenantHasRoomLocked(quota, tenant));
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
    EvictVictimLocked(victim_class, request.tenant_id, bounced);
    --tenant->queued;
  }
  if (!HasSpaceLocked()) {
    if (policy == OverloadPolicy::kReject) {
      lock.unlock();
      bounced->push_back(std::move(request));
      return AdmitOutcome::kRejected;
    }
    // kShedOldest: shed from the least important non-empty class that is
    // no more important than the arrival.
    int victim_class = -1;
    for (int c = kNumPriorityClasses - 1; c >= cls; --c) {
      if (!bands_[static_cast<size_t>(c)].empty()) {
        victim_class = c;
        break;
      }
    }
    if (victim_class < 0) {
      // Everything resident outranks the arrival: shedding would invert
      // priority, so the arrival bounces instead.
      lock.unlock();
      bounced->push_back(std::move(request));
      return AdmitOutcome::kRejected;
    }
    EvictVictimLocked(victim_class, /*tenant_filter=*/-1, bounced);
    if (track_tenants_) --tenants_[bounced->back().tenant_id].queued;
  }
  if (tenant != nullptr) ++tenant->queued;
  EdfKey key{request.deadline_s, request.sequence, 0, request.tenant_id};
  key.slot = ParkLocked(std::move(request));
  bands_[static_cast<size_t>(cls)].Push(key);
  ++queued_;
  depth_.store(queued_, std::memory_order_relaxed);
  // Only kBlock enqueuers wait and only kShedOldest sheds, so no shed here
  // can be owed to a blocked enqueuer; poppers are the only wake.
  const bool wake = waiting_poppers_ > 0;
  lock.unlock();
  if (wake) not_empty_.notify_one();
  return AdmitOutcome::kAccepted;
}

QueuedRequest& AdmissionQueue::PopLocked() {
  const EdfKey key = bands_[static_cast<size_t>(SelectClassLocked())].Pop();
  if (track_tenants_) {
    TenantState& tenant = tenants_[key.tenant_id];
    --tenant.queued;
    ++tenant.in_flight;
  }
  --queued_;
  depth_.store(queued_, std::memory_order_relaxed);
  free_slots_.push_back(key.slot);
  return pool_[key.slot];
}

int AdmissionQueue::PopBatchAndUnlock(int max_requests,
                                      std::vector<QueuedRequest>* out,
                                      std::unique_lock<std::mutex>* lock) {
  int popped = 0;
  // Each request moves once, from its pool slot into `out`.
  while (popped < max_requests && queued_ > 0) {
    out->push_back(std::move(PopLocked()));
    ++popped;
  }
  const bool wake = popped > 0 && waiting_enqueuers_ > 0;
  lock->unlock();
  // notify_all, not notify_one: several slots may have opened at once, and
  // blocked enqueuers wait on tenant-specific predicates (tenant quotas),
  // so a single woken thread might not be the one that gained space.
  if (wake) not_full_.notify_all();
  return popped;
}

int AdmissionQueue::TryPopBatch(int max_requests,
                                std::vector<QueuedRequest>* out) {
  AMS_CHECK(out != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  return PopBatchAndUnlock(max_requests, out, &lock);
}

int AdmissionQueue::WaitPopBatch(int max_requests,
                                 std::vector<QueuedRequest>* out) {
  AMS_CHECK(out != nullptr);
  AMS_CHECK(max_requests > 0, "a blocking pop must ask for a request");
  std::unique_lock<std::mutex> lock(mu_);
  ++waiting_poppers_;
  not_empty_.wait(lock, [this] { return closed_ || queued_ > 0; });
  --waiting_poppers_;
  // Closed and empty pops nothing: no more work, ever.
  return PopBatchAndUnlock(max_requests, out, &lock);
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
  return bands_[static_cast<size_t>(cls)].size();
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
