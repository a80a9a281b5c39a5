// Model-checking harness for serve::AdmissionQueue: a single-threaded
// reference model reimplements the queue's documented pop-order and
// admission contract (EDF within a class, weighted round-robin at 8:4:1
// between classes, the queue-wide overload policy, and per-tenant quotas:
// queued caps, in-flight caps, rate token buckets) in the simplest possible
// form, and randomized seeded op sequences — enqueue / pop / batch-pop /
// tenant-finish / clock-advance / close across every overload policy,
// priority class and tenant — are replayed against both implementations,
// asserting exactly equal pop order and exactly equal shed/reject/quota
// decisions at every step. The harness also checks the round-robin's
// starvation limits (a class with queued work is passed over at most
// 5 / 9 / 12 consecutive pops: interactive / standard / batch) on every
// trace, and locks two regressions: a uniform-class workload must pop in
// exactly the legacy single-band EDF order, and tenant ids must do nothing
// without quotas. A deep-band case runs bands hundreds deep, kept sorted
// while arrivals come in order and turned into heaps when one does not,
// against the model; a payload case checks that every request leaves the
// queue's slot pool with its own item, stream id, trace id and promise
// while the pool grows and its slots are reused. A final multi-threaded
// stress run checks conservation (every request resolves exactly once)
// under real concurrency — the ordering claims stay single-threaded where
// they are well-defined.
//
// The per-config seed count is 25 by default and env-overridable via
// AMS_MODEL_SEEDS (the nightly CI soak runs 500).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/admission_queue.h"
#include "serve/priority_class.h"
#include "util/clock.h"

namespace ams::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

int SeedsPerConfig() {
  const char* env = std::getenv("AMS_MODEL_SEEDS");
  if (env == nullptr) return 25;
  const int value = std::atoi(env);
  return value > 0 ? value : 25;
}

// --- the reference model ---------------------------------------------------

/// What the model predicts for one Enqueue.
struct ModelAdmit {
  AdmitOutcome outcome = AdmitOutcome::kAccepted;
  /// Sequences of shed victims, in eviction order (a quota shed may be
  /// followed by a capacity shed on the same enqueue).
  std::vector<uint64_t> victims;
};

/// Single-threaded executable spec of AdmissionQueue. Deliberately naive:
/// plain sorted scans instead of heaps, one explicit branch per contract
/// clause, no locks — an independent implementation to diff the real queue
/// against, not a copy of it.
class ReferenceQueue {
 public:
  /// The contract's round-robin weights, interactive:standard:batch.
  static constexpr int kWeights[kNumPriorityClasses] = {8, 4, 1};

  struct Request {
    uint64_t sequence = 0;
    int cls = 0;
    int tenant = 0;
    double deadline_s = kInf;
  };

  ReferenceQueue(const AdmissionConfig& config, const util::Clock* clock)
      : config_(config),
        clock_(clock),
        track_tenants_(!config.tenant_quotas.empty()) {}

  ModelAdmit Enqueue(uint64_t sequence, int cls, double slack_s, int tenant) {
    ModelAdmit result;
    const double now = clock_->NowSeconds();
    const double deadline = now + slack_s;
    if (closed_) {
      result.outcome = AdmitOutcome::kClosed;
      return result;
    }
    const TenantQuota* quota =
        track_tenants_ ? config_.tenant_quotas.QuotaFor(tenant) : nullptr;
    TenantState* state = track_tenants_ ? &tenants_[tenant] : nullptr;
    if (quota != nullptr && quota->rate_per_s > 0.0) {
      const double burst = quota->burst > 0.0 ? quota->burst : 1.0;
      // Mirrors the real queue's non-negative refill clamp (a no-op here:
      // the single-threaded harness's stamps are monotone).
      const double refill_s = std::max(now, state->last_refill_s);
      if (!state->bucket_started) {
        state->tokens = burst;
        state->bucket_started = true;
      } else {
        state->tokens = std::min(
            burst, state->tokens +
                       (refill_s - state->last_refill_s) * quota->rate_per_s);
      }
      state->last_refill_s = refill_s;
      if (state->tokens < 1.0) {
        result.outcome = AdmitOutcome::kRejectedQuota;
        return result;
      }
      // Spent by passing the gate (not by admission), like the real queue.
      state->tokens -= 1.0;
    }
    const OverloadPolicy policy = config_.overload;
    if (!TenantHasRoom(quota, state)) {
      // The single-threaded harness never enqueues when kBlock would park.
      EXPECT_NE(policy, OverloadPolicy::kBlock);
      const bool queued_breach =
          quota->max_queued > 0 && state->queued >= quota->max_queued;
      if (policy == OverloadPolicy::kReject || !queued_breach) {
        result.outcome = AdmitOutcome::kRejectedQuota;
        return result;
      }
      // Shed the tenant's own queued work: least important class first,
      // never a class more important than the arrival.
      int victim_class = -1;
      for (int c = kNumPriorityClasses - 1; c >= cls; --c) {
        if (BandHasTenant(c, tenant)) {
          victim_class = c;
          break;
        }
      }
      if (victim_class < 0) {
        result.outcome = AdmitOutcome::kRejectedQuota;
        return result;
      }
      const Request victim = EvictOldest(victim_class, tenant);
      --state->queued;
      result.victims.push_back(victim.sequence);
    }
    if (!HasSpace()) {
      EXPECT_NE(policy, OverloadPolicy::kBlock);
      if (policy == OverloadPolicy::kReject) {
        result.outcome = AdmitOutcome::kRejected;
        return result;
      }
      // Shed from the least important non-empty class no more important
      // than the arrival.
      int victim_class = -1;
      for (int c = kNumPriorityClasses - 1; c >= cls; --c) {
        if (!bands_[static_cast<size_t>(c)].empty()) {
          victim_class = c;
          break;
        }
      }
      if (victim_class < 0) {
        result.outcome = AdmitOutcome::kRejected;
        return result;
      }
      const Request victim = EvictOldest(victim_class, /*tenant_filter=*/-1);
      if (track_tenants_) --tenants_[victim.tenant].queued;
      result.victims.push_back(victim.sequence);
    }
    if (state != nullptr) ++state->queued;
    bands_[static_cast<size_t>(cls)].push_back(
        {sequence, cls, tenant, deadline});
    return result;
  }

  /// Predicts the next pop: which request comes out, updating the
  /// round-robin turn and tenant accounting exactly per the contract.
  std::optional<Request> Pop() {
    if (TotalSize() == 0) return std::nullopt;
    // 1. Weighted round-robin between classes.
    int chosen = -1;
    if (rr_credit_ > 0 && !bands_[static_cast<size_t>(rr_class_)].empty()) {
      chosen = rr_class_;
      --rr_credit_;
    } else {
      for (int step = 1; step <= kNumPriorityClasses; ++step) {
        const int c = (rr_class_ + step) % kNumPriorityClasses;
        if (!bands_[static_cast<size_t>(c)].empty()) {
          rr_class_ = c;
          rr_credit_ = kWeights[c] - 1;
          chosen = c;
          break;
        }
      }
    }
    // 2. EDF within the chosen class: (deadline, sequence).
    std::vector<Request>& band = bands_[static_cast<size_t>(chosen)];
    size_t best = 0;
    for (size_t i = 1; i < band.size(); ++i) {
      if (band[i].deadline_s < band[best].deadline_s ||
          (band[i].deadline_s == band[best].deadline_s &&
           band[i].sequence < band[best].sequence)) {
        best = i;
      }
    }
    const Request popped = band[best];
    band.erase(band.begin() + static_cast<long>(best));
    if (track_tenants_) {
      TenantState& state = tenants_[popped.tenant];
      --state.queued;
      ++state.in_flight;
    }
    return popped;
  }

  /// Mirrors AdmissionQueue::TenantFinished.
  void Finish(int tenant) {
    if (!track_tenants_) return;
    --tenants_[tenant].in_flight;
  }

  void Close() { closed_ = true; }

  bool HasSpace() const {
    return TotalSize() < static_cast<size_t>(config_.capacity);
  }

  /// Whether an enqueue for `tenant` would be admitted without parking
  /// (kBlock) — the harness's "skip this op" guard.
  bool TenantHasRoomNow(int tenant) const {
    if (!track_tenants_) return true;
    const TenantQuota* quota = config_.tenant_quotas.QuotaFor(tenant);
    const auto it = tenants_.find(tenant);
    return TenantHasRoom(quota,
                         it == tenants_.end() ? nullptr : &it->second);
  }

  size_t TotalSize() const {
    size_t total = 0;
    for (const std::vector<Request>& band : bands_) total += band.size();
    return total;
  }

  size_t BandSize(int cls) const {
    return bands_[static_cast<size_t>(cls)].size();
  }

  int TenantQueued(int tenant) const {
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.queued;
  }

  int TenantInFlight(int tenant) const {
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.in_flight;
  }

  bool closed() const { return closed_; }
  bool tracks_tenants() const { return track_tenants_; }

 private:
  struct TenantState {
    int queued = 0;
    int in_flight = 0;
    double tokens = 0.0;
    double last_refill_s = 0.0;
    bool bucket_started = false;
  };

  bool TenantHasRoom(const TenantQuota* quota,
                     const TenantState* state) const {
    if (quota == nullptr || state == nullptr) return true;
    if (quota->max_queued > 0 && state->queued >= quota->max_queued) {
      return false;
    }
    return quota->max_in_flight == 0 ||
           state->in_flight < quota->max_in_flight;
  }

  bool BandHasTenant(int cls, int tenant) const {
    for (const Request& request : bands_[static_cast<size_t>(cls)]) {
      if (request.tenant == tenant) return true;
    }
    return false;
  }

  /// Removes and returns the oldest request of class `cls` (optionally
  /// restricted to one tenant).
  Request EvictOldest(int cls, int tenant_filter) {
    std::vector<Request>& band = bands_[static_cast<size_t>(cls)];
    size_t chosen = band.size();
    for (size_t i = 0; i < band.size(); ++i) {
      if (tenant_filter >= 0 && band[i].tenant != tenant_filter) continue;
      if (chosen == band.size() || band[i].sequence < band[chosen].sequence) {
        chosen = i;
      }
    }
    const Request victim = band[chosen];
    band.erase(band.begin() + static_cast<long>(chosen));
    return victim;
  }

  const AdmissionConfig config_;
  const util::Clock* clock_;
  const bool track_tenants_;
  std::array<std::vector<Request>, kNumPriorityClasses> bands_;
  std::map<int, TenantState> tenants_;
  int rr_class_ = kNumPriorityClasses - 1;
  int rr_credit_ = 0;
  bool closed_ = false;
};

// --- the harness -----------------------------------------------------------

QueuedRequest MakeRequest(uint64_t sequence, double slack_s, int cls,
                          int tenant = 0) {
  QueuedRequest request;
  request.sequence = sequence;
  request.slack_s = slack_s;
  request.priority_class = static_cast<PriorityClass>(cls);
  request.tenant_id = tenant;
  return request;
}

/// Tracks the round-robin's starvation limits along a pop trace: a class
/// with queued work is passed over at most 5 (interactive), 9 (standard)
/// or 12 (batch) consecutive pops — the other two weights' sum.
class StarvationChecker {
 public:
  static constexpr int kMaxPassedOver[kNumPriorityClasses] = {5, 9, 12};

  /// `queued_before` = per-class band sizes before the pop; `served` = the
  /// popped class.
  void OnPop(const std::array<size_t, kNumPriorityClasses>& queued_before,
             int served) {
    for (int c = 0; c < kNumPriorityClasses; ++c) {
      if (c == served || queued_before[static_cast<size_t>(c)] == 0) {
        passed_[static_cast<size_t>(c)] = 0;
      } else {
        ++passed_[static_cast<size_t>(c)];
        ASSERT_LE(passed_[static_cast<size_t>(c)], kMaxPassedOver[c])
            << "class " << c << " passed over past its round-robin limit";
      }
    }
  }

 private:
  std::array<int, kNumPriorityClasses> passed_{};
};

struct NamedConfig {
  std::string name;
  AdmissionConfig config;
};

/// One config per overload policy, plus the tenant-quota shapes.
std::vector<NamedConfig> PropertyConfigs() {
  std::vector<NamedConfig> configs;
  {
    AdmissionConfig c;
    c.capacity = 8;
    c.overload = OverloadPolicy::kReject;
    configs.push_back({"default_reject", c});
  }
  {
    AdmissionConfig c;
    c.capacity = 6;
    c.overload = OverloadPolicy::kShedOldest;
    configs.push_back({"default_shed", c});
  }
  {
    AdmissionConfig c;
    c.capacity = 8;
    c.overload = OverloadPolicy::kBlock;
    configs.push_back({"default_block", c});
  }
  {
    AdmissionConfig c;  // every tenant capped at 2 queued, shed policy
    c.capacity = 8;
    c.overload = OverloadPolicy::kShedOldest;
    c.tenant_quotas.default_quota = TenantQuota{2, 0, 0.0, 0.0};
    configs.push_back({"tenant_queued_caps_shed", c});
  }
  {
    AdmissionConfig c;  // in-flight caps: admission depends on TenantFinished
    c.capacity = 8;
    c.overload = OverloadPolicy::kReject;
    c.tenant_quotas.default_quota = TenantQuota{0, 2, 0.0, 0.0};
    configs.push_back({"tenant_inflight_caps_reject", c});
  }
  {
    AdmissionConfig c;  // tenant 0 rate-limited, tenant 1 capped
    c.capacity = 8;
    c.overload = OverloadPolicy::kShedOldest;
    c.tenant_quotas.per_tenant[0] = TenantQuota{0, 0, 1.0, 3.0};
    c.tenant_quotas.per_tenant[1] = TenantQuota{2, 2, 0.0, 0.0};
    configs.push_back({"rate_limited_tenant", c});
  }
  return configs;
}

/// One randomized episode: drive the real queue and the model through the
/// same seeded op sequence and require identical observable behavior at
/// every step.
void RunEpisode(const NamedConfig& named, uint64_t seed, int num_ops) {
  util::ManualClock clock;
  AdmissionConfig config = named.config;
  config.clock = &clock;
  AdmissionQueue real(config);
  ReferenceQueue model(config, &clock);
  StarvationChecker starvation;

  std::mt19937_64 rng(seed);
  const double slacks[] = {0.5, 1.0, 1.0, 2.0, 4.0, kInf};  // ties included
  constexpr int kTenants = 3;
  uint64_t next_sequence = 0;
  /// Popped-but-unfinished requests, FIFO: (sequence, tenant).
  std::deque<std::pair<uint64_t, int>> outstanding;
  const std::string context = named.name + " seed " + std::to_string(seed);

  const auto pop_once = [&]() {
    std::array<size_t, kNumPriorityClasses> queued_before{};
    for (int c = 0; c < kNumPriorityClasses; ++c) {
      queued_before[static_cast<size_t>(c)] = model.BandSize(c);
    }
    const std::optional<ReferenceQueue::Request> expected = model.Pop();
    QueuedRequest popped;
    const bool got = real.TryPop(&popped);
    ASSERT_EQ(got, expected.has_value()) << context;
    if (!got) return;
    ASSERT_EQ(popped.sequence, expected->sequence) << context;
    ASSERT_EQ(static_cast<int>(popped.priority_class), expected->cls)
        << context;
    ASSERT_EQ(popped.tenant_id, expected->tenant) << context;
    outstanding.emplace_back(expected->sequence, expected->tenant);
    starvation.OnPop(queued_before, expected->cls);
  };
  const auto finish_once = [&]() {
    if (outstanding.empty()) return;
    const int tenant = outstanding.front().second;
    outstanding.pop_front();
    real.TenantFinished(tenant);
    model.Finish(tenant);
  };

  for (int op = 0; op < num_ops; ++op) {
    const uint64_t roll = rng() % 100;
    if (roll < 10) clock.Advance(static_cast<double>(rng() % 3));
    if (roll < 55) {
      const int cls = static_cast<int>(rng() % kNumPriorityClasses);
      const int tenant = static_cast<int>(rng() % kTenants);
      const double slack = slacks[rng() % std::size(slacks)];
      if (!model.closed() &&
          (!model.HasSpace() || !model.TenantHasRoomNow(tenant)) &&
          config.overload == OverloadPolicy::kBlock) {
        // A kBlock enqueue would park forever without a concurrent worker;
        // free a slot (a finish unblocks in-flight caps, a pop unblocks
        // queue space) and skip the enqueue.
        if (!outstanding.empty()) {
          finish_once();
        } else {
          pop_once();
          if (::testing::Test::HasFatalFailure()) return;
        }
        continue;
      }
      const uint64_t sequence = next_sequence++;
      const ModelAdmit expected = model.Enqueue(sequence, cls, slack, tenant);
      std::vector<QueuedRequest> bounced;
      const AdmitOutcome outcome =
          real.Enqueue(MakeRequest(sequence, slack, cls, tenant), &bounced);
      ASSERT_EQ(outcome, expected.outcome) << context;
      if (outcome == AdmitOutcome::kAccepted) {
        ASSERT_EQ(bounced.size(), expected.victims.size()) << context;
        for (size_t v = 0; v < bounced.size(); ++v) {
          ASSERT_EQ(bounced[v].sequence, expected.victims[v]) << context;
        }
      } else {
        ASSERT_EQ(bounced.size(), 1u) << context;
        ASSERT_EQ(bounced[0].sequence, sequence) << context;
        ASSERT_TRUE(expected.victims.empty()) << context;
      }
    } else if (roll < 75) {
      pop_once();
      if (::testing::Test::HasFatalFailure()) return;
    } else if (roll < 87) {
      const int batch = static_cast<int>(rng() % 4) + 1;
      for (int i = 0; i < batch; ++i) {
        // Batch pops must span classes exactly like successive TryPops; the
        // real queue's TryPopBatch is compared one element at a time.
        pop_once();
        if (::testing::Test::HasFatalFailure()) return;
      }
    } else if (roll < 95) {
      finish_once();
    } else if (roll >= 97 && !model.closed()) {
      real.Close();
      model.Close();
    }
    ASSERT_EQ(real.size(), model.TotalSize()) << context;
    for (int c = 0; c < kNumPriorityClasses; ++c) {
      ASSERT_EQ(real.class_size(static_cast<PriorityClass>(c)),
                model.BandSize(c))
          << context << " class " << c;
    }
    if (model.tracks_tenants()) {
      for (int t = 0; t < kTenants; ++t) {
        ASSERT_EQ(real.tenant_queued(t), model.TenantQueued(t))
            << context << " tenant " << t;
        ASSERT_EQ(real.tenant_in_flight(t), model.TenantInFlight(t))
            << context << " tenant " << t;
      }
    }
  }
  // Drain both completely and compare the tail order.
  while (model.TotalSize() > 0) {
    pop_once();
    if (::testing::Test::HasFatalFailure()) return;
  }
  QueuedRequest leftover;
  ASSERT_FALSE(real.TryPop(&leftover)) << context;
}

TEST(AdmissionModelTest, RandomizedOpSequencesMatchTheReferenceModel) {
  const int seeds_per_config = SeedsPerConfig();
  constexpr int kOpsPerEpisode = 400;
  for (const NamedConfig& named : PropertyConfigs()) {
    for (uint64_t seed = 1;
         seed <= static_cast<uint64_t>(seeds_per_config); ++seed) {
      RunEpisode(named, seed, kOpsPerEpisode);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(AdmissionModelTest, DeepInOrderBandsMatchTheModel) {
  // A band keeps its keys sorted while arrivals come in (deadline,
  // sequence) order and drops popped keys in bulk; an arrival out of that
  // order, or a shed, turns it into a heap until it empties. The randomized
  // episodes above stay a few requests deep. Here each class has one slack
  // and the clock only moves forward, so arrivals come in order and bands
  // grow hundreds deep until the fills shed past capacity; in odd rounds one
  // arrival in 40 takes a shorter slack, which turns its band into a heap.
  // Every outcome, shed victim and pop is compared with the model.
  util::ManualClock clock;
  AdmissionConfig config;
  config.capacity = 600;
  config.overload = OverloadPolicy::kShedOldest;
  config.tenant_quotas.default_quota = TenantQuota{250, 0, 0.0, 0.0};
  config.clock = &clock;
  AdmissionQueue real(config);
  ReferenceQueue model(config, &clock);
  std::mt19937_64 rng(30);
  const double class_slacks[kNumPriorityClasses] = {1.0, 2.0, kInf};
  uint64_t next_sequence = 0;

  const auto enqueue = [&](bool out_of_order) {
    const int cls = static_cast<int>(rng() % kNumPriorityClasses);
    const int tenant = static_cast<int>(rng() % 3);
    const double slack =
        out_of_order ? 0.25 : class_slacks[static_cast<size_t>(cls)];
    const uint64_t sequence = next_sequence++;
    const ModelAdmit expected = model.Enqueue(sequence, cls, slack, tenant);
    std::vector<QueuedRequest> bounced;
    ASSERT_EQ(real.Enqueue(MakeRequest(sequence, slack, cls, tenant),
                           &bounced),
              expected.outcome)
        << "sequence " << sequence;
    if (expected.outcome != AdmitOutcome::kAccepted) {
      ASSERT_EQ(bounced.size(), 1u);
      ASSERT_EQ(bounced[0].sequence, sequence);
      return;
    }
    ASSERT_EQ(bounced.size(), expected.victims.size());
    for (size_t v = 0; v < bounced.size(); ++v) {
      ASSERT_EQ(bounced[v].sequence, expected.victims[v]);
    }
  };
  const auto pop_batch = [&](int max_requests) {
    std::vector<QueuedRequest> batch;
    real.TryPopBatch(max_requests, &batch);
    for (const QueuedRequest& popped : batch) {
      const std::optional<ReferenceQueue::Request> expected = model.Pop();
      ASSERT_TRUE(expected.has_value());
      ASSERT_EQ(popped.sequence, expected->sequence);
    }
    if (static_cast<int>(batch.size()) < max_requests) {
      ASSERT_EQ(model.TotalSize(), 0u);
    }
  };

  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    const bool mixed = round % 2 == 1;
    // Fill: mostly arrivals, up to capacity and past it (sheds).
    for (int op = 0; op < 800; ++op) {
      clock.Advance(0.001);
      if (rng() % 10 < 9) {
        enqueue(mixed && rng() % 40 == 0);
      } else {
        pop_batch(1);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Drain: mostly batch pops, a trickle of arrivals.
    while (model.TotalSize() > 0) {
      clock.Advance(0.001);
      if (rng() % 10 < 2) {
        enqueue(mixed && rng() % 40 == 0);
      } else {
        pop_batch(static_cast<int>(rng() % 8) + 1);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(real.size(), 0u);
  }
  EXPECT_GE(next_sequence, 6000u);
}

TEST(AdmissionModelTest, BatchPopsMatchTheModelAcrossClasses) {
  // Dedicated TryPopBatch-vs-model pass: fill with a class/deadline mix,
  // then drain through one big batch pop and compare against successive
  // model pops.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    util::ManualClock clock;
    AdmissionConfig config;
    config.capacity = 32;
    config.overload = OverloadPolicy::kReject;
    config.clock = &clock;
    AdmissionQueue real(config);
    ReferenceQueue model(config, &clock);
    std::mt19937_64 rng(seed);
    const double slacks[] = {0.5, 1.0, 1.0, 3.0, kInf};
    for (uint64_t sequence = 0; sequence < 24; ++sequence) {
      const int cls = static_cast<int>(rng() % kNumPriorityClasses);
      const double slack = slacks[rng() % std::size(slacks)];
      model.Enqueue(sequence, cls, slack, /*tenant=*/0);
      std::vector<QueuedRequest> bounced;
      ASSERT_EQ(real.Enqueue(MakeRequest(sequence, slack, cls), &bounced),
                AdmitOutcome::kAccepted);
    }
    std::vector<QueuedRequest> drained;
    ASSERT_EQ(real.TryPopBatch(24, &drained), 24);
    for (const QueuedRequest& popped : drained) {
      const std::optional<ReferenceQueue::Request> expected = model.Pop();
      ASSERT_TRUE(expected.has_value());
      ASSERT_EQ(popped.sequence, expected->sequence) << "seed " << seed;
    }
  }
}

TEST(AdmissionModelTest, SingleClassWorkloadsReproduceLegacyEdfOrderExactly) {
  // The regression lock for the pre-priority-class queue: with every
  // request in one class, the pop order must be exactly the single-band
  // EDF order — sort by (deadline, admission sequence).
  for (const PriorityClass only_class :
       {PriorityClass::kInteractive, PriorityClass::kStandard,
        PriorityClass::kBatch}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      util::ManualClock clock;
      AdmissionConfig config;  // default weights — irrelevant with one class
      config.capacity = 64;
      config.overload = OverloadPolicy::kReject;
      config.clock = &clock;
      AdmissionQueue queue(config);
      std::mt19937_64 rng(seed ^ (static_cast<uint64_t>(only_class) << 32));
      const double slacks[] = {0.25, 1.0, 1.0, 1.0, 2.0, 7.5, kInf, kInf};
      std::vector<std::pair<double, uint64_t>> expected;  // (deadline, seq)
      for (uint64_t sequence = 0; sequence < 48; ++sequence) {
        const double slack = slacks[rng() % std::size(slacks)];
        std::vector<QueuedRequest> bounced;
        ASSERT_EQ(
            queue.Enqueue(
                MakeRequest(sequence, slack, static_cast<int>(only_class)),
                &bounced),
            AdmitOutcome::kAccepted);
        expected.emplace_back(clock.NowSeconds() + slack, sequence);
        if (rng() % 4 == 0) clock.Advance(1.0);
      }
      std::stable_sort(expected.begin(), expected.end());
      QueuedRequest popped;
      for (const auto& [deadline, sequence] : expected) {
        ASSERT_TRUE(queue.TryPop(&popped));
        ASSERT_EQ(popped.sequence, sequence) << "seed " << seed;
        ASSERT_EQ(popped.deadline_s, deadline) << "seed " << seed;
      }
      ASSERT_FALSE(queue.TryPop(&popped));
    }
  }
}

TEST(AdmissionModelTest, TenantIdsDoNothingWithoutQuotasBitExactly) {
  // Without quotas (the default) the queue must behave bit-identically
  // whether or not requests carry tenant ids: tenants are inert payload
  // until a quota table names them.
  EXPECT_TRUE(AdmissionConfig().tenant_quotas.empty());
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    util::ManualClock clock_a, clock_b;
    AdmissionConfig config;
    config.capacity = 16;
    config.overload = OverloadPolicy::kShedOldest;
    AdmissionConfig config_a = config;
    config_a.clock = &clock_a;
    AdmissionConfig config_b = config;
    config_b.clock = &clock_b;
    AdmissionQueue plain(config_a);    // every request tenant 0
    AdmissionQueue stamped(config_b);  // same stream with random tenants
    std::mt19937_64 rng(seed);
    const double slacks[] = {0.5, 1.0, 1.0, 2.0, kInf};
    uint64_t sequence = 0;
    for (int op = 0; op < 200; ++op) {
      const uint64_t roll = rng() % 100;
      if (roll < 10) {
        const double advance = static_cast<double>(rng() % 3);
        clock_a.Advance(advance);
        clock_b.Advance(advance);
      }
      if (roll < 60) {
        const int cls = static_cast<int>(rng() % kNumPriorityClasses);
        const double slack = slacks[rng() % std::size(slacks)];
        const int tenant = static_cast<int>(rng() % 4);
        std::vector<QueuedRequest> bounced_plain, bounced_stamped;
        const AdmitOutcome a = plain.Enqueue(
            MakeRequest(sequence, slack, cls), &bounced_plain);
        const AdmitOutcome b = stamped.Enqueue(
            MakeRequest(sequence, slack, cls, tenant), &bounced_stamped);
        ASSERT_EQ(a, b) << "seed " << seed;
        ASSERT_EQ(bounced_plain.size(), bounced_stamped.size());
        for (size_t v = 0; v < bounced_plain.size(); ++v) {
          ASSERT_EQ(bounced_plain[v].sequence, bounced_stamped[v].sequence)
              << "seed " << seed;
        }
        ++sequence;
      } else {
        QueuedRequest popped_plain, popped_stamped;
        const bool got_plain = plain.TryPop(&popped_plain);
        ASSERT_EQ(got_plain, stamped.TryPop(&popped_stamped));
        if (got_plain) {
          ASSERT_EQ(popped_plain.sequence, popped_stamped.sequence)
              << "seed " << seed;
        }
      }
    }
  }
}

// --- deterministic quota contract tests ------------------------------------

TEST(AdmissionModelTest, TenantQueuedCapShedsTheTenantsOwnOldestWork) {
  util::ManualClock clock;
  AdmissionConfig config;
  config.capacity = 16;
  config.overload = OverloadPolicy::kShedOldest;
  config.tenant_quotas.default_quota = TenantQuota{/*max_queued=*/2, 0, 0, 0};
  config.clock = &clock;
  AdmissionQueue queue(config);
  std::vector<QueuedRequest> bounced;
  // Tenant 3's work is untouchable by tenant 7's quota pressure.
  ASSERT_EQ(queue.Enqueue(MakeRequest(0, kInf, 1, /*tenant=*/3), &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(queue.Enqueue(MakeRequest(1, kInf, 1, /*tenant=*/7), &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(queue.Enqueue(MakeRequest(2, kInf, 1, /*tenant=*/7), &bounced),
            AdmitOutcome::kAccepted);
  EXPECT_EQ(queue.tenant_queued(7), 2);
  // Tenant 7 over its queued cap: the arrival displaces tenant 7's own
  // oldest request — the queue has plenty of global space.
  ASSERT_EQ(queue.Enqueue(MakeRequest(3, kInf, 1, /*tenant=*/7), &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(bounced.size(), 1u);
  EXPECT_EQ(bounced[0].sequence, 1u);
  EXPECT_EQ(bounced[0].tenant_id, 7);
  EXPECT_EQ(queue.tenant_queued(7), 2);
  EXPECT_EQ(queue.tenant_queued(3), 1);
  EXPECT_EQ(queue.size(), 3u);
}

TEST(AdmissionModelTest, TenantQueuedCapRejectsUnderRejectPolicy) {
  util::ManualClock clock;
  AdmissionConfig config;
  config.capacity = 16;
  config.overload = OverloadPolicy::kReject;
  config.tenant_quotas.per_tenant[5] = TenantQuota{/*max_queued=*/1, 0, 0, 0};
  config.clock = &clock;
  AdmissionQueue queue(config);
  std::vector<QueuedRequest> bounced;
  ASSERT_EQ(queue.Enqueue(MakeRequest(0, kInf, 1, /*tenant=*/5), &bounced),
            AdmitOutcome::kAccepted);
  // Over quota with an almost-empty queue: kRejectedQuota, not kRejected.
  EXPECT_EQ(queue.Enqueue(MakeRequest(1, kInf, 1, /*tenant=*/5), &bounced),
            AdmitOutcome::kRejectedQuota);
  ASSERT_EQ(bounced.size(), 1u);
  EXPECT_EQ(bounced[0].sequence, 1u);
  // Unlisted tenants are unconstrained (no default quota configured).
  EXPECT_EQ(queue.Enqueue(MakeRequest(2, kInf, 1, /*tenant=*/6), &bounced),
            AdmitOutcome::kAccepted);
}

TEST(AdmissionModelTest, TenantInFlightCapFreesOnTenantFinished) {
  util::ManualClock clock;
  AdmissionConfig config;
  config.capacity = 16;
  config.overload = OverloadPolicy::kReject;
  config.tenant_quotas.default_quota =
      TenantQuota{0, /*max_in_flight=*/1, 0, 0};
  config.clock = &clock;
  AdmissionQueue queue(config);
  std::vector<QueuedRequest> bounced;
  ASSERT_EQ(queue.Enqueue(MakeRequest(0, kInf, 1, /*tenant=*/4), &bounced),
            AdmitOutcome::kAccepted);
  QueuedRequest popped;
  ASSERT_TRUE(queue.TryPop(&popped));
  EXPECT_EQ(queue.tenant_in_flight(4), 1);
  // The tenant's single in-flight slot is taken; an in-flight breach is
  // never sheddable, so the arrival bounces kRejectedQuota.
  EXPECT_EQ(queue.Enqueue(MakeRequest(1, kInf, 1, /*tenant=*/4), &bounced),
            AdmitOutcome::kRejectedQuota);
  // Completion frees the slot and admission recovers.
  queue.TenantFinished(4);
  EXPECT_EQ(queue.tenant_in_flight(4), 0);
  EXPECT_EQ(queue.Enqueue(MakeRequest(2, kInf, 1, /*tenant=*/4), &bounced),
            AdmitOutcome::kAccepted);
}

TEST(AdmissionModelTest, TokenBucketRefillsOnTheManualClock) {
  util::ManualClock clock;
  AdmissionConfig config;
  config.capacity = 16;
  config.overload = OverloadPolicy::kBlock;  // bucket rejects regardless
  config.tenant_quotas.per_tenant[9] =
      TenantQuota{0, 0, /*rate_per_s=*/2.0, /*burst=*/2.0};
  config.clock = &clock;
  AdmissionQueue queue(config);
  std::vector<QueuedRequest> bounced;
  // Burst of 2 admits, then the bucket is dry — even under kBlock the
  // arrival bounces kRejectedQuota (fail-fast rate control).
  ASSERT_EQ(queue.Enqueue(MakeRequest(0, kInf, 1, /*tenant=*/9), &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(queue.Enqueue(MakeRequest(1, kInf, 1, /*tenant=*/9), &bounced),
            AdmitOutcome::kAccepted);
  EXPECT_EQ(queue.Enqueue(MakeRequest(2, kInf, 1, /*tenant=*/9), &bounced),
            AdmitOutcome::kRejectedQuota);
  // 0.5 s at 2/s refills one token.
  clock.Advance(0.5);
  EXPECT_EQ(queue.Enqueue(MakeRequest(3, kInf, 1, /*tenant=*/9), &bounced),
            AdmitOutcome::kAccepted);
  EXPECT_EQ(queue.Enqueue(MakeRequest(4, kInf, 1, /*tenant=*/9), &bounced),
            AdmitOutcome::kRejectedQuota);
  // A long idle period clamps at the burst size, not the elapsed time.
  clock.Advance(100.0);
  ASSERT_EQ(queue.Enqueue(MakeRequest(5, kInf, 1, /*tenant=*/9), &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(queue.Enqueue(MakeRequest(6, kInf, 1, /*tenant=*/9), &bounced),
            AdmitOutcome::kAccepted);
  EXPECT_EQ(queue.Enqueue(MakeRequest(7, kInf, 1, /*tenant=*/9), &bounced),
            AdmitOutcome::kRejectedQuota);
  // Other tenants never touch tenant 9's bucket.
  EXPECT_EQ(queue.Enqueue(MakeRequest(8, kInf, 1, /*tenant=*/2), &bounced),
            AdmitOutcome::kAccepted);
}

// --- payloads through the slot pool ----------------------------------------

/// The payload the payload test derives from each request's sequence.
int PayloadItem(uint64_t sequence) {
  return static_cast<int>(sequence * 7 + 3);
}
uint64_t PayloadStream(uint64_t sequence) {
  return sequence * 0x9E3779B97F4A7C15ull + 11;
}
uint64_t PayloadTraceId(uint64_t sequence) { return ~sequence; }

TEST(AdmissionModelTest, RequestsKeepTheirPayloadAndPromiseThroughSlotReuse) {
  // The bands sift keys while the requests wait in a slot pool, so a
  // request must come back out of its own slot: every popped, shed and
  // bounced request must carry the item, stream id and trace id derived
  // from its sequence, and setting its promise must resolve the future
  // kept for that sequence, exactly once. Fills of growing depth grow the
  // pool step by step; the drains and the seeded ops between them (shed
  // policy, tenant queued caps) reuse its slots in every order.
  util::ManualClock clock;
  AdmissionConfig config;
  config.capacity = 48;
  config.overload = OverloadPolicy::kShedOldest;
  config.tenant_quotas.default_quota = TenantQuota{12, 0, 0.0, 0.0};
  config.clock = &clock;
  AdmissionQueue real(config);
  ReferenceQueue model(config, &clock);
  constexpr int kTenants = 5;
  std::mt19937_64 rng(29);
  const double slacks[] = {0.5, 1.0, 1.0, 2.0, 4.0, kInf};
  std::map<uint64_t, std::future<ServeResult>> futures;
  uint64_t next_sequence = 0;
  int shed = 0;

  const auto resolve = [&](QueuedRequest& request, uint64_t sequence) {
    ASSERT_EQ(request.sequence, sequence);
    ASSERT_EQ(request.item.item, PayloadItem(sequence));
    ASSERT_EQ(request.stream_id, PayloadStream(sequence));
    ASSERT_EQ(request.trace.id, PayloadTraceId(sequence));
    const auto it = futures.find(sequence);
    ASSERT_NE(it, futures.end())
        << "sequence " << sequence << " came back twice";
    ServeResult result;
    result.latency_s = static_cast<double>(sequence);
    ASSERT_NO_THROW(request.promise.set_value(result))
        << "sequence " << sequence << " came back without its promise";
    ASSERT_EQ(it->second.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    ASSERT_EQ(it->second.get().latency_s, static_cast<double>(sequence));
    futures.erase(it);
  };
  const auto enqueue = [&](int cls, int tenant) {
    const double slack = slacks[rng() % std::size(slacks)];
    const uint64_t sequence = next_sequence++;
    const ModelAdmit expected = model.Enqueue(sequence, cls, slack, tenant);
    QueuedRequest request = MakeRequest(sequence, slack, cls, tenant);
    request.item.item = PayloadItem(sequence);
    request.stream_id = PayloadStream(sequence);
    request.trace.id = PayloadTraceId(sequence);
    futures.emplace(sequence, request.promise.get_future());
    std::vector<QueuedRequest> bounced;
    const AdmitOutcome outcome = real.Enqueue(std::move(request), &bounced);
    ASSERT_EQ(outcome, expected.outcome) << "sequence " << sequence;
    if (outcome != AdmitOutcome::kAccepted) {
      ASSERT_EQ(bounced.size(), 1u);
      resolve(bounced[0], sequence);
      return;
    }
    ASSERT_EQ(bounced.size(), expected.victims.size());
    for (size_t v = 0; v < bounced.size(); ++v) {
      resolve(bounced[v], expected.victims[v]);
      if (::testing::Test::HasFatalFailure()) return;
      ++shed;
    }
  };
  const auto pop_batch = [&](int max_requests) {
    std::vector<QueuedRequest> batch;
    const int popped = real.TryPopBatch(max_requests, &batch);
    ASSERT_EQ(static_cast<size_t>(popped), batch.size());
    for (QueuedRequest& request : batch) {
      const std::optional<ReferenceQueue::Request> expected = model.Pop();
      ASSERT_TRUE(expected.has_value());
      resolve(request, expected->sequence);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (popped < max_requests) {
      ASSERT_EQ(model.TotalSize(), 0u);
    }
  };
  const auto pop_one = [&] {
    const std::optional<ReferenceQueue::Request> expected = model.Pop();
    QueuedRequest popped;
    ASSERT_EQ(real.TryPop(&popped), expected.has_value());
    if (expected.has_value()) resolve(popped, expected->sequence);
  };

  constexpr int kCycles = 8;
  constexpr int kOpsPerCycle = 300;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Seeded ops that keep the queue shallow: pops outpace arrivals.
    for (int op = 0; op < kOpsPerCycle; ++op) {
      const uint64_t roll = rng() % 100;
      if (roll < 10) clock.Advance(static_cast<double>(rng() % 3));
      if (roll < 45) {
        enqueue(static_cast<int>(rng() % kNumPriorityClasses),
                static_cast<int>(rng() % kTenants));
      } else if (roll < 80) {
        pop_one();
      } else {
        pop_batch(static_cast<int>(rng() % 4) + 1);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Fill deeper than any earlier cycle (10, 20, ... arrivals, then past
    // capacity, where the shed policy and the caps evict), then drain.
    const int arrivals = std::min(10 * (cycle + 1), config.capacity + 8);
    for (int i = 0; i < arrivals; ++i) {
      enqueue(static_cast<int>(rng() % kNumPriorityClasses), i % kTenants);
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (model.TotalSize() > 0) {
      pop_batch(7);
      if (::testing::Test::HasFatalFailure()) return;
      pop_one();
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(real.size(), 0u);
  }
  EXPECT_TRUE(futures.empty()) << futures.size() << " futures never resolved";
  EXPECT_GE(next_sequence, 1000u);
  EXPECT_GT(shed, 0);
}

// --- concurrent conservation -----------------------------------------------

/// Multi-threaded interleavings: ordering is timing-dependent, but request
/// conservation is not — every enqueued sequence must surface exactly once
/// as a pop, a shed victim, a rejection, or a post-close refusal.
void RunConcurrentConservation(OverloadPolicy policy, bool with_quotas) {
  AdmissionConfig config;
  config.capacity = 8;
  config.overload = policy;
  if (with_quotas) {
    // Loose caps so kBlock enqueues always have a worker-side unblocker
    // (poppers call TenantFinished immediately: in-flight never saturates).
    config.tenant_quotas.default_quota = TenantQuota{6, 0, 0.0, 0.0};
  }
  AdmissionQueue queue(config);

  constexpr int kEnqueuers = 3;
  constexpr int kPoppers = 2;
  constexpr int kPerThread = 300;
  std::mutex mu;
  std::vector<uint64_t> popped, bounced_sequences;
  std::atomic<long> accepted{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kEnqueuers; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) + 1);
      std::vector<uint64_t> local_bounced;
      long local_accepted = 0;
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t sequence =
            static_cast<uint64_t>(t) * kPerThread + static_cast<uint64_t>(i);
        const int cls = static_cast<int>(rng() % kNumPriorityClasses);
        const double slack = (rng() % 2 == 0) ? 1.0 : kInf;
        const int tenant = static_cast<int>(rng() % 2);
        std::vector<QueuedRequest> bounced;
        const AdmitOutcome outcome = queue.Enqueue(
            MakeRequest(sequence, slack, cls, tenant), &bounced);
        if (outcome == AdmitOutcome::kAccepted) ++local_accepted;
        for (QueuedRequest& request : bounced) {
          local_bounced.push_back(request.sequence);
        }
      }
      accepted.fetch_add(local_accepted);
      std::lock_guard<std::mutex> lock(mu);
      bounced_sequences.insert(bounced_sequences.end(), local_bounced.begin(),
                               local_bounced.end());
    });
  }
  for (int t = 0; t < kPoppers; ++t) {
    threads.emplace_back([&] {
      std::vector<uint64_t> local_popped;
      QueuedRequest request;
      while (queue.WaitPop(&request)) {
        local_popped.push_back(request.sequence);
        queue.TenantFinished(request.tenant_id);
      }
      std::lock_guard<std::mutex> lock(mu);
      popped.insert(popped.end(), local_popped.begin(), local_popped.end());
    });
  }
  for (int t = 0; t < kEnqueuers; ++t) threads[static_cast<size_t>(t)].join();
  queue.Close();
  for (size_t t = kEnqueuers; t < threads.size(); ++t) threads[t].join();

  // Conservation: accepted requests either popped or were shed (bounced as
  // a victim of a later arrival); nothing is both, nothing vanishes.
  std::vector<uint64_t> resolved = popped;
  resolved.insert(resolved.end(), bounced_sequences.begin(),
                  bounced_sequences.end());
  std::sort(resolved.begin(), resolved.end());
  ASSERT_EQ(std::adjacent_find(resolved.begin(), resolved.end()),
            resolved.end())
      << "a request resolved twice";
  ASSERT_EQ(resolved.size(), static_cast<size_t>(kEnqueuers * kPerThread));
  // Every accepted request was eventually popped or shed; bounced covers
  // the rest (rejections and shed victims are disjoint sequence sets).
  ASSERT_EQ(popped.size() +
                (bounced_sequences.size() -
                 (static_cast<size_t>(kEnqueuers * kPerThread) -
                  static_cast<size_t>(accepted.load()))),
            static_cast<size_t>(accepted.load()));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(AdmissionModelTest, ConcurrentConservationUnderBlock) {
  RunConcurrentConservation(OverloadPolicy::kBlock, /*with_quotas=*/false);
}

TEST(AdmissionModelTest, ConcurrentConservationUnderReject) {
  RunConcurrentConservation(OverloadPolicy::kReject, /*with_quotas=*/false);
}

TEST(AdmissionModelTest, ConcurrentConservationUnderShedOldest) {
  RunConcurrentConservation(OverloadPolicy::kShedOldest,
                            /*with_quotas=*/false);
}

TEST(AdmissionModelTest, ConcurrentConservationUnderShedOldestAndQuotas) {
  RunConcurrentConservation(OverloadPolicy::kShedOldest,
                            /*with_quotas=*/true);
}

TEST(AdmissionModelTest, ConcurrentConservationUnderBlockAndQuotas) {
  RunConcurrentConservation(OverloadPolicy::kBlock, /*with_quotas=*/true);
}

}  // namespace
}  // namespace ams::serve
