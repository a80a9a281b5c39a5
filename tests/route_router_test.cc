// Tests of the route:: subsystem: placement determinism (same key -> same
// shard across independently built placements and router restarts),
// consistent-hash stability when the shard count changes, the PlanRebalance
// decision rule, stamp preservation through the StealBatch/Requeue
// migration seam, the acceptance property that rebalancing strictly reduces
// the max/min shard queue-depth ratio under a ManualClock, live scenes
// served end to end through the router, and a concurrent conservation
// stress (M enqueuers x N shards, every future resolves, cluster-wide
// counter identity holds at quiescence).

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "route/aggregated_metrics.h"
#include "route/placement.h"
#include "route/shard_router.h"
#include "serve/admission_queue.h"
#include "serve/priority_class.h"
#include "serve/request.h"
#include "util/clock.h"

namespace ams::route {
namespace {

using serve::AdmissionConfig;
using serve::AdmissionQueue;
using serve::AdmitOutcome;
using serve::OverloadPolicy;
using serve::PriorityClass;
using serve::QueuedRequest;
using serve::ServeResult;
using serve::ServeStatus;
using serve::TenantQuota;
using util::ManualClock;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fixed-depth load view for exercising placements without runtimes.
class FakeLoadView final : public ShardLoadView {
 public:
  explicit FakeLoadView(std::vector<size_t> depths)
      : depths_(std::move(depths)) {}
  int num_shards() const override { return static_cast<int>(depths_.size()); }
  size_t QueueDepth(int shard) const override {
    return depths_[static_cast<size_t>(shard)];
  }

 private:
  std::vector<size_t> depths_;
};

// --- placement -------------------------------------------------------------

TEST(PlacementTest, ConsistentHashIsDeterministicAcrossInstances) {
  // Two independently constructed placements (a "restarted router") must
  // agree on every key, and the keys must actually spread over the shards.
  ConsistentHashPlacement first;
  ConsistentHashPlacement second;
  const FakeLoadView load({0, 0, 0, 0});
  std::set<int> shards_hit;
  for (uint64_t k = 0; k < 512; ++k) {
    RouteKey key;
    key.tenant_id = static_cast<int>(k % 3);
    key.key = k;
    const int shard = first.ShardFor(key, load);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    EXPECT_EQ(shard, second.ShardFor(key, load)) << "key " << k;
    shards_hit.insert(shard);
  }
  EXPECT_EQ(shards_hit.size(), 4u);
  // The tenant is part of the identity: two tenants sending the same item
  // id must not all collapse onto identical shards.
  bool tenant_matters = false;
  for (uint64_t k = 0; k < 64 && !tenant_matters; ++k) {
    RouteKey a{/*tenant_id=*/1, k};
    RouteKey b{/*tenant_id=*/2, k};
    tenant_matters = first.ShardFor(a, load) != first.ShardFor(b, load);
  }
  EXPECT_TRUE(tenant_matters);
}

TEST(PlacementTest, ConsistentHashMovesFewKeysWhenAShardIsAdded) {
  ConsistentHashPlacement placement;
  const FakeLoadView four({0, 0, 0, 0});
  const FakeLoadView five({0, 0, 0, 0, 0});
  const int kKeys = 1024;
  int moved = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    RouteKey key{/*tenant_id=*/0, k};
    if (placement.ShardFor(key, four) != placement.ShardFor(key, five)) {
      ++moved;
    }
  }
  // Consistent hashing moves ~1/5 of keys on 4 -> 5; modulo hashing would
  // move ~4/5. Generous margin for ring imbalance.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys * 2 / 5);
}

TEST(PlacementTest, LeastQueuedPicksShallowestWithLowestIndexTie) {
  LeastQueuedPlacement placement;
  RouteKey key{0, 7};
  EXPECT_EQ(placement.ShardFor(key, FakeLoadView({5, 2, 9})), 1);
  EXPECT_EQ(placement.ShardFor(key, FakeLoadView({4, 3, 3, 8})), 1);
  EXPECT_EQ(placement.ShardFor(key, FakeLoadView({0, 0})), 0);
}

TEST(PlacementTest, PowerOfTwoChoicesPrefersLessLoadedAndIsSeedStable) {
  // With one overloaded shard, p2c lands there only when both draws hit it
  // (never, as the two draws are distinct) or it never appears among the
  // pair's alternatives -- so shard 0 receives nothing at all here.
  PowerOfTwoChoicesPlacement placement(/*seed=*/99);
  const FakeLoadView load({1000, 0, 0, 0});
  RouteKey key{0, 0};
  std::vector<int> picks;
  for (int i = 0; i < 200; ++i) {
    const int shard = placement.ShardFor(key, load);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    EXPECT_NE(shard, 0) << "p2c picked the overloaded shard";
    picks.push_back(shard);
  }
  // Same seed => the same pseudo-random pick sequence (determinism for
  // reproducible runs).
  PowerOfTwoChoicesPlacement replay(/*seed=*/99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(replay.ShardFor(key, load), picks[static_cast<size_t>(i)]);
  }
}

TEST(PlacementTest, FactoryParsesNames) {
  const FakeLoadView load({0, 0});
  for (const char* name : {"hash", "least", "p2c"}) {
    const std::unique_ptr<Placement> placement = PlacementFromName(name);
    ASSERT_NE(placement, nullptr) << name;
    EXPECT_STREQ(placement->name(), name);
    const int shard = placement->ShardFor(RouteKey{0, 3}, load);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 2);
  }
  EXPECT_EQ(PlacementFromName("round-robin"), nullptr);
  EXPECT_EQ(PlacementFromName(""), nullptr);
}

// --- rebalance plan --------------------------------------------------------

TEST(RebalancePlanTest, MovesHalfTheGapFromHottestToColdest) {
  const RebalancePlan plan = PlanRebalance({10, 2}, /*ratio=*/1.5,
                                           /*max_moves=*/32);
  EXPECT_EQ(plan.from, 0);
  EXPECT_EQ(plan.to, 1);
  EXPECT_EQ(plan.moves, 4);  // (10-2)/2: source stays >= destination
}

TEST(RebalancePlanTest, RespectsMaxMovesAndTieBreaksByIndex) {
  const RebalancePlan plan = PlanRebalance({9, 0, 9, 0}, /*ratio=*/1.5,
                                           /*max_moves=*/3);
  EXPECT_EQ(plan.from, 0);  // first of the tied hottest
  EXPECT_EQ(plan.to, 1);    // first of the tied coldest
  EXPECT_EQ(plan.moves, 3);
}

TEST(RebalancePlanTest, LeavesBalancedAndBelowRatioDepthsAlone) {
  EXPECT_EQ(PlanRebalance({5, 5, 5}, 1.5, 32).moves, 0);
  // Gap of 1 is not worth halving.
  EXPECT_EQ(PlanRebalance({3, 2}, 1.5, 32).moves, 0);
  // Gap of 2 but 6 <= 1.5 * 4: within the tolerated imbalance.
  EXPECT_EQ(PlanRebalance({6, 5, 4}, 1.5, 32).moves, 0);
  // An empty coldest shard counts as depth 1 for the ratio so the gate
  // stays finite: 2 > 1.5 * 1 migrates.
  EXPECT_EQ(PlanRebalance({2, 0}, 1.5, 32).moves, 1);
  EXPECT_EQ(PlanRebalance({}, 1.5, 32).moves, 0);
  EXPECT_EQ(PlanRebalance({4}, 1.5, 32).moves, 0);
}

// --- migration seam --------------------------------------------------------

QueuedRequest MakeRequest(uint64_t sequence, double slack_s,
                          PriorityClass cls = PriorityClass::kStandard,
                          int tenant = 0, double density = 0.0) {
  QueuedRequest request;
  request.item = core::WorkItem::Stored(static_cast<int>(sequence));
  request.sequence = sequence;
  request.slack_s = slack_s;
  request.priority_class = cls;
  request.tenant_id = tenant;
  request.value_density = density;
  return request;
}

AdmissionConfig TrackedConfig(int capacity, const util::Clock* clock) {
  AdmissionConfig config;
  config.capacity = capacity;
  config.overload = OverloadPolicy::kReject;
  config.clock = clock;
  // A loose default quota turns tenant accounting on so the test can watch
  // queued counts move between the queues.
  TenantQuota loose;
  loose.max_queued = 1000;
  config.tenant_quotas.default_quota = loose;
  return config;
}

TEST(MigrationTest, StealTakesLastServedWorkAndRequeuePreservesStamps) {
  ManualClock clock(100.0);
  AdmissionQueue hot(TrackedConfig(16, &clock));
  AdmissionQueue cold(TrackedConfig(16, &clock));
  std::vector<QueuedRequest> bounced;
  // Two interactive requests (slack 5 and 9) and two batch (slack 2 and 7).
  ASSERT_EQ(hot.Enqueue(MakeRequest(0, 5.0, PriorityClass::kInteractive, 1),
                        &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(hot.Enqueue(MakeRequest(1, 9.0, PriorityClass::kInteractive, 2),
                        &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(
      hot.Enqueue(MakeRequest(2, 2.0, PriorityClass::kBatch, 1), &bounced),
      AdmitOutcome::kAccepted);
  ASSERT_EQ(
      hot.Enqueue(MakeRequest(3, 7.0, PriorityClass::kBatch, 2), &bounced),
      AdmitOutcome::kAccepted);
  ASSERT_TRUE(bounced.empty());

  // Steal 3: the batch band drains first (least important), latest deadline
  // first (seq 3 then 2), then the interactive request with the latest
  // deadline (seq 1). The EDF head of the interactive band (seq 0 --
  // what the local shard serves next) is taken last, so it stays.
  std::vector<QueuedRequest> stolen;
  ASSERT_EQ(hot.StealBatch(3, &stolen), 3);
  ASSERT_EQ(stolen.size(), 3u);
  EXPECT_EQ(stolen[0].sequence, 3u);
  EXPECT_EQ(stolen[1].sequence, 2u);
  EXPECT_EQ(stolen[2].sequence, 1u);
  EXPECT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot.tenant_queued(1), 1);  // seq 0 stays
  EXPECT_EQ(hot.tenant_queued(2), 0);  // both of tenant 2's left

  // Deadlines were stamped at t=100; requeue at t=150 must NOT re-stamp.
  clock.Advance(50.0);
  for (QueuedRequest& request : stolen) {
    ASSERT_TRUE(cold.Requeue(std::move(request)));
  }
  EXPECT_EQ(cold.size(), 3u);
  EXPECT_EQ(cold.tenant_queued(1), 1);
  EXPECT_EQ(cold.tenant_queued(2), 2);

  // Pop everything from the destination: stamps (class, tenant, absolute
  // deadline, arrival time) survived the migration bit-for-bit.
  std::map<uint64_t, QueuedRequest> by_sequence;
  QueuedRequest popped;
  while (cold.TryPop(&popped)) {
    by_sequence[popped.sequence] = std::move(popped);
  }
  ASSERT_EQ(by_sequence.size(), 3u);
  EXPECT_EQ(by_sequence[1].priority_class, PriorityClass::kInteractive);
  EXPECT_EQ(by_sequence[1].tenant_id, 2);
  EXPECT_DOUBLE_EQ(by_sequence[1].deadline_s, 109.0);
  EXPECT_DOUBLE_EQ(by_sequence[1].enqueue_time_s, 100.0);
  EXPECT_EQ(by_sequence[2].priority_class, PriorityClass::kBatch);
  EXPECT_EQ(by_sequence[2].tenant_id, 1);
  EXPECT_DOUBLE_EQ(by_sequence[2].deadline_s, 102.0);
  EXPECT_EQ(by_sequence[3].priority_class, PriorityClass::kBatch);
  EXPECT_EQ(by_sequence[3].tenant_id, 2);
  EXPECT_DOUBLE_EQ(by_sequence[3].deadline_s, 107.0);
}

TEST(MigrationTest, StealAndRequeueRefuseClosedQueues) {
  ManualClock clock;
  AdmissionQueue queue(TrackedConfig(8, &clock));
  std::vector<QueuedRequest> bounced;
  ASSERT_EQ(queue.Enqueue(MakeRequest(0, kInf), &bounced),
            AdmitOutcome::kAccepted);
  queue.Close();
  // A closing shard drains in place: no stealing from it...
  std::vector<QueuedRequest> stolen;
  EXPECT_EQ(queue.StealBatch(4, &stolen), 0);
  EXPECT_TRUE(stolen.empty());
  // ...and no migrating into it; the refused request stays intact with the
  // caller (promise and stamps untouched).
  QueuedRequest migrant = MakeRequest(1, 5.0, PriorityClass::kBatch, 3);
  EXPECT_FALSE(queue.Requeue(std::move(migrant)));
  EXPECT_EQ(migrant.sequence, 1u);
  EXPECT_EQ(migrant.tenant_id, 3);
}

TEST(MigrationTest, RebalancingStrictlyReducesMaxMinDepthRatio) {
  // The acceptance property, deterministic under a ManualClock: a skewed
  // placement loaded one shard; repeated rebalance ticks (plan + steal +
  // requeue, exactly what ShardRouter::RebalanceOnce runs) must strictly
  // shrink the max/min queue-depth ratio until the gate holds.
  ManualClock clock(10.0);
  std::vector<std::unique_ptr<AdmissionQueue>> queues;
  for (int i = 0; i < 4; ++i) {
    queues.push_back(
        std::make_unique<AdmissionQueue>(TrackedConfig(64, &clock)));
  }
  std::vector<QueuedRequest> bounced;
  uint64_t sequence = 0;
  const auto enqueue_n = [&](int queue_index, int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t seq = sequence++;
      ASSERT_EQ(queues[static_cast<size_t>(queue_index)]->Enqueue(
                    MakeRequest(seq, 100.0 + static_cast<double>(i),
                                PriorityClass::kStandard,
                                static_cast<int>(seq % 3)),
                    &bounced),
                AdmitOutcome::kAccepted);
    }
  };
  enqueue_n(0, 24);  // the hot shard a skewed placement produced
  enqueue_n(1, 2);
  enqueue_n(2, 2);
  enqueue_n(3, 2);

  const auto depths = [&] {
    std::vector<size_t> out;
    for (const auto& queue : queues) out.push_back(queue->size());
    return out;
  };
  const auto ratio = [](const std::vector<size_t>& d) {
    const size_t hi = *std::max_element(d.begin(), d.end());
    const size_t lo = std::max<size_t>(*std::min_element(d.begin(), d.end()),
                                       1);
    return static_cast<double>(hi) / static_cast<double>(lo);
  };

  double previous_ratio = ratio(depths());
  ASSERT_DOUBLE_EQ(previous_ratio, 12.0);
  int ticks = 0;
  int total_moved = 0;
  while (ticks < 16) {
    clock.Advance(1.0);  // the rebalance cadence on the manual clock
    const RebalancePlan plan =
        PlanRebalance(depths(), /*ratio=*/1.5, /*max_moves=*/8);
    if (plan.moves == 0) break;
    std::vector<QueuedRequest> batch;
    ASSERT_EQ(queues[static_cast<size_t>(plan.from)]->StealBatch(plan.moves,
                                                                 &batch),
              plan.moves);
    for (QueuedRequest& request : batch) {
      ASSERT_TRUE(
          queues[static_cast<size_t>(plan.to)]->Requeue(std::move(request)));
    }
    total_moved += plan.moves;
    const double now = ratio(depths());
    EXPECT_LT(now, previous_ratio) << "tick " << ticks;
    previous_ratio = now;
    ++ticks;
  }
  EXPECT_GT(ticks, 0);
  EXPECT_GT(total_moved, 0);
  EXPECT_LE(previous_ratio, 1.5);  // converged under the gate
  // Conservation: every request is still queued somewhere, exactly once.
  std::set<uint64_t> seen;
  size_t total = 0;
  for (const auto& queue : queues) {
    QueuedRequest request;
    while (queue->TryPop(&request)) {
      EXPECT_TRUE(seen.insert(request.sequence).second)
          << "sequence " << request.sequence << " duplicated";
      ++total;
    }
  }
  EXPECT_EQ(total, 30u);
}

// --- router end to end -----------------------------------------------------

std::unique_ptr<rl::Agent> MakeAgent(const zoo::ModelZoo& zoo, uint64_t seed) {
  nn::MlpConfig config;
  config.input_dim = zoo.labels().total_labels();
  config.hidden_dims = {64};
  config.output_dim = zoo.num_models() + 1;
  return std::make_unique<rl::Agent>(std::make_unique<nn::Mlp>(config, seed),
                                     nn::NetKind::kMlp);
}

class ShardRouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MirFlickr25(), zoo_->labels(), 48, 31));
    oracle_ = new data::Oracle(zoo_, dataset_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }

  static core::ScheduleConstraints ParallelConstraints() {
    core::ScheduleConstraints constraints;
    constraints.time_budget_s = 1.0;
    constraints.memory_budget_mb = 8000.0;
    return constraints;
  }

  static core::LabelingService BuildPredictorSession(rl::Agent* agent,
                                                     int workers) {
    return core::LabelingServiceBuilder(zoo_)
        .WithOracle(oracle_)
        .WithPredictor(agent)
        .WithMode(core::ExecutionMode::kParallel)
        .WithConstraints(ParallelConstraints())
        .WithWorkers(workers)
        .Build();
  }

  /// N independent sessions over the same corpus/agent (one per shard).
  static std::vector<core::LabelingService> BuildShardSessions(
      rl::Agent* agent, int shards, int workers_per_shard) {
    std::vector<core::LabelingService> sessions;
    sessions.reserve(static_cast<size_t>(shards));
    for (int i = 0; i < shards; ++i) {
      sessions.push_back(BuildPredictorSession(agent, workers_per_shard));
    }
    return sessions;
  }

  static std::vector<core::LabelingService*> Pointers(
      std::vector<core::LabelingService>& sessions) {
    std::vector<core::LabelingService*> out;
    for (core::LabelingService& session : sessions) out.push_back(&session);
    return out;
  }

  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* ShardRouterTest::zoo_ = nullptr;
data::Dataset* ShardRouterTest::dataset_ = nullptr;
data::Oracle* ShardRouterTest::oracle_ = nullptr;

TEST_F(ShardRouterTest, RoutesByPlacementDeterministicallyAcrossRestarts) {
  const int kShards = 3;
  const int kItems = 36;
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 7);

  // Offline prediction of where each item must land: hash placement is a
  // pure function of (tenant, key, shard count).
  ConsistentHashPlacement reference;
  const FakeLoadView load(std::vector<size_t>(kShards, 0));
  std::vector<long> expected(kShards, 0);
  for (int i = 0; i < kItems; ++i) {
    ++expected[static_cast<size_t>(reference.ShardFor(
        RouteKey{0, static_cast<uint64_t>(i)}, load))];
  }

  const auto run_once = [&](std::vector<long>* routed) {
    std::vector<core::LabelingService> sessions =
        BuildShardSessions(agent.get(), kShards, /*workers_per_shard=*/1);
    ShardRouter router(Pointers(sessions));
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < kItems; ++i) {
      futures.push_back(router.Enqueue(core::WorkItem::Stored(i)));
    }
    for (std::future<ServeResult>& future : futures) {
      EXPECT_EQ(future.get().status, ServeStatus::kOk);
    }
    router.Drain();
    for (int s = 0; s < kShards; ++s) {
      routed->push_back(router.routed(s));
      // The shard's own metrics agree with the router's routing counter.
      EXPECT_EQ(router.shard(s).metrics().enqueued.load(), router.routed(s));
    }
    router.Shutdown();
  };

  std::vector<long> first_run;
  run_once(&first_run);
  EXPECT_EQ(first_run, expected);
  // A rebuilt router (fresh placement, fresh sessions — "a restart") sends
  // every key to the same shard.
  std::vector<long> second_run;
  run_once(&second_run);
  EXPECT_EQ(second_run, first_run);
}

TEST_F(ShardRouterTest, ServesLiveScenesThroughTheRouter) {
  // The PR-3 WorkItem::Live seam, exercised through the full async stack:
  // live scenes have no stored id (placement keys them by arrival), no
  // replay context, and no recall accumulator — the outcome must still match
  // the same session's offline Submit of the same scene.
  const int kItems = 12;
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 11);

  core::LabelingService offline = BuildPredictorSession(agent.get(), 1);
  std::vector<core::LabelOutcome> expected;
  for (int i = 0; i < kItems; ++i) {
    expected.push_back(
        offline.Submit(core::WorkItem::Live(&dataset_->item(i).scene)));
  }

  std::vector<core::LabelingService> sessions =
      BuildShardSessions(agent.get(), /*shards=*/2, /*workers_per_shard=*/2);
  ShardRouter router(Pointers(sessions));
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < kItems; ++i) {
    // The dataset owns the scenes, so they outlive the labeling (the Live
    // contract). Tight-but-met deadline exercises the stamp path too.
    futures.push_back(
        router.Enqueue(core::WorkItem::Live(&dataset_->item(i).scene), 30.0,
                       PriorityClass::kInteractive));
  }
  for (int i = 0; i < kItems; ++i) {
    const ServeResult result = futures[static_cast<size_t>(i)].get();
    ASSERT_EQ(result.status, ServeStatus::kOk) << "item " << i;
    const core::LabelOutcome& offline_outcome =
        expected[static_cast<size_t>(i)];
    EXPECT_EQ(result.outcome.recall, offline_outcome.recall);
    EXPECT_EQ(result.outcome.schedule.num_executions,
              offline_outcome.schedule.num_executions);
    EXPECT_EQ(result.outcome.schedule.value, offline_outcome.schedule.value);
    EXPECT_EQ(result.outcome.schedule.makespan_s,
              offline_outcome.schedule.makespan_s);
  }
  router.Drain();
  router.Shutdown();
}

TEST_F(ShardRouterTest, ConcurrentEnqueuersEveryFutureResolvesAndCountersAdd) {
  // M enqueuers x N shards with small queues, load shedding, and the
  // background rebalancer on a fast real-time tick: conservation means
  // every future resolves with exactly one status, and at quiescence the
  // cluster-wide identity enqueued + migrated_in == completed + rejected +
  // shed + shutdown_refused + migrated_out holds with migration counters
  // cancelling in the aggregate.
  const int kShards = 3;
  const int kEnqueuers = 4;
  const int kPerEnqueuer = 120;
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 23);
  std::vector<core::LabelingService> sessions =
      BuildShardSessions(agent.get(), kShards, /*workers_per_shard=*/1);

  RouterOptions options;
  options.serve.workers = 1;
  options.serve.queue_capacity = 16;
  options.serve.overload = OverloadPolicy::kShedOldest;
  options.rebalance_interval_s = 1e-4;
  options.max_migrate_per_tick = 8;
  // least-queued placement concentrates nothing, but the shed policy plus
  // tiny queues still force constant churn.
  LeastQueuedPlacement placement;
  options.placement = &placement;
  ShardRouter router(Pointers(sessions), options);

  std::vector<std::vector<std::future<ServeResult>>> futures(
      static_cast<size_t>(kEnqueuers));
  std::vector<std::thread> enqueuers;
  for (int e = 0; e < kEnqueuers; ++e) {
    enqueuers.emplace_back([&, e] {
      for (int i = 0; i < kPerEnqueuer; ++i) {
        ShardRouter::RequestOptions request;
        request.priority_class =
            static_cast<PriorityClass>(i % serve::kNumPriorityClasses);
        request.tenant_id = e % 2;
        futures[static_cast<size_t>(e)].push_back(
            router.Enqueue(core::WorkItem::Stored(i % 48), request));
      }
    });
  }
  for (std::thread& enqueuer : enqueuers) enqueuer.join();

  long completed = 0;
  long not_served = 0;
  for (std::vector<std::future<ServeResult>>& per_thread : futures) {
    for (std::future<ServeResult>& future : per_thread) {
      const ServeResult result = future.get();  // must resolve
      if (result.status == ServeStatus::kOk) {
        ++completed;
      } else {
        ++not_served;
      }
    }
  }
  EXPECT_EQ(completed + not_served,
            static_cast<long>(kEnqueuers) * kPerEnqueuer);
  router.Drain();

  // Aggregate the shard registries and check the quiescent identity.
  std::vector<const serve::Metrics*> registries;
  for (int s = 0; s < kShards; ++s) {
    registries.push_back(&router.shard(s).metrics());
  }
  AggregatedMetrics aggregated(registries);
  serve::Metrics merged;
  aggregated.MergeInto(&merged);
  EXPECT_EQ(merged.enqueued.load(),
            static_cast<long>(kEnqueuers) * kPerEnqueuer);
  EXPECT_EQ(merged.completed.load(), completed);
  EXPECT_EQ(merged.enqueued.load() + merged.migrated_in.load(),
            merged.completed.load() + merged.rejected.load() +
                merged.shed.load() + merged.shutdown_refused.load() +
                merged.migrated_out.load());
  // Migration never loses or duplicates: ins and outs cancel cluster-wide.
  EXPECT_EQ(merged.migrated_in.load(), merged.migrated_out.load());
  EXPECT_EQ(merged.migrated_in.load(), router.migrated());

  // The JSON snapshot carries all three sections.
  const std::string json = router.MetricsJson();
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"placement\": \"least\""), std::string::npos);
  router.Shutdown();
}

TEST_F(ShardRouterTest, ManualClockRebalanceTickMovesHotToCold) {
  // Deterministic router-level migration: freeze the shard workers out of
  // the picture by loading far more work than single workers can start,
  // then drive RebalanceOnce by hand under a ManualClock and watch the
  // migration counters move hot -> cold.
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 41);
  std::vector<core::LabelingService> sessions =
      BuildShardSessions(agent.get(), /*shards=*/2, /*workers_per_shard=*/1);

  ManualClock clock(5.0);
  RouterOptions options;
  options.serve.workers = 1;
  options.serve.max_resident_per_worker = 1;
  options.serve.queue_capacity = 256;
  options.serve.clock = &clock;
  options.max_migrate_per_tick = 64;
  // All keys collapse onto one shard: the worst-case placement skew.
  class PinnedPlacement final : public Placement {
   public:
    int ShardFor(const RouteKey&, const ShardLoadView&) override { return 0; }
    const char* name() const override { return "pinned"; }
  } pinned;
  options.placement = &pinned;
  ShardRouter router(Pointers(sessions), options);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(router.Enqueue(core::WorkItem::Stored(i % 48)));
  }
  // Everything routed to shard 0; its single worker holds one resident
  // item, so nearly all of it is still queued.
  EXPECT_EQ(router.routed(0), 64);
  EXPECT_EQ(router.routed(1), 0);
  const size_t hot_before = router.QueueDepth(0);
  const size_t cold_before = router.QueueDepth(1);
  EXPECT_GT(hot_before, cold_before);

  clock.Advance(1.0);
  const int moved = router.RebalanceOnce();
  EXPECT_GT(moved, 0);
  EXPECT_EQ(router.migrated(), moved);
  EXPECT_EQ(router.shard(0).metrics().migrated_out.load(), moved);
  EXPECT_EQ(router.shard(1).metrics().migrated_in.load(), moved);

  for (std::future<ServeResult>& future : futures) {
    EXPECT_EQ(future.get().status, ServeStatus::kOk);
  }
  router.Drain();
  router.Shutdown();
}

}  // namespace
}  // namespace ams::route
