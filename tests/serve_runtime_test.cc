// Tests of the serve:: subsystem: admission-queue ordering (EDF within a
// class, weighted round-robin at 8:4:1 between classes, which bounds how
// long a class with queued work waits), all three overload policies, seeded
// parity
// between the asynchronous runtime and offline Submit(), Drain() under
// concurrent enqueuers, shutdown semantics, the deterministic Clock seam,
// and the metrics registry. Timing-sensitive assertions run on a
// util::ManualClock or wait on observable queue state (waiting_enqueuers)
// — no test here sleeps for a fixed wall-clock interval.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <future>
#include <limits>
#include <memory>
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
#include "serve/admission_queue.h"
#include "serve/metrics.h"
#include "serve/priority_class.h"
#include "serve/server_runtime.h"
#include "util/clock.h"

namespace ams::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- admission queue -------------------------------------------------------

QueuedRequest MakeRequest(uint64_t sequence, double slack_s,
                          PriorityClass cls = PriorityClass::kStandard) {
  QueuedRequest request;
  request.item = core::WorkItem::Stored(static_cast<int>(sequence));
  request.sequence = sequence;
  request.slack_s = slack_s;
  request.priority_class = cls;
  return request;
}

AdmissionConfig QueueConfig(int capacity, OverloadPolicy policy,
                            const util::Clock* clock) {
  AdmissionConfig config;
  config.capacity = capacity;
  config.overload = policy;
  config.clock = clock;
  return config;
}

/// Spin (yield, no fixed sleep) until `predicate` holds: used to wait for a
/// peer thread to park inside a kBlock Enqueue. Deterministic in the sense
/// that the assertion only runs once the observable state is reached.
template <typename Predicate>
void AwaitState(const Predicate& predicate) {
  while (!predicate()) std::this_thread::yield();
}

TEST(AdmissionQueueTest, PopsEarliestDeadlineFirstWithFifoTieBreak) {
  // Frozen ManualClock: deadline == slack exactly, so ties are exact.
  util::ManualClock clock;
  AdmissionQueue queue(QueueConfig(8, OverloadPolicy::kReject, &clock));
  std::vector<QueuedRequest> bounced;
  // Out-of-order deadlines, plus two deadline-less (infinite) requests.
  for (const auto& [seq, slack] : std::vector<std::pair<uint64_t, double>>{
           {0, kInf}, {1, 5.0}, {2, 1.0}, {3, kInf}, {4, 3.0}, {5, 1.0}}) {
    ASSERT_EQ(queue.Enqueue(MakeRequest(seq, slack), &bounced),
              AdmitOutcome::kAccepted);
  }
  // EDF: 1.0s deadlines first (seq 2 before 5: FIFO tie-break), then 3.0,
  // 5.0, then the deadline-less pair in arrival order.
  const std::vector<uint64_t> expected = {2, 5, 4, 1, 0, 3};
  for (const uint64_t want : expected) {
    QueuedRequest popped;
    ASSERT_TRUE(queue.TryPop(&popped));
    EXPECT_EQ(popped.sequence, want);
  }
  QueuedRequest popped;
  EXPECT_FALSE(queue.TryPop(&popped));
  EXPECT_TRUE(bounced.empty());
}

TEST(AdmissionQueueTest, StampsArrivalAndDeadlineOnTheServeClock) {
  util::ManualClock clock(100.0);
  AdmissionQueue queue(QueueConfig(4, OverloadPolicy::kReject, &clock));
  std::vector<QueuedRequest> bounced;
  ASSERT_EQ(queue.Enqueue(MakeRequest(0, 2.5), &bounced),
            AdmitOutcome::kAccepted);
  clock.Advance(10.0);
  ASSERT_EQ(queue.Enqueue(MakeRequest(1, 2.5), &bounced),
            AdmitOutcome::kAccepted);
  QueuedRequest popped;
  ASSERT_TRUE(queue.TryPop(&popped));
  EXPECT_EQ(popped.sequence, 0u);
  EXPECT_DOUBLE_EQ(popped.enqueue_time_s, 100.0);
  EXPECT_DOUBLE_EQ(popped.deadline_s, 102.5);
  ASSERT_TRUE(queue.TryPop(&popped));
  EXPECT_DOUBLE_EQ(popped.enqueue_time_s, 110.0);
  EXPECT_DOUBLE_EQ(popped.deadline_s, 112.5);
}

TEST(AdmissionQueueTest, RejectPolicyBouncesNewWorkWhenFull) {
  util::ManualClock clock;
  AdmissionQueue queue(QueueConfig(2, OverloadPolicy::kReject, &clock));
  std::vector<QueuedRequest> bounced;
  EXPECT_EQ(queue.Enqueue(MakeRequest(0, 1.0), &bounced),
            AdmitOutcome::kAccepted);
  EXPECT_EQ(queue.Enqueue(MakeRequest(1, 2.0), &bounced),
            AdmitOutcome::kAccepted);
  EXPECT_EQ(queue.Enqueue(MakeRequest(2, 0.5), &bounced),
            AdmitOutcome::kRejected);
  // The rejected request itself bounced back, even though its deadline was
  // the tightest — kReject is strict arrival-order admission control.
  ASSERT_EQ(bounced.size(), 1u);
  EXPECT_EQ(bounced[0].sequence, 2u);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(AdmissionQueueTest, ShedOldestPolicyEvictsStalestAcceptedWork) {
  util::ManualClock clock;
  AdmissionQueue queue(QueueConfig(2, OverloadPolicy::kShedOldest, &clock));
  std::vector<QueuedRequest> bounced;
  EXPECT_EQ(queue.Enqueue(MakeRequest(0, 1.0), &bounced),
            AdmitOutcome::kAccepted);
  EXPECT_EQ(queue.Enqueue(MakeRequest(1, 2.0), &bounced),
            AdmitOutcome::kAccepted);
  // Full: admitting seq 2 sheds the oldest entry (seq 0), not the one with
  // the loosest deadline.
  EXPECT_EQ(queue.Enqueue(MakeRequest(2, 3.0), &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(bounced.size(), 1u);
  EXPECT_EQ(bounced[0].sequence, 0u);
  // Remaining pops are still EDF over the survivors.
  QueuedRequest popped;
  ASSERT_TRUE(queue.TryPop(&popped));
  EXPECT_EQ(popped.sequence, 1u);
  ASSERT_TRUE(queue.TryPop(&popped));
  EXPECT_EQ(popped.sequence, 2u);
}

TEST(AdmissionQueueTest, BlockPolicyAppliesBackpressureUntilAPop) {
  util::ManualClock clock;
  AdmissionQueue queue(QueueConfig(1, OverloadPolicy::kBlock, &clock));
  std::vector<QueuedRequest> bounced;
  ASSERT_EQ(queue.Enqueue(MakeRequest(0, 1.0), &bounced),
            AdmitOutcome::kAccepted);
  std::atomic<bool> second_accepted{false};
  std::thread enqueuer([&] {
    std::vector<QueuedRequest> thread_bounced;
    const AdmitOutcome outcome =
        queue.Enqueue(MakeRequest(1, 2.0), &thread_bounced);
    EXPECT_EQ(outcome, AdmitOutcome::kAccepted);
    second_accepted.store(true);
  });
  // Wait until the enqueuer has parked inside Enqueue — observable state,
  // not a timed sleep — then assert it is still blocked.
  AwaitState([&] { return queue.waiting_enqueuers() == 1; });
  EXPECT_FALSE(second_accepted.load());
  EXPECT_EQ(queue.size(), 1u);
  QueuedRequest popped;
  ASSERT_TRUE(queue.TryPop(&popped));
  enqueuer.join();
  EXPECT_TRUE(second_accepted.load());
  EXPECT_EQ(queue.size(), 1u);
}

TEST(AdmissionQueueTest, CloseWakesBlockedCallersAndKeepsQueuedWork) {
  util::ManualClock clock;
  AdmissionQueue queue(QueueConfig(1, OverloadPolicy::kBlock, &clock));
  std::vector<QueuedRequest> bounced;
  ASSERT_EQ(queue.Enqueue(MakeRequest(0, 1.0), &bounced),
            AdmitOutcome::kAccepted);
  std::thread blocked_enqueuer([&] {
    std::vector<QueuedRequest> thread_bounced;
    EXPECT_EQ(queue.Enqueue(MakeRequest(1, 2.0), &thread_bounced),
              AdmitOutcome::kClosed);
    EXPECT_EQ(thread_bounced.size(), 1u);
  });
  AwaitState([&] { return queue.waiting_enqueuers() == 1; });
  queue.Close();
  blocked_enqueuer.join();
  // Queued work survives Close (drain-then-stop) and WaitPop serves it
  // before reporting exhaustion.
  QueuedRequest popped;
  EXPECT_TRUE(queue.WaitPop(&popped));
  EXPECT_EQ(popped.sequence, 0u);
  EXPECT_FALSE(queue.WaitPop(&popped)) << "closed and empty: no more work";
}

// --- priority classes ------------------------------------------------------

std::vector<PriorityClass> PopClasses(AdmissionQueue* queue, int n) {
  std::vector<PriorityClass> order;
  QueuedRequest popped;
  for (int i = 0; i < n && queue->TryPop(&popped); ++i) {
    order.push_back(popped.priority_class);
  }
  return order;
}

TEST(AdmissionQueueTest, WeightedRoundRobinSharesPopsByClassWeight) {
  util::ManualClock clock;
  AdmissionQueue queue(QueueConfig(64, OverloadPolicy::kReject, &clock));
  std::vector<QueuedRequest> bounced;
  uint64_t seq = 0;
  const auto enqueue = [&](PriorityClass cls, int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(queue.Enqueue(MakeRequest(seq++, kInf, cls), &bounced),
                AdmitOutcome::kAccepted);
    }
  };
  enqueue(PriorityClass::kInteractive, 10);
  enqueue(PriorityClass::kStandard, 6);
  enqueue(PriorityClass::kBatch, 3);
  // Weights 8:4:1 with every class backlogged: a turn of 8 interactive
  // pops, 4 standard, 1 batch. Then interactive's last 2 and standard's
  // last 2 end their turns early, and batch drains alone.
  using PC = PriorityClass;
  std::vector<PriorityClass> expected(8, PC::kInteractive);
  expected.insert(expected.end(), 4, PC::kStandard);
  expected.push_back(PC::kBatch);
  expected.insert(expected.end(), 2, PC::kInteractive);
  expected.insert(expected.end(), 2, PC::kStandard);
  expected.insert(expected.end(), 2, PC::kBatch);
  EXPECT_EQ(PopClasses(&queue, 19), expected);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(AdmissionQueueTest, SaturatedInteractiveAndStandardStillDrainBatch) {
  // The round-robin alone bounds starvation: with interactive and standard
  // topped back up after every pop, queued batch work still pops at least
  // once in every 13 pops (8 interactive + 4 standard + 1 batch).
  util::ManualClock clock;
  AdmissionQueue queue(QueueConfig(64, OverloadPolicy::kReject, &clock));
  std::vector<QueuedRequest> bounced;
  uint64_t seq = 0;
  constexpr int kBatchRequests = 5;
  for (int i = 0; i < kBatchRequests; ++i) {
    ASSERT_EQ(queue.Enqueue(MakeRequest(seq++, kInf, PriorityClass::kBatch),
                            &bounced),
              AdmitOutcome::kAccepted);
  }
  for (const PriorityClass cls :
       {PriorityClass::kInteractive, PriorityClass::kStandard}) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(queue.Enqueue(MakeRequest(seq++, kInf, cls), &bounced),
                AdmitOutcome::kAccepted);
    }
  }
  int pops = 0;
  int batch_drained = 0;
  int pops_since_batch = 0;
  QueuedRequest popped;
  while (batch_drained < kBatchRequests) {
    ASSERT_TRUE(queue.TryPop(&popped));
    ++pops;
    if (popped.priority_class == PriorityClass::kBatch) {
      ++batch_drained;
      pops_since_batch = 0;
    } else {
      ASSERT_LT(++pops_since_batch, 13) << "batch starved past 12 pops";
      // Keep the popped class saturated.
      ASSERT_EQ(queue.Enqueue(MakeRequest(seq++, kInf, popped.priority_class),
                              &bounced),
                AdmitOutcome::kAccepted);
    }
  }
  // Every cycle is exactly 8 + 4 + 1 pops, so the limit is reached.
  EXPECT_EQ(pops, kBatchRequests * 13);
}

TEST(AdmissionQueueTest, BatchPopsSpanClassesInContractOrder) {
  util::ManualClock clock;
  AdmissionQueue queue(QueueConfig(64, OverloadPolicy::kReject, &clock));
  std::vector<QueuedRequest> bounced;
  // 2 interactive (EDF-inverted arrival), 1 standard, 1 batch.
  ASSERT_EQ(queue.Enqueue(MakeRequest(0, 9.0, PriorityClass::kInteractive),
                          &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(queue.Enqueue(MakeRequest(1, 3.0, PriorityClass::kInteractive),
                          &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(
      queue.Enqueue(MakeRequest(2, 1.0, PriorityClass::kStandard), &bounced),
      AdmitOutcome::kAccepted);
  ASSERT_EQ(
      queue.Enqueue(MakeRequest(3, 1.0, PriorityClass::kBatch), &bounced),
      AdmitOutcome::kAccepted);
  // One TryPopBatch call spans all three classes exactly as four successive
  // TryPops would: interactive turn (EDF: seq 1 before 0), then standard,
  // then batch.
  std::vector<QueuedRequest> batch;
  EXPECT_EQ(queue.TryPopBatch(8, &batch), 4);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].sequence, 1u);
  EXPECT_EQ(batch[1].sequence, 0u);
  EXPECT_EQ(batch[2].sequence, 2u);
  EXPECT_EQ(batch[3].sequence, 3u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(AdmissionQueueTest, ShedOldestTakesVictimsFromTheLeastImportantClass) {
  util::ManualClock clock;
  AdmissionQueue queue(QueueConfig(4, OverloadPolicy::kShedOldest, &clock));
  std::vector<QueuedRequest> bounced;
  ASSERT_EQ(queue.Enqueue(MakeRequest(0, kInf, PriorityClass::kInteractive),
                          &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(
      queue.Enqueue(MakeRequest(1, kInf, PriorityClass::kBatch), &bounced),
      AdmitOutcome::kAccepted);
  ASSERT_EQ(
      queue.Enqueue(MakeRequest(2, kInf, PriorityClass::kBatch), &bounced),
      AdmitOutcome::kAccepted);
  ASSERT_EQ(
      queue.Enqueue(MakeRequest(3, kInf, PriorityClass::kStandard), &bounced),
      AdmitOutcome::kAccepted);
  // Full. An interactive arrival sheds the OLDEST BATCH request (seq 1) —
  // not the globally oldest (seq 0, interactive).
  ASSERT_EQ(queue.Enqueue(MakeRequest(4, kInf, PriorityClass::kInteractive),
                          &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(bounced.size(), 1u);
  EXPECT_EQ(bounced[0].sequence, 1u);
  EXPECT_EQ(bounced[0].priority_class, PriorityClass::kBatch);
  // Still full. A standard arrival sheds the remaining batch request.
  ASSERT_EQ(
      queue.Enqueue(MakeRequest(5, kInf, PriorityClass::kStandard), &bounced),
      AdmitOutcome::kAccepted);
  ASSERT_EQ(bounced.size(), 2u);
  EXPECT_EQ(bounced[1].sequence, 2u);
  EXPECT_EQ(queue.class_size(PriorityClass::kBatch), 0u);
}

TEST(AdmissionQueueTest, ShedOldestShedsOwnClassWhenOnlyResidentClass) {
  // Satellite edge: every resident request belongs to the shedding class —
  // the arrival displaces its own class's oldest, preserving the
  // single-band shed semantics.
  util::ManualClock clock;
  AdmissionQueue queue(QueueConfig(2, OverloadPolicy::kShedOldest, &clock));
  std::vector<QueuedRequest> bounced;
  ASSERT_EQ(
      queue.Enqueue(MakeRequest(0, kInf, PriorityClass::kBatch), &bounced),
      AdmitOutcome::kAccepted);
  ASSERT_EQ(
      queue.Enqueue(MakeRequest(1, kInf, PriorityClass::kBatch), &bounced),
      AdmitOutcome::kAccepted);
  ASSERT_EQ(
      queue.Enqueue(MakeRequest(2, kInf, PriorityClass::kBatch), &bounced),
      AdmitOutcome::kAccepted);
  ASSERT_EQ(bounced.size(), 1u);
  EXPECT_EQ(bounced[0].sequence, 0u);
  EXPECT_EQ(bounced[0].priority_class, PriorityClass::kBatch);
  EXPECT_EQ(queue.class_size(PriorityClass::kBatch), 2u);
}

TEST(AdmissionQueueTest, ShedOldestNeverDisplacesMoreImportantWork) {
  util::ManualClock clock;
  AdmissionQueue queue(QueueConfig(2, OverloadPolicy::kShedOldest, &clock));
  std::vector<QueuedRequest> bounced;
  ASSERT_EQ(queue.Enqueue(MakeRequest(0, kInf, PriorityClass::kInteractive),
                          &bounced),
            AdmitOutcome::kAccepted);
  ASSERT_EQ(queue.Enqueue(MakeRequest(1, kInf, PriorityClass::kInteractive),
                          &bounced),
            AdmitOutcome::kAccepted);
  // A batch arrival cannot shed interactive work: the arrival itself
  // bounces as kRejected.
  EXPECT_EQ(
      queue.Enqueue(MakeRequest(2, kInf, PriorityClass::kBatch), &bounced),
      AdmitOutcome::kRejected);
  ASSERT_EQ(bounced.size(), 1u);
  EXPECT_EQ(bounced[0].sequence, 2u);
  EXPECT_EQ(queue.size(), 2u);
}

// --- serving runtime -------------------------------------------------------

std::unique_ptr<rl::Agent> MakeAgent(const zoo::ModelZoo& zoo, uint64_t seed) {
  nn::MlpConfig config;
  config.input_dim = zoo.labels().total_labels();
  config.hidden_dims = {64};
  config.output_dim = zoo.num_models() + 1;
  return std::make_unique<rl::Agent>(std::make_unique<nn::Mlp>(config, seed),
                                     nn::NetKind::kMlp);
}

class ServerRuntimeTest : public ::testing::Test {
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

  // The acceptance fields: serving must not change what gets labeled.
  static void ExpectSameOutcome(const core::LabelOutcome& offline,
                                const core::LabelOutcome& served) {
    EXPECT_EQ(offline.recall, served.recall);
    EXPECT_EQ(offline.schedule.makespan_s, served.schedule.makespan_s);
    EXPECT_EQ(offline.schedule.num_executions, served.schedule.num_executions);
    EXPECT_EQ(offline.schedule.value, served.schedule.value);
    EXPECT_EQ(offline.schedule.peak_mem_mb, served.schedule.peak_mem_mb);
  }

  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* ServerRuntimeTest::zoo_ = nullptr;
data::Dataset* ServerRuntimeTest::dataset_ = nullptr;
data::Oracle* ServerRuntimeTest::oracle_ = nullptr;

TEST_F(ServerRuntimeTest, ServedOutcomesMatchOfflineSubmitExactly) {
  const int num_items = 40;
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 7);

  core::LabelingService offline = BuildPredictorSession(agent.get(), 1);
  std::vector<core::LabelOutcome> expected;
  for (int i = 0; i < num_items; ++i) {
    expected.push_back(offline.Submit(core::WorkItem::Stored(i)));
  }

  core::LabelingService session = BuildPredictorSession(agent.get(), 3);
  ServeOptions options;
  options.workers = 3;
  options.max_resident_per_worker = 4;
  ServerRuntime runtime(&session, options);
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < num_items; ++i) {
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i)));
  }
  for (int i = 0; i < num_items; ++i) {
    const ServeResult result = futures[static_cast<size_t>(i)].get();
    ASSERT_EQ(result.status, ServeStatus::kOk) << "item " << i;
    ExpectSameOutcome(expected[static_cast<size_t>(i)], result.outcome);
  }
}

TEST_F(ServerRuntimeTest, LiveScenesServeLikeOfflineSubmitAndMixWithStored) {
  // The WorkItem::Live seam through the async runtime: live scenes have no
  // stored id, no replay context, and no recall accumulator. The borrowed
  // scene pointer must stay valid until the future resolves — here the
  // scenes live in the suite-static dataset, which outlives the runtime.
  // Interleaving live and stored requests in one queue checks neither path
  // corrupts the other's bookkeeping.
  const int num_items = 24;
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 41);

  core::LabelingService offline = BuildPredictorSession(agent.get(), 1);
  std::vector<core::LabelOutcome> expected_live;
  std::vector<core::LabelOutcome> expected_stored;
  for (int i = 0; i < num_items; ++i) {
    expected_live.push_back(
        offline.Submit(core::WorkItem::Live(&dataset_->item(i).scene)));
    expected_stored.push_back(offline.Submit(core::WorkItem::Stored(i)));
  }

  core::LabelingService session = BuildPredictorSession(agent.get(), 2);
  ServeOptions options;
  options.workers = 2;
  options.max_resident_per_worker = 4;
  ServerRuntime runtime(&session, options);
  std::vector<std::future<ServeResult>> live_futures;
  std::vector<std::future<ServeResult>> stored_futures;
  for (int i = 0; i < num_items; ++i) {
    live_futures.push_back(
        runtime.Enqueue(core::WorkItem::Live(&dataset_->item(i).scene)));
    stored_futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i)));
  }
  for (int i = 0; i < num_items; ++i) {
    const ServeResult live = live_futures[static_cast<size_t>(i)].get();
    ASSERT_EQ(live.status, ServeStatus::kOk) << "live item " << i;
    ExpectSameOutcome(expected_live[static_cast<size_t>(i)], live.outcome);
    const ServeResult stored = stored_futures[static_cast<size_t>(i)].get();
    ASSERT_EQ(stored.status, ServeStatus::kOk) << "stored item " << i;
    ExpectSameOutcome(expected_stored[static_cast<size_t>(i)],
                      stored.outcome);
  }
  runtime.Drain();
  EXPECT_EQ(runtime.metrics().total.completed.load(), 2 * num_items);
}

TEST_F(ServerRuntimeTest, PriorityClassesChangeOrderButNeverOutcomes) {
  // Items are independent: riding a different service band reorders work
  // but must not change any labeling result.
  const int num_items = 30;
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 29);

  core::LabelingService offline = BuildPredictorSession(agent.get(), 1);
  std::vector<core::LabelOutcome> expected;
  for (int i = 0; i < num_items; ++i) {
    expected.push_back(offline.Submit(core::WorkItem::Stored(i)));
  }

  core::LabelingService session = BuildPredictorSession(agent.get(), 2);
  ServeOptions options;
  options.workers = 2;
  options.max_resident_per_worker = 4;
  ServerRuntime runtime(&session, options);
  const PriorityClass classes[] = {PriorityClass::kBatch,
                                   PriorityClass::kInteractive,
                                   PriorityClass::kStandard};
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < num_items; ++i) {
    ServerRuntime::RequestOptions request;
    request.priority_class = classes[i % 3];
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i), request));
  }
  for (int i = 0; i < num_items; ++i) {
    const ServeResult result = futures[static_cast<size_t>(i)].get();
    ASSERT_EQ(result.status, ServeStatus::kOk) << "item " << i;
    ExpectSameOutcome(expected[static_cast<size_t>(i)], result.outcome);
  }
  // Per-class accounting: every class saw its share, all completed.
  const Metrics& metrics = runtime.metrics();
  for (const PriorityClass cls : classes) {
    EXPECT_EQ(metrics.for_class(cls).enqueued.load(), 10);
    EXPECT_EQ(metrics.for_class(cls).completed.load(), 10);
    EXPECT_EQ(metrics.for_class(cls).total_latency.count(), 10);
  }
}

TEST_F(ServerRuntimeTest, RandomPackingSessionsServeIdenticallyToo) {
  // The predictor-less baseline (seeded random packing) multiplexes as
  // well: stored items key their packing sequence by item id, so serving
  // order cannot change outcomes.
  const int num_items = 24;
  const auto build = [&] {
    return core::LabelingServiceBuilder(zoo_)
        .WithOracle(oracle_)
        .WithMode(core::ExecutionMode::kParallelRandom)
        .WithConstraints(ParallelConstraints())
        .WithSeed(91)
        .WithWorkers(2)
        .Build();
  };
  core::LabelingService offline = build();
  std::vector<core::LabelOutcome> expected;
  for (int i = 0; i < num_items; ++i) {
    expected.push_back(offline.Submit(core::WorkItem::Stored(i)));
  }
  core::LabelingService session = build();
  ServerRuntime runtime(&session, ServeOptions{});
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < num_items; ++i) {
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i)));
  }
  for (int i = 0; i < num_items; ++i) {
    const ServeResult result = futures[static_cast<size_t>(i)].get();
    ASSERT_EQ(result.status, ServeStatus::kOk);
    ExpectSameOutcome(expected[static_cast<size_t>(i)], result.outcome);
  }
}

TEST_F(ServerRuntimeTest, DrainCompletesAllAcceptedWorkUnderConcurrentEnqueuers) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 11);
  core::LabelingService session = BuildPredictorSession(agent.get(), 2);
  ServeOptions options;
  options.workers = 2;
  options.queue_capacity = 8;  // enqueuers outpace this: kBlock backpressure
  options.overload = OverloadPolicy::kBlock;
  ServerRuntime runtime(&session, options);

  constexpr int kEnqueuers = 4;
  constexpr int kPerThread = 25;
  std::vector<std::future<ServeResult>> futures[kEnqueuers];
  std::vector<std::thread> enqueuers;
  for (int t = 0; t < kEnqueuers; ++t) {
    enqueuers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        futures[t].push_back(
            runtime.Enqueue(core::WorkItem::Stored((t * kPerThread + i) % 48)));
      }
    });
  }
  for (std::thread& thread : enqueuers) thread.join();
  runtime.Drain();

  // Everything accepted (kBlock never refuses) is complete by the time
  // Drain returns: every future must be immediately ready and ok.
  for (int t = 0; t < kEnqueuers; ++t) {
    for (std::future<ServeResult>& future : futures[t]) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_TRUE(future.get().ok());
    }
  }
  EXPECT_EQ(runtime.metrics().total.completed.load(), kEnqueuers * kPerThread);
  EXPECT_EQ(runtime.metrics().total.enqueued.load(), kEnqueuers * kPerThread);
  EXPECT_EQ(runtime.metrics().total.rejected.load(), 0);
  EXPECT_EQ(runtime.metrics().total.shed.load(), 0);
}

TEST_F(ServerRuntimeTest, RejectOverloadResolvesEveryFutureOneWayOrAnother) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 13);
  core::LabelingService session = BuildPredictorSession(agent.get(), 1);
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.max_resident_per_worker = 1;
  options.overload = OverloadPolicy::kReject;
  ServerRuntime runtime(&session, options);

  constexpr int kRequests = 60;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i % 48)));
  }
  runtime.Drain();
  int ok = 0, refused = 0;
  for (std::future<ServeResult>& future : futures) {
    const ServeResult result = future.get();
    if (result.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(result.status, ServeStatus::kRejected);
      ++refused;
    }
  }
  EXPECT_EQ(ok + refused, kRequests);
  EXPECT_GE(ok, 1) << "admitted work must still complete under overload";
  EXPECT_EQ(runtime.metrics().total.completed.load(), ok);
  EXPECT_EQ(runtime.metrics().total.rejected.load(), refused);
  // The default class rode every request: per-class slices mirror the
  // queue-wide counters.
  const RequestMetrics& standard =
      runtime.metrics().for_class(PriorityClass::kStandard);
  EXPECT_EQ(standard.completed.load(), ok);
  EXPECT_EQ(standard.rejected.load(), refused);
}

TEST_F(ServerRuntimeTest, ShedOldestOverloadDropsStaleWorkButCompletesRest) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 17);
  core::LabelingService session = BuildPredictorSession(agent.get(), 1);
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.max_resident_per_worker = 1;
  options.overload = OverloadPolicy::kShedOldest;
  ServerRuntime runtime(&session, options);

  constexpr int kRequests = 60;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i % 48)));
  }
  runtime.Drain();
  int ok = 0, shed = 0;
  for (std::future<ServeResult>& future : futures) {
    const ServeResult result = future.get();
    if (result.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(result.status, ServeStatus::kShed);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kRequests);
  EXPECT_GE(ok, 1);
  // Nothing is ever refused at the door under single-class shed-oldest; the
  // queue trades stale accepted work for fresh arrivals instead.
  EXPECT_EQ(runtime.metrics().total.rejected.load(), 0);
  EXPECT_EQ(runtime.metrics().total.shed.load(), shed);
  EXPECT_EQ(runtime.metrics().total.completed.load(), ok);
}

TEST_F(ServerRuntimeTest, ShutdownCompletesAcceptedWorkAndRefusesNewWork) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 19);
  core::LabelingService session = BuildPredictorSession(agent.get(), 2);
  ServeOptions options;
  options.workers = 2;
  ServerRuntime runtime(&session, options);
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i)));
  }
  runtime.Shutdown();
  for (std::future<ServeResult>& future : futures) {
    EXPECT_TRUE(future.get().ok()) << "accepted work survives shutdown";
  }
  const ServeResult refused =
      runtime.Enqueue(core::WorkItem::Stored(0)).get();
  EXPECT_EQ(refused.status, ServeStatus::kShutdown);
  EXPECT_EQ(runtime.metrics().total.shutdown_refused.load(), 1);
  runtime.Shutdown();  // idempotent
}

TEST_F(ServerRuntimeTest, ShutdownWakesEnqueuerBlockedOnAFullQueue) {
  // Satellite edge: an enqueuer parked on kBlock backpressure must be woken
  // by Shutdown and its future must resolve (kShutdown if still parked when
  // admission closed, kOk if a worker freed a slot first).
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 37);
  core::LabelingService session = BuildPredictorSession(agent.get(), 1);
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.max_resident_per_worker = 1;
  options.overload = OverloadPolicy::kBlock;
  ServerRuntime runtime(&session, options);

  // Flood from a helper thread until it parks inside Enqueue.
  std::promise<std::future<ServeResult>> last_future;
  std::atomic<bool> stop_flooding{false};
  std::thread flooder([&] {
    std::vector<std::future<ServeResult>> kept;
    while (!stop_flooding.load()) {
      kept.push_back(runtime.Enqueue(core::WorkItem::Stored(0)));
    }
    last_future.set_value(std::move(kept.back()));
    for (std::future<ServeResult>& f : kept) {
      if (f.valid()) f.wait();
    }
  });
  AwaitState([&] { return runtime.admission_queue().waiting_enqueuers() > 0; });
  stop_flooding.store(true);
  runtime.Shutdown();
  flooder.join();
  const ServeResult last = last_future.get_future().get().get();
  EXPECT_TRUE(last.status == ServeStatus::kOk ||
              last.status == ServeStatus::kShutdown)
      << ServeStatusName(last.status);
}

TEST_F(ServerRuntimeTest, ManualClockMakesRuntimeLatenciesExact) {
  // The Clock seam end-to-end: with a frozen ManualClock every latency
  // field is exactly zero, every deadline is met by exactly the requested
  // slack, and the metrics histograms record deterministic values — the
  // deterministic port of the old wall-clock timing assertions.
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 41);
  core::LabelingService session = BuildPredictorSession(agent.get(), 2);
  util::ManualClock clock(50.0);
  ServeOptions options;
  options.workers = 2;
  options.clock = &clock;
  ServerRuntime runtime(&session, options);
  ServerRuntime::RequestOptions request;
  request.slack_s = 4.0;
  request.priority_class = PriorityClass::kInteractive;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i), request));
  }
  runtime.Drain();
  for (std::future<ServeResult>& future : futures) {
    const ServeResult result = future.get();
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result.latency_s, 0.0);
    EXPECT_DOUBLE_EQ(result.queue_delay_s, 0.0);
    EXPECT_DOUBLE_EQ(result.service_s, 0.0);
    EXPECT_DOUBLE_EQ(result.slack_s, 4.0);
    EXPECT_TRUE(result.deadline_met());
  }
  const Metrics& metrics = runtime.metrics();
  EXPECT_EQ(metrics.total.deadline_misses.load(), 0);
  EXPECT_EQ(metrics.for_class(PriorityClass::kInteractive).completed.load(),
            12);
  EXPECT_DOUBLE_EQ(metrics.total.total_latency.mean(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.total.total_latency.max(), 0.0);
  // Uptime runs on the same manual clock.
  clock.Advance(8.0);
  const std::string json = runtime.MetricsJson();
  EXPECT_NE(json.find("\"uptime_s\": 8"), std::string::npos) << json;
}

TEST_F(ServerRuntimeTest, MetricsSnapshotExportsCountersAndPercentiles) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 23);
  core::LabelingService session = BuildPredictorSession(agent.get(), 2);
  ServeOptions options;
  options.workers = 2;
  options.default_slack_s = 30.0;  // generous: no misses expected
  ServerRuntime runtime(&session, options);
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 30; ++i) {
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i)));
  }
  runtime.Drain();
  for (std::future<ServeResult>& future : futures) {
    const ServeResult result = future.get();
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.deadline_met());
    EXPECT_GE(result.latency_s, result.service_s);
  }

  const Metrics& metrics = runtime.metrics();
  EXPECT_EQ(metrics.total.completed.load(), 30);
  EXPECT_EQ(metrics.total.deadline_misses.load(), 0);
  EXPECT_EQ(metrics.total.total_latency.count(), 30);
  // Percentiles are monotone and bracketed by the recorded extremes.
  const double p50 = metrics.total.total_latency.Percentile(50);
  const double p95 = metrics.total.total_latency.Percentile(95);
  const double p99 = metrics.total.total_latency.Percentile(99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, metrics.total.total_latency.max() * 1.0001);

  const std::string json = runtime.MetricsJson();
  for (const char* key :
       {"\"counters\"", "\"completed\": 30", "\"gauges\"", "\"queue_delay\"",
        "\"p99_s\"", "\"completed_per_s\"", "\"classes\"", "\"interactive\"",
        "\"standard\"", "\"batch\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key
                                                 << " in:\n" << json;
  }
}

TEST_F(ServerRuntimeTest, LatencyHistogramPercentilesApproximateSamples) {
  LatencyHistogram histogram;
  // 1..100 ms uniform: p50 ~ 50ms, p99 ~ 99ms (bucket resolution ~20%).
  for (int i = 1; i <= 100; ++i) histogram.Record(i * 1e-3);
  EXPECT_EQ(histogram.count(), 100);
  EXPECT_NEAR(histogram.mean(), 0.0505, 1e-9);
  EXPECT_NEAR(histogram.Percentile(50), 0.050, 0.015);
  EXPECT_NEAR(histogram.Percentile(99), 0.099, 0.025);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.100);
}

TEST_F(ServerRuntimeTest, EmptyHistogramQueriesAreWellDefined) {
  // The documented empty contract (satellite fix): while nothing was
  // recorded, every query — including out-of-range and NaN percentiles —
  // returns exactly 0.0, never NaN or garbage.
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
  for (const double p : {0.0, 50.0, 99.9, 100.0, -5.0, 250.0,
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_DOUBLE_EQ(histogram.Percentile(p), 0.0) << "p = " << p;
  }
  // The JSON snapshot of an empty histogram is all-numeric zeros.
  EXPECT_EQ(histogram.SnapshotJson(),
            "{\"count\": 0, \"mean_s\": 0, \"p50_s\": 0, \"p95_s\": 0, "
            "\"p99_s\": 0, \"max_s\": 0}");
  // Populated histograms sanitize out-of-range p the same way.
  histogram.Record(0.010);
  EXPECT_DOUBLE_EQ(histogram.Percentile(-5.0), histogram.Percentile(0.0));
  EXPECT_DOUBLE_EQ(histogram.Percentile(250.0), histogram.Percentile(100.0));
}

TEST_F(ServerRuntimeTest, TenantQuotaRejectionsResolveAndCountPerTenant) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 53);
  core::LabelingService session = BuildPredictorSession(agent.get(), 2);
  util::ManualClock clock(10.0);
  ServeOptions options;
  options.workers = 2;
  options.clock = &clock;
  // Tenant 1 may burst 2 requests and then refills glacially; tenant 2 is
  // unconstrained (no default quota).
  TenantQuota limited;
  limited.rate_per_s = 1e-6;
  limited.burst = 2.0;
  options.tenant_quotas.per_tenant[1] = limited;
  ServerRuntime runtime(&session, options);

  ServerRuntime::RequestOptions tenant1;
  tenant1.tenant_id = 1;
  ServerRuntime::RequestOptions tenant2;
  tenant2.tenant_id = 2;
  std::vector<std::future<ServeResult>> limited_futures, free_futures;
  for (int i = 0; i < 10; ++i) {
    limited_futures.push_back(
        runtime.Enqueue(core::WorkItem::Stored(i), tenant1));
    free_futures.push_back(
        runtime.Enqueue(core::WorkItem::Stored(i + 10), tenant2));
  }
  runtime.Drain();
  int ok = 0, quota_rejected = 0;
  for (std::future<ServeResult>& future : limited_futures) {
    const ServeResult result = future.get();
    if (result.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(result.status, ServeStatus::kRejected);
      ++quota_rejected;
    }
  }
  EXPECT_EQ(ok, 2) << "burst of 2, then the bucket is dry";
  EXPECT_EQ(quota_rejected, 8);
  for (std::future<ServeResult>& future : free_futures) {
    EXPECT_TRUE(future.get().ok()) << "tenant 2 is unconstrained";
  }

  const Metrics& metrics = runtime.metrics();
  EXPECT_EQ(metrics.total.quota_rejected.load(), 8);
  const RequestMetrics* slice1 = metrics.find_tenant(1);
  ASSERT_NE(slice1, nullptr);
  EXPECT_EQ(slice1->enqueued.load(), 10);
  EXPECT_EQ(slice1->completed.load(), 2);
  EXPECT_EQ(slice1->rejected.load(), 8);
  EXPECT_EQ(slice1->quota_rejected.load(), 8);
  const RequestMetrics* slice2 = metrics.find_tenant(2);
  ASSERT_NE(slice2, nullptr);
  EXPECT_EQ(slice2->completed.load(), 10);
  EXPECT_EQ(slice2->quota_rejected.load(), 0);
  EXPECT_EQ(metrics.find_tenant(99), nullptr);

  // The JSON snapshot breaks tenants out alongside classes.
  const std::string json = runtime.MetricsJson();
  for (const char* key :
       {"\"tenants\"", "\"1\": {\"enqueued\": 10", "\"quota_rejected\": 8"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key
                                                 << " in:\n" << json;
  }
}

TEST_F(ServerRuntimeTest, TenantInFlightCapThrottlesAdmissionUntilCompletion) {
  // max_in_flight couples admission to the runtime's completion feedback
  // (AdmissionQueue::TenantFinished): with a cap of 1 and kReject overload,
  // a second same-tenant arrival is only admitted once the first completed.
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 59);
  core::LabelingService session = BuildPredictorSession(agent.get(), 1);
  ServeOptions options;
  options.workers = 1;
  options.overload = OverloadPolicy::kReject;
  TenantQuota quota;
  quota.max_in_flight = 1;
  options.tenant_quotas.default_quota = quota;
  ServerRuntime runtime(&session, options);

  // Sequential enqueue-drain pairs are the deterministic proof that the
  // runtime reports completions back to the queue: with a cap of 1, request
  // i+1 is only admissible because request i's completion freed the
  // tenant's in-flight slot — were TenantFinished never called, every
  // request after the first would bounce.
  for (int i = 0; i < 4; ++i) {
    std::future<ServeResult> future =
        runtime.Enqueue(core::WorkItem::Stored(i));
    runtime.Drain();
    EXPECT_TRUE(future.get().ok()) << "request " << i;
  }
  EXPECT_EQ(runtime.metrics().total.quota_rejected.load(), 0);
  // A concurrent burst races worker pops against arrivals, so how many
  // bounce is timing-dependent — but every future resolves one way, the
  // quota counter matches the rejections exactly, and accepted work all
  // completes.
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 30; ++i) {
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i % 48)));
  }
  runtime.Drain();
  int ok = 0, rejected = 0;
  for (std::future<ServeResult>& future : futures) {
    const ServeResult result = future.get();
    if (result.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(result.status, ServeStatus::kRejected);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, 30);
  EXPECT_GE(ok, 1);
  EXPECT_EQ(runtime.metrics().total.quota_rejected.load(), rejected);
}

TEST_F(ServerRuntimeTest, LedgerSlicesBalanceAndSumToTheTotals) {
  // Every outcome in one run: a two-slot shed-oldest queue in front of one
  // single-item worker sheds, and refuses a batch arrival that finds only
  // more important work queued; tenant 2's rate bucket refuses all but its
  // burst of 2; one enqueue after Shutdown is refused. Interactive requests
  // carry a 1 ns slack, so their completions miss. How the worker's pops
  // interleave with the arrivals decides the shed and reject counts, but
  // not the identities checked at quiescence.
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, 61);
  core::LabelingService session = BuildPredictorSession(agent.get(), 1);
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.max_resident_per_worker = 1;
  options.overload = OverloadPolicy::kShedOldest;
  TenantQuota limited;
  limited.rate_per_s = 1e-6;
  limited.burst = 2.0;
  options.tenant_quotas.per_tenant[2] = limited;
  ServerRuntime runtime(&session, options);

  const PriorityClass classes[] = {PriorityClass::kInteractive,
                                   PriorityClass::kStandard,
                                   PriorityClass::kBatch};
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 54; ++i) {  // each (class, tenant) pair six times
    ServerRuntime::RequestOptions request;
    request.priority_class = classes[i % 3];
    if (request.priority_class == PriorityClass::kInteractive) {
      request.slack_s = 1e-9;
    }
    request.tenant_id = (i / 3) % 3;
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i % 48), request));
  }
  runtime.Drain();
  runtime.Shutdown();
  futures.push_back(runtime.Enqueue(core::WorkItem::Stored(0)));
  for (std::future<ServeResult>& future : futures) future.get();

  const Metrics& metrics = runtime.metrics();
  const RequestMetrics& total = metrics.total;
  std::vector<const RequestMetrics*> class_slices, tenant_slices;
  for (const PriorityClass cls : classes) {
    class_slices.push_back(&metrics.for_class(cls));
  }
  for (int tenant = 0; tenant < 3; ++tenant) {
    ASSERT_NE(metrics.find_tenant(tenant), nullptr) << "tenant " << tenant;
    tenant_slices.push_back(metrics.find_tenant(tenant));
  }
  EXPECT_EQ(metrics.find_tenant(3), nullptr);

  // The outcomes that do not depend on timing.
  EXPECT_EQ(total.enqueued.load(), 55);
  EXPECT_EQ(total.shutdown_refused.load(), 1);
  EXPECT_EQ(tenant_slices[2]->quota_rejected.load(), 16);
  EXPECT_EQ(total.quota_rejected.load(), 16);

  // Each slice accounts for every request it took in exactly once.
  std::vector<const RequestMetrics*> every_slice = {&total};
  every_slice.insert(every_slice.end(), class_slices.begin(),
                     class_slices.end());
  every_slice.insert(every_slice.end(), tenant_slices.begin(),
                     tenant_slices.end());
  for (size_t i = 0; i < every_slice.size(); ++i) {
    const RequestMetrics& slice = *every_slice[i];
    EXPECT_EQ(slice.enqueued.load(),
              slice.completed.load() + slice.rejected.load() +
                  slice.shed.load() + slice.shutdown_refused.load())
        << "slice " << i;
    EXPECT_LE(slice.quota_rejected.load(), slice.rejected.load())
        << "slice " << i;
  }

  // The classes and the tenants each partition the totals.
  using Counter = std::atomic<long> RequestMetrics::*;
  const Counter counters[] = {
      &RequestMetrics::enqueued,       &RequestMetrics::completed,
      &RequestMetrics::rejected,       &RequestMetrics::quota_rejected,
      &RequestMetrics::shed,           &RequestMetrics::shutdown_refused,
      &RequestMetrics::deadline_misses};
  for (const std::vector<const RequestMetrics*>* parts :
       {&class_slices, &tenant_slices}) {
    for (size_t c = 0; c < std::size(counters); ++c) {
      long sum = 0;
      for (const RequestMetrics* part : *parts) {
        sum += (part->*counters[c]).load();
      }
      EXPECT_EQ(sum, (total.*counters[c]).load()) << "counter " << c;
    }
    long queue_delays = 0, latencies = 0;
    for (const RequestMetrics* part : *parts) {
      queue_delays += part->queue_delay.count();
      latencies += part->total_latency.count();
    }
    EXPECT_EQ(queue_delays, total.queue_delay.count());
    EXPECT_EQ(latencies, total.total_latency.count());
  }
}

TEST_F(ServerRuntimeTest, SteppersRejectOrderDependentPolicies) {
  // rule_based draws from its rng on every pick; explore_exploit sets an
  // item up from what earlier items of its chunk executed. Interleaving
  // items would change either's outcomes.
  for (const char* policy : {"rule_based", "explore_exploit"}) {
    core::LabelingService session =
        core::LabelingServiceBuilder(zoo_)
            .WithOracle(oracle_)
            .WithMode(core::ExecutionMode::kSerial)
            .WithPolicy(policy, {})
            .WithConstraints({/*time*/ 1.0})
            .Build();
    EXPECT_DEATH(session.NewItemStepper(0), "depend on item order")
        << policy;
  }
}

TEST(PriorityClassTest, NamesRoundTrip) {
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    const PriorityClass cls = static_cast<PriorityClass>(c);
    PriorityClass parsed = PriorityClass::kInteractive;
    ASSERT_TRUE(PriorityClassFromName(PriorityClassName(cls), &parsed));
    EXPECT_EQ(parsed, cls);
  }
  PriorityClass parsed = PriorityClass::kBatch;
  EXPECT_FALSE(PriorityClassFromName("premium", &parsed));
  EXPECT_FALSE(PriorityClassFromName(nullptr, &parsed));
  EXPECT_EQ(parsed, PriorityClass::kBatch) << "failed parse must not write";
}

TEST(ManualClockTest, AdvancesAndRejectsTimeTravel) {
  util::ManualClock clock(2.0);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 2.0);
  clock.Advance(0.5);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 2.5);
  clock.Set(4.0);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 4.0);
  EXPECT_DEATH(clock.Advance(-1.0), "cannot go backwards");
  EXPECT_DEATH(clock.Set(3.0), "cannot go backwards");
}

}  // namespace
}  // namespace ams::serve
