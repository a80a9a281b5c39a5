// Tests of the obs:: tracing layer: TraceBuffer ring semantics (capacity
// rounding, drop-oldest overwrite, oldest-first snapshots), the Tracer's
// runtime toggle / sampling / lane registry, ScopedSpan recording, the
// ChromeTraceSink JSON shape, and the deterministic end-to-end span-chain
// property — every request served by a ServerRuntime under a ManualClock
// yields exactly one connected enqueue -> queue_wait -> exec chain, with no
// lost or duplicated phase events — and that a stepper records a forward
// span only for a tick whose refresh ran a forward.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "serve/server_runtime.h"
#include "util/clock.h"
#include "zoo/model_zoo.h"

namespace ams::obs {
namespace {

TraceEvent Event(Phase phase, double ts_s, double dur_s = 0.0,
                 std::uint64_t id = 0) {
  TraceEvent event;
  event.phase = static_cast<std::uint8_t>(phase);
  event.ts_s = ts_s;
  event.dur_s = dur_s;
  event.id = id;
  return event;
}

TEST(TraceBufferTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceBuffer(10, 0, 0).capacity(), 16u);
  EXPECT_EQ(TraceBuffer(16, 0, 0).capacity(), 16u);
  EXPECT_EQ(TraceBuffer(0, 0, 0).capacity(), 8u);
  EXPECT_EQ(TraceBuffer(1, 0, 0).capacity(), 8u);
}

TEST(TraceBufferTest, StampsShardAndLaneOnRecord) {
  TraceBuffer buffer(8, /*shard=*/3, /*lane=*/7);
  buffer.Record(Event(Phase::kTick, 1.0));
  const std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].shard, 3);
  EXPECT_EQ(events[0].lane, 7);
  EXPECT_EQ(static_cast<Phase>(events[0].phase), Phase::kTick);
}

TEST(TraceBufferTest, DropsOldestOnWrapAndCountsDrops) {
  TraceBuffer buffer(8, 0, 0);
  for (int i = 0; i < 20; ++i) {
    buffer.Record(Event(Phase::kTick, static_cast<double>(i)));
  }
  EXPECT_EQ(buffer.recorded(), 20u);
  EXPECT_EQ(buffer.dropped(), 12u);
  const std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The retained window is the newest 8 events, oldest first.
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<size_t>(i)].ts_s,
                     static_cast<double>(12 + i));
  }
}

TEST(TraceBufferTest, SnapshotBeforeWrapIsInRecordOrder) {
  TraceBuffer buffer(8, 0, 0);
  buffer.Record(Event(Phase::kEnqueue, 5.0));
  buffer.Record(Event(Phase::kQueueWait, 6.0));
  buffer.Record(Event(Phase::kExec, 7.0));
  EXPECT_EQ(buffer.dropped(), 0u);
  const std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].ts_s, 5.0);
  EXPECT_DOUBLE_EQ(events[2].ts_s, 7.0);
}

TEST(TracerTest, LanesAreStableAndKeyedByShardAndLane) {
  Tracer tracer;
  TraceBuffer* first = tracer.EnsureLane(0, 0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(tracer.EnsureLane(0, 0), first);
  TraceBuffer* other_lane = tracer.EnsureLane(0, 1);
  TraceBuffer* other_shard = tracer.EnsureLane(1, 0);
  EXPECT_NE(other_lane, first);
  EXPECT_NE(other_shard, first);
  EXPECT_NE(other_shard, other_lane);
}

TEST(TracerTest, SamplingKeepsEveryNthSequence) {
  Tracer::Options options;
  options.sample_every = 4;
  Tracer tracer(options);
  EXPECT_TRUE(tracer.ShouldSample(0));
  EXPECT_FALSE(tracer.ShouldSample(1));
  EXPECT_FALSE(tracer.ShouldSample(3));
  EXPECT_TRUE(tracer.ShouldSample(4));
  EXPECT_TRUE(tracer.ShouldSample(8));
  // sample_every = 1 keeps everything.
  EXPECT_TRUE(Tracer().ShouldSample(17));
}

TEST(TracerTest, CollectMergesLanesSortedByTimestamp) {
  Tracer tracer;
  tracer.EnsureLane(0, 0)->Record(Event(Phase::kTick, 2.0));
  tracer.EnsureLane(0, 1)->Record(Event(Phase::kTick, 1.0));
  tracer.EnsureLane(1, 0)->Record(Event(Phase::kTick, 3.0));
  const std::vector<TraceEvent> events = tracer.Collect();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].ts_s, 1.0);
  EXPECT_DOUBLE_EQ(events[1].ts_s, 2.0);
  EXPECT_DOUBLE_EQ(events[2].ts_s, 3.0);
  EXPECT_EQ(tracer.TotalDropped(), 0u);
}

TEST(ScopedSpanTest, RecordsOneEventWithDurationAndArgs) {
  Tracer tracer;
  TraceBuffer* lane = tracer.EnsureLane(0, 0);
  util::ManualClock clock(10.0);
  {
    ScopedSpan span(&tracer, lane, &clock, Phase::kExec, /*id=*/42);
    ASSERT_TRUE(span.active());
    clock.Advance(0.5);
    span.set_args(1, 2, 3, 4);
    EXPECT_DOUBLE_EQ(span.Close(), 0.5);
    // Close() is idempotent: a closed span is inactive, so a second Close
    // (and destruction) records nothing and reports zero duration.
    EXPECT_FALSE(span.active());
    EXPECT_DOUBLE_EQ(span.Close(), 0.0);
  }
  const std::vector<TraceEvent> events = lane->Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].id, 42u);
  EXPECT_DOUBLE_EQ(events[0].ts_s, 10.0);
  EXPECT_DOUBLE_EQ(events[0].dur_s, 0.5);
  EXPECT_EQ(events[0].a0, 1);
  EXPECT_EQ(events[0].a3, 4);
}

TEST(ScopedSpanTest, DiscardedSpanRecordsNothing) {
  Tracer tracer;
  TraceBuffer* lane = tracer.EnsureLane(0, 0);
  util::ManualClock clock(1.0);
  {
    ScopedSpan span(&tracer, lane, &clock, Phase::kForward);
    span.Discard();
    EXPECT_FALSE(span.active());
    EXPECT_DOUBLE_EQ(span.Close(), 0.0);
  }
  EXPECT_TRUE(lane->Snapshot().empty());
}

TEST(ScopedSpanTest, DisabledTracerOrNullLaneRecordsNothing) {
  Tracer::Options options;
  options.enabled = false;
  Tracer off(options);
  TraceBuffer* lane = off.EnsureLane(0, 0);
  util::ManualClock clock(1.0);
  {
    ScopedSpan span(&off, lane, &clock, Phase::kTick);
    EXPECT_FALSE(span.active());
    EXPECT_DOUBLE_EQ(span.Close(), 0.0);
  }
  EXPECT_TRUE(lane->Snapshot().empty());

  Tracer on;
  {
    ScopedSpan span(&on, /*lane=*/nullptr, &clock, Phase::kTick);
    EXPECT_FALSE(span.active());
  }
  {
    ScopedSpan span(/*tracer=*/nullptr, lane, &clock, Phase::kTick);
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(lane->Snapshot().empty());
}

TEST(TracerTest, RuntimeToggleFlipsRecordingBothWays) {
  Tracer tracer;
  TraceBuffer* lane = tracer.EnsureLane(0, 0);
  util::ManualClock clock(0.0);
  tracer.set_enabled(false);
  { ScopedSpan span(&tracer, lane, &clock, Phase::kTick); }
  EXPECT_TRUE(lane->Snapshot().empty());
  tracer.set_enabled(true);
  { ScopedSpan span(&tracer, lane, &clock, Phase::kTick); }
  EXPECT_EQ(lane->Snapshot().size(), 1u);
}

TEST(ChromeTraceSinkTest, WritesSpansInstantsAndLaneMetadata) {
  TraceEvent span = Event(Phase::kExec, 1.0, 0.25, /*id=*/7);
  span.shard = 2;
  span.lane = 1;
  span.a0 = 1;
  TraceEvent instant = Event(Phase::kEnqueue, 0.5, 0.0, /*id=*/7);
  instant.lane = kAdmissionLane;
  std::ostringstream out;
  ChromeTraceSink().Write({instant, span}, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The span is a complete event with microsecond timestamps.
  EXPECT_NE(json.find("\"name\": \"exec\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 250000"), std::string::npos);
  // The instant carries thread scope, and the admission lane is named.
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("\"admission\""), std::string::npos);
  EXPECT_NE(json.find("\"shard 2\""), std::string::npos);
  // Request identity rides along for span chaining.
  EXPECT_NE(json.find("\"trace_id\": 7"), std::string::npos);
  // Phase args are exported under their documented names.
  EXPECT_NE(json.find("\"class\": 1"), std::string::npos);
}

TEST(ChromeTraceSinkTest, EmptyCollectionIsStillAValidDocument) {
  std::ostringstream out;
  ChromeTraceSink().Write({}, out);
  EXPECT_EQ(out.str().find("{\"traceEvents\": ["), 0u);
  EXPECT_NE(out.str().find("],\n\"otherData\": {\"dropped_events\": 0}}"),
            std::string::npos);
}

TEST(ChromeTraceSinkTest, WritesTheDroppedEventCount) {
  // A wrapped ring leaves holes; the count tells readers not to trust
  // span totals (tools/trace_summary.py refuses such a trace).
  std::ostringstream out;
  ChromeTraceSink(/*dropped_events=*/1234).Write(
      {Event(Phase::kTick, 1.0, 0.5)}, out);
  EXPECT_NE(out.str().find("\"otherData\": {\"dropped_events\": 1234}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end span conservation through the serving runtime, deterministic
// under a ManualClock: one worker holding one resident item at a time.
// ---------------------------------------------------------------------------

class TraceChainTest : public ::testing::Test {
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

  static std::unique_ptr<rl::Agent> MakeAgent(uint64_t seed) {
    nn::MlpConfig config;
    config.input_dim = zoo_->labels().total_labels();
    config.hidden_dims = {64};
    config.output_dim = zoo_->num_models() + 1;
    return std::make_unique<rl::Agent>(std::make_unique<nn::Mlp>(config, seed),
                                       nn::NetKind::kMlp);
  }

  static core::LabelingService BuildSession(rl::Agent* agent) {
    core::ScheduleConstraints constraints;
    constraints.time_budget_s = 1.0;
    constraints.memory_budget_mb = 8000.0;
    return core::LabelingServiceBuilder(zoo_)
        .WithOracle(oracle_)
        .WithPredictor(agent)
        .WithMode(core::ExecutionMode::kParallel)
        .WithConstraints(constraints)
        .WithWorkers(1)
        .WithSeed(17)
        .Build();
  }

  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* TraceChainTest::zoo_ = nullptr;
data::Dataset* TraceChainTest::dataset_ = nullptr;
data::Oracle* TraceChainTest::oracle_ = nullptr;

TEST_F(TraceChainTest, EveryRequestKeepsOneConnectedSpanChain) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(41);
  core::LabelingService session = BuildSession(agent.get());

  util::ManualClock clock(5.0);
  Tracer tracer;
  serve::ServeOptions options;
  options.workers = 1;
  options.max_resident_per_worker = 1;
  options.queue_capacity = 256;
  options.clock = &clock;
  options.tracer = &tracer;
  serve::ServerRuntime runtime(&session, options);

  const int kRequests = 64;
  std::vector<std::future<serve::ServeResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i % 48)));
  }
  clock.Advance(1.0);
  for (std::future<serve::ServeResult>& future : futures) {
    EXPECT_EQ(future.get().status, serve::ServeStatus::kOk);
  }
  runtime.Drain();
  runtime.Shutdown();

  const std::vector<TraceEvent> events = tracer.Collect();
  EXPECT_EQ(tracer.TotalDropped(), 0u);

  // Index lifecycle events by trace id.
  std::map<std::uint64_t, int> enqueues, waits, execs;
  for (const TraceEvent& event : events) {
    switch (static_cast<Phase>(event.phase)) {
      case Phase::kEnqueue:
        ASSERT_NE(event.id, 0u);
        ++enqueues[event.id];
        break;
      case Phase::kQueueWait:
        ++waits[event.id];
        break;
      case Phase::kExec:
        ++execs[event.id];
        break;
      default:
        break;
    }
  }

  // Span conservation: every sampled admitted request has exactly one
  // enqueue, one queue_wait, and one exec — no phase is lost or duplicated.
  EXPECT_EQ(enqueues.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, count] : enqueues) {
    EXPECT_EQ(count, 1) << "trace id " << id;
    EXPECT_EQ(waits[id], 1) << "trace id " << id;
    EXPECT_EQ(execs[id], 1) << "trace id " << id;
  }
  EXPECT_EQ(waits.size(), enqueues.size());
  EXPECT_EQ(execs.size(), enqueues.size());

  // Chains are time-ordered: each request's queue wait starts at its
  // enqueue timestamp and its execution starts no earlier than the wait.
  std::map<std::uint64_t, const TraceEvent*> wait_of, exec_of, enqueue_of;
  for (const TraceEvent& event : events) {
    const Phase phase = static_cast<Phase>(event.phase);
    if (phase == Phase::kQueueWait) wait_of[event.id] = &event;
    if (phase == Phase::kExec) exec_of[event.id] = &event;
    if (phase == Phase::kEnqueue) enqueue_of[event.id] = &event;
  }
  constexpr double kEps = 1e-9;
  for (const auto& [id, wait] : wait_of) {
    const TraceEvent* enq = enqueue_of[id];
    const TraceEvent* exec = exec_of[id];
    ASSERT_NE(enq, nullptr);
    ASSERT_NE(exec, nullptr);
    EXPECT_LE(wait->ts_s, enq->ts_s + kEps) << "trace id " << id;
    EXPECT_LE(wait->ts_s + wait->dur_s, exec->ts_s + kEps)
        << "trace id " << id;
    EXPECT_GE(wait->dur_s, 0.0);
    EXPECT_GE(exec->dur_s, 0.0);
  }

  // Worker lanes produced tick spans; ticks with completions also produced
  // forward spans (lane-scoped, id 0).
  int ticks = 0, forwards = 0;
  for (const TraceEvent& event : events) {
    if (static_cast<Phase>(event.phase) == Phase::kTick) ++ticks;
    if (static_cast<Phase>(event.phase) == Phase::kForward) ++forwards;
  }
  EXPECT_GT(ticks, 0);
  EXPECT_GT(forwards, 0);
}

TEST_F(TraceChainTest, StepperRecordsForwardSpansOnlyForRealForwards) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(47);
  core::LabelingService session = BuildSession(agent.get());
  std::unique_ptr<core::LabelingService::ItemStepper> stepper =
      session.NewItemStepper(0);
  Tracer tracer;
  TraceBuffer* lane = tracer.EnsureLane(0, 0);
  util::ManualClock clock(1.0);
  stepper->AttachTracer(&tracer, lane, &clock);

  // Serve the corpus twice, eight items resident: the second pass meets
  // only label states the first memoized, so many refreshes run no forward.
  std::vector<int> forward_rows;  // per traced tick that ran a forward
  int memo_only_refreshes = 0;
  std::vector<core::LabelingService::ItemStepper::Completion> done;
  const int kServed = 96;
  int admitted = 0, finished = 0;
  while (finished < kServed) {
    while (admitted < kServed && stepper->resident() < 8) {
      stepper->Admit(core::WorkItem::Stored(admitted % 48),
                     static_cast<uint64_t>(admitted % 48));
      ++admitted;
    }
    done.clear();
    stepper->Tick(&done);
    finished += static_cast<int>(done.size());
    const core::LabelingService::ItemStepper::TickStats& stats =
        stepper->last_tick_stats();
    ASSERT_TRUE(stats.traced);
    if (stats.forward_rows > 0) {
      forward_rows.push_back(stats.forward_rows);
    } else if (stats.memo_hits > 0) {
      ++memo_only_refreshes;
    }
  }
  ASSERT_GT(memo_only_refreshes, 0) << "no refresh was served by the memo";
  ASSERT_FALSE(forward_rows.empty());

  // One forward span per tick that ran a forward, in order, carrying that
  // tick's rows; a refresh the memo served entirely records none.
  EXPECT_EQ(lane->dropped(), 0u);
  std::vector<int> span_rows;
  int empty_spans = 0;
  for (const TraceEvent& event : lane->Snapshot()) {
    if (static_cast<Phase>(event.phase) != Phase::kForward) continue;
    span_rows.push_back(event.a0);
    if (event.a0 == 0) ++empty_spans;
  }
  EXPECT_EQ(empty_spans, 0);
  EXPECT_EQ(span_rows, forward_rows);
}

TEST_F(TraceChainTest, SamplingRecordsOnlyEveryNthLifecycle) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(43);
  core::LabelingService session = BuildSession(agent.get());

  Tracer::Options trace_options;
  trace_options.sample_every = 4;
  Tracer tracer(trace_options);
  serve::ServeOptions serve_options;
  serve_options.workers = 1;
  serve_options.queue_capacity = 256;
  serve_options.tracer = &tracer;
  serve::ServerRuntime runtime(&session, serve_options);

  const int kRequests = 32;
  std::vector<std::future<serve::ServeResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(runtime.Enqueue(core::WorkItem::Stored(i % 48)));
  }
  for (std::future<serve::ServeResult>& future : futures) {
    EXPECT_EQ(future.get().status, serve::ServeStatus::kOk);
  }
  runtime.Drain();
  runtime.Shutdown();

  std::set<std::uint64_t> exec_ids;
  for (const TraceEvent& event : tracer.Collect()) {
    if (static_cast<Phase>(event.phase) == Phase::kExec) {
      exec_ids.insert(event.id);
    }
  }
  // Admission sequences 0, 4, 8, ... are sampled: a quarter of the traffic.
  EXPECT_EQ(exec_ids.size(), static_cast<size_t>(kRequests) / 4);
}

}  // namespace
}  // namespace ams::obs
