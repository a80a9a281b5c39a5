// Tests of the session-based LabelingService facade and the PolicyRegistry:
// builder validation, batch determinism, registry lookup, serial vs parallel
// parity on unconstrained items, Algorithm 1's planning rule, the
// recall-target stop and how often the empty state is forwarded.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "core/labeling_service.h"
#include "core/value.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "data/stream.h"
#include "sched/policy_registry.h"

namespace ams::core {
namespace {

// Deterministic, stateless (hence thread-safe) stand-in predictor.
class StaticPredictor : public ModelValuePredictor {
 public:
  explicit StaticPredictor(std::vector<double> q) : q_(std::move(q)) {}
  std::vector<double> PredictValues(const std::vector<float>&) override {
    return q_;
  }
  int num_actions() const override { return static_cast<int>(q_.size()); }
  std::unique_ptr<ModelValuePredictor> ClonePredictor() const override {
    return std::make_unique<StaticPredictor>(q_);
  }

 private:
  std::vector<double> q_;
};

// StaticPredictor that counts forwards of the empty state; its clones
// share the counter, so a session's worker clones add to one count.
class EmptyStateCountingPredictor : public ModelValuePredictor {
 public:
  EmptyStateCountingPredictor(std::vector<double> q,
                              std::shared_ptr<std::atomic<int>> forwards)
      : q_(std::move(q)), forwards_(std::move(forwards)) {}
  std::vector<double> PredictValues(
      const std::vector<float>& features) override {
    if (std::all_of(features.begin(), features.end(),
                    [](float f) { return f == 0.0f; })) {
      forwards_->fetch_add(1);
    }
    return q_;
  }
  int num_actions() const override { return static_cast<int>(q_.size()); }
  std::unique_ptr<ModelValuePredictor> ClonePredictor() const override {
    return std::make_unique<EmptyStateCountingPredictor>(q_, forwards_);
  }

 private:
  std::vector<double> q_;
  std::shared_ptr<std::atomic<int>> forwards_;
};

class LabelingServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MsCoco(), zoo_->labels(), 60, 23));
    oracle_ = new data::Oracle(zoo_, dataset_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }
  static std::vector<double> UniformQ(double model_q, double end_q) {
    std::vector<double> q(31, model_q);
    q[30] = end_q;
    return q;
  }
  static std::vector<WorkItem> StoredItems(int count) {
    std::vector<WorkItem> items;
    for (int i = 0; i < count; ++i) items.push_back(WorkItem::Stored(i));
    return items;
  }
  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* LabelingServiceTest::zoo_ = nullptr;
data::Dataset* LabelingServiceTest::dataset_ = nullptr;
data::Oracle* LabelingServiceTest::oracle_ = nullptr;

// --- builder validation ----------------------------------------------------

TEST_F(LabelingServiceTest, BuilderRejectsNegativeTimeBudget) {
  StaticPredictor predictor(UniformQ(1.0, -5.0));
  ScheduleConstraints constraints;
  constraints.time_budget_s = -1.0;
  EXPECT_DEATH(LabelingServiceBuilder(zoo_)
                   .WithPredictor(&predictor)
                   .WithMode(ExecutionMode::kSerial)
                   .WithConstraints(constraints)
                   .Build(),
               "time budget");
}

TEST_F(LabelingServiceTest, BuilderRejectsNanMemoryBudget) {
  StaticPredictor predictor(UniformQ(1.0, -5.0));
  ScheduleConstraints constraints;
  constraints.memory_budget_mb = std::nan("");
  EXPECT_DEATH(LabelingServiceBuilder(zoo_)
                   .WithPredictor(&predictor)
                   .WithMode(ExecutionMode::kParallel)
                   .WithConstraints(constraints)
                   .Build(),
               "memory budget");
}

TEST_F(LabelingServiceTest, ConstraintsValidateDirectly) {
  ScheduleConstraints bad;
  bad.time_budget_s = std::nan("");
  EXPECT_DEATH(bad.Validate(), "time budget");
  ScheduleConstraints good;  // infinite budgets are fine
  good.Validate();
  good.time_budget_s = 0.0;  // zero budget is allowed: schedules nothing
  good.Validate();
}

TEST_F(LabelingServiceTest, BuilderRequiresADecisionSource) {
  EXPECT_DEATH(LabelingServiceBuilder(zoo_)
                   .WithMode(ExecutionMode::kSerial)
                   .Build(),
               "predictor");
}

TEST_F(LabelingServiceTest, BuilderRejectsPolicyInParallelMode) {
  EXPECT_DEATH(LabelingServiceBuilder(zoo_)
                   .WithOracle(oracle_)
                   .WithMode(ExecutionMode::kParallel)
                   .WithPolicy("random")
                   .Build(),
               "predictor-driven");
}

TEST_F(LabelingServiceTest, BuilderRejectsPredictorWithWrongActionSpace) {
  StaticPredictor bad(std::vector<double>(7, 0.0));
  EXPECT_DEATH(LabelingServiceBuilder(zoo_)
                   .WithPredictor(&bad)
                   .WithMode(ExecutionMode::kGreedy)
                   .Build(),
               "action space");
}

TEST_F(LabelingServiceTest, BuilderRejectsBothPredictorAndPolicy) {
  StaticPredictor predictor(UniformQ(1.0, -5.0));
  EXPECT_DEATH(LabelingServiceBuilder(zoo_)
                   .WithPredictor(&predictor)
                   .WithPolicy("random")
                   .WithMode(ExecutionMode::kSerial)
                   .Build(),
               "not both");
}

TEST_F(LabelingServiceTest, BuilderRejectsUnknownPolicyName) {
  EXPECT_DEATH(LabelingServiceBuilder(zoo_)
                   .WithMode(ExecutionMode::kSerial)
                   .WithPolicy("no_such_policy")
                   .Build(),
               "unknown policy");
}

// --- policy registry -------------------------------------------------------

TEST_F(LabelingServiceTest, RegistryIsTheSixBuiltInPolicies) {
  const std::vector<std::string> names = sched::PolicyRegistry::Names();
  EXPECT_EQ(names, (std::vector<std::string>{"explore_exploit", "no_policy",
                                             "optimal", "q_greedy", "random",
                                             "rule_based"}));
  EXPECT_EQ(sched::PolicyRegistry::JoinedNames(),
            "explore_exploit, no_policy, optimal, q_greedy, random, "
            "rule_based");
}

TEST_F(LabelingServiceTest, RegistryCreatesPoliciesByName) {
  sched::PolicyOptions options;
  options.seed = 11;
  for (const std::string& name : sched::PolicyRegistry::Names()) {
    const std::unique_ptr<sched::PolicyPicker> policy =
        sched::PolicyRegistry::Create(name, options);
    ASSERT_NE(policy, nullptr) << name;
    // Exactly the two policies an item stepper refuses.
    EXPECT_EQ(policy->depends_on_item_order(),
              name == "rule_based" || name == "explore_exploit")
        << name;
    EXPECT_EQ(sched::PolicyRegistry::Traits(name).needs_predictor,
              name == "q_greedy")
        << name;
    EXPECT_EQ(sched::PolicyRegistry::Traits(name).needs_chunked_stream,
              name == "explore_exploit")
        << name;
  }
}

TEST_F(LabelingServiceTest, RegistryRejectsUnknownNames) {
  EXPECT_FALSE(sched::PolicyRegistry::Contains("bogus"));
  EXPECT_DEATH(sched::PolicyRegistry::Create("bogus", {}), "unknown policy");
  EXPECT_DEATH(sched::PolicyRegistry::Traits("bogus"), "unknown policy");
}

TEST_F(LabelingServiceTest, BuilderRequiresPredictorForQGreedy) {
  EXPECT_DEATH(LabelingServiceBuilder(zoo_)
                   .WithOracle(oracle_)
                   .WithMode(ExecutionMode::kSerial)
                   .WithPolicy("q_greedy")
                   .Build(),
               "q_greedy.*WithPredictor");
}

// --- scheduling through sessions -------------------------------------------

TEST_F(LabelingServiceTest, BatchSubmissionIsDeterministicUnderAFixedSeed) {
  const auto run_batch = [&] {
    sched::PolicyOptions options;
    options.seed = 77;
    ScheduleConstraints constraints;
    constraints.time_budget_s = 1.0;
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithMode(ExecutionMode::kSerial)
                                  .WithPolicy("random", options)
                                  .WithConstraints(constraints)
                                  .WithWorkers(4)
                                  .Build();
    return service.SubmitBatch(StoredItems(40));
  };
  const std::vector<LabelOutcome> a = run_batch();
  const std::vector<LabelOutcome> b = run_batch();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].recall, b[i].recall);
    ASSERT_EQ(a[i].schedule.executions.size(),
              b[i].schedule.executions.size());
    for (size_t k = 0; k < a[i].schedule.executions.size(); ++k) {
      EXPECT_EQ(a[i].schedule.executions[k].model_id,
                b[i].schedule.executions[k].model_id);
    }
    EXPECT_DOUBLE_EQ(a[i].schedule.makespan_s, b[i].schedule.makespan_s);
  }
}

TEST_F(LabelingServiceTest, SerialAndParallelAgreeOnUnconstrainedItems) {
  // With unlimited budgets both Algorithm 1 and Algorithm 2 run the whole
  // zoo, so the recalled value must coincide exactly.
  StaticPredictor predictor(UniformQ(1.0, -5.0));
  LabelingService serial = LabelingServiceBuilder(zoo_)
                               .WithOracle(oracle_)
                               .WithPredictor(&predictor)
                               .WithMode(ExecutionMode::kSerial)
                               .Build();
  LabelingService parallel = LabelingServiceBuilder(zoo_)
                                 .WithOracle(oracle_)
                                 .WithPredictor(&predictor)
                                 .WithMode(ExecutionMode::kParallel)
                                 .Build();
  for (int item = 0; item < 10; ++item) {
    const LabelOutcome s = serial.Submit(WorkItem::Stored(item));
    const LabelOutcome p = parallel.Submit(WorkItem::Stored(item));
    EXPECT_EQ(s.schedule.executions.size(), 30u);
    EXPECT_EQ(p.schedule.executions.size(), 30u);
    EXPECT_NEAR(s.schedule.value, p.schedule.value, 1e-9);
    EXPECT_NEAR(s.recall, p.recall, 1e-12);
    EXPECT_NEAR(s.recall, 1.0, 1e-9) << "full execution recalls everything";
  }
}

// --- Algorithm 1's planning rule ----------------------------------------

// Algorithm 1 is a kSerial session over a predictor. It scores a model by
// SchedulingProfit(Q) over the zoo's mean time and checks feasibility
// against the execution context's planned time, which replay takes from the
// item's realized draw.
LabelOutcome RunAlgorithm1(const data::Oracle* oracle, int item,
                           const std::vector<double>& q, double deadline_s) {
  StaticPredictor predictor(q);
  ScheduleConstraints constraints;
  constraints.time_budget_s = deadline_s;
  LabelingService service = LabelingServiceBuilder(&oracle->zoo())
                                .WithOracle(oracle)
                                .WithPredictor(&predictor)
                                .WithMode(ExecutionMode::kSerial)
                                .WithConstraints(constraints)
                                .Build();
  return service.Submit(WorkItem::Stored(item));
}

TEST_F(LabelingServiceTest, Algorithm1DividesByModelTime) {
  // Give two models equal Q; the cheaper one must start first. Then give
  // the expensive one enough Q to flip the ratio.
  const int cheap = 18;   // gender_cls_s, 60 ms
  const int costly = 23;  // action_cls_l, 400 ms
  ASSERT_LT(zoo_->model(cheap).time_s, zoo_->model(costly).time_s);
  std::vector<double> q(31, -10.0);
  q[static_cast<size_t>(cheap)] = 1.0;
  q[static_cast<size_t>(costly)] = 1.0;
  LabelOutcome outcome = RunAlgorithm1(oracle_, 0, q, 10.0);
  ASSERT_FALSE(outcome.schedule.executions.empty());
  EXPECT_EQ(outcome.schedule.executions[0].model_id, cheap);

  q[static_cast<size_t>(cheap)] = 0.2;
  q[static_cast<size_t>(costly)] = 3.5;  // decompressed ratio flips
  outcome = RunAlgorithm1(oracle_, 0, q, 10.0);
  ASSERT_FALSE(outcome.schedule.executions.empty());
  EXPECT_EQ(outcome.schedule.executions[0].model_id, costly);
}

TEST_F(LabelingServiceTest, Algorithm1RespectsDeadlineFilter) {
  const int item = 3;
  const double budget = 0.12;
  const LabelOutcome outcome =
      RunAlgorithm1(oracle_, item, std::vector<double>(31, 1.0), budget);
  ASSERT_FALSE(outcome.schedule.executions.empty());
  for (const ExecutionRecord& record : outcome.schedule.executions) {
    EXPECT_LE(oracle_->ExecutionTime(item, record.model_id), budget);
  }
  EXPECT_LE(outcome.schedule.makespan_s, budget)
      << "replay checks feasibility against the realized draw";
}

TEST_F(LabelingServiceTest, Algorithm1ScoresByMeanTimeNotTheRealizedDraw) {
  // On item 0 of this corpus model 6 is cheaper on average than model 27
  // but its realized draw is slower. With equal Q, Algorithm 1 must rank
  // them as a live scheduler would, by the zoo's mean time.
  const data::Dataset dataset = data::Dataset::Generate(
      data::DatasetProfile::MsCoco(), zoo_->labels(), 64, 41);
  const data::Oracle oracle(zoo_, &dataset);
  const int cheaper_mean = 6;
  const int cheaper_draw = 27;
  ASSERT_LT(zoo_->model(cheaper_mean).time_s,
            zoo_->model(cheaper_draw).time_s);
  ASSERT_GT(oracle.ExecutionTime(0, cheaper_mean),
            oracle.ExecutionTime(0, cheaper_draw));
  std::vector<double> q(31, -10.0);
  q[static_cast<size_t>(cheaper_mean)] = 1.0;
  q[static_cast<size_t>(cheaper_draw)] = 1.0;
  const LabelOutcome outcome = RunAlgorithm1(&oracle, 0, q, 1.0);
  ASSERT_FALSE(outcome.schedule.executions.empty());
  EXPECT_EQ(outcome.schedule.executions[0].model_id, cheaper_mean);
}

TEST_F(LabelingServiceTest, LiveAndStoredSubmissionsAgree) {
  // The oracle replays exactly what live execution produces, so a live
  // submission of an item's scene must match the stored submission's
  // schedule value.
  StaticPredictor predictor(UniformQ(1.0, -5.0));
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithOracle(oracle_)
                                .WithPredictor(&predictor)
                                .WithMode(ExecutionMode::kGreedy)
                                .Build();
  for (int item = 0; item < 5; ++item) {
    const LabelOutcome stored = service.Submit(WorkItem::Stored(item));
    const LabelOutcome live = service.Submit(dataset_->item(item).scene);
    EXPECT_NEAR(stored.schedule.value, live.schedule.value, 1e-9);
    EXPECT_EQ(stored.schedule.executions.size(),
              live.schedule.executions.size());
    EXPECT_GE(stored.recall, 0.0) << "stored submissions report recall";
    EXPECT_EQ(live.recall, -1.0) << "live submissions have no ground truth";
  }
}

TEST_F(LabelingServiceTest, RecallTargetStopsEarly) {
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithOracle(oracle_)
                                .WithMode(ExecutionMode::kSerial)
                                .WithPolicy("optimal")
                                .WithRecallTarget(0.5)
                                .Build();
  for (int item = 0; item < 20; ++item) {
    const LabelOutcome outcome = service.Submit(WorkItem::Stored(item));
    EXPECT_GE(outcome.recall, 0.5 - 1e-9);
    const std::vector<ExecutionRecord>& executions =
        outcome.schedule.executions;
    EXPECT_LT(executions.size(), 30u)
        << "the optimal policy reaches half recall well before 30 models";
    // Stopping was tight: before the last model the target was not reached.
    if (executions.size() >= 2) {
      double value = 0.0;
      for (size_t k = 0; k + 1 < executions.size(); ++k) {
        value += executions[k].gain;
      }
      EXPECT_LT(ValueRecall(value, oracle_->TrueTotalValue(item)), 0.5)
          << "item " << item;
    }
  }
}

TEST_F(LabelingServiceTest, StreamingRunVisitsEveryItemInOrder) {
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithOracle(oracle_)
                                .WithMode(ExecutionMode::kSerial)
                                .WithPolicy("no_policy")
                                .WithRecallTarget(1.0)
                                .WithWorkers(3)
                                .Build();
  std::vector<int> indices(20);
  std::iota(indices.begin(), indices.end(), 0);
  data::DataStream stream(dataset_, indices, /*shuffle=*/false, /*seed=*/1);
  std::vector<int> visited;
  const int count = service.Run(
      &stream, [&](const WorkItem& item, const LabelOutcome& outcome) {
        visited.push_back(item.item);
        EXPECT_NEAR(outcome.recall, 1.0, 1e-9);
      });
  EXPECT_EQ(count, 20);
  EXPECT_EQ(visited, indices) << "sink sees items in arrival order";
}

TEST_F(LabelingServiceTest, InterleavedChunksStayWithOneWorker) {
  // Chunk-adaptive policies must see each chunk's full history even when
  // chunks interleave in the batch and several workers run: results must
  // match a single-worker run of the same order exactly.
  const data::Dataset chunked = data::Dataset::GenerateChunked(
      data::DatasetProfile::MirFlickr25(), zoo_->labels(), /*num_chunks=*/6,
      /*chunk_len=*/5, /*seed=*/31);
  const data::Oracle oracle(zoo_, &chunked);
  std::vector<WorkItem> interleaved;
  for (int offset = 0; offset < 5; ++offset) {
    for (int chunk = 0; chunk < 6; ++chunk) {
      const int item = chunk * 5 + offset;
      interleaved.push_back(
          WorkItem::Stored(item, chunked.item(item).chunk_id));
    }
  }
  const auto run_with_workers = [&](int workers) {
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(&oracle)
                                  .WithMode(ExecutionMode::kSerial)
                                  .WithPolicy("explore_exploit")
                                  .WithRecallTarget(1.0)
                                  .WithWorkers(workers)
                                  .Build();
    return service.SubmitBatch(interleaved);
  };
  const std::vector<LabelOutcome> parallel = run_with_workers(4);
  const std::vector<LabelOutcome> sequential = run_with_workers(1);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel[i].recall, sequential[i].recall);
    EXPECT_EQ(parallel[i].schedule.executions.size(),
              sequential[i].schedule.executions.size())
        << "chunk history must not depend on the worker count";
  }
}

TEST_F(LabelingServiceTest, ParallelModeHonoursMemoryBudget) {
  StaticPredictor predictor(UniformQ(1.0, -5.0));
  ScheduleConstraints constraints;
  constraints.time_budget_s = 1.0;
  constraints.memory_budget_mb = 8192.0;
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithOracle(oracle_)
                                .WithPredictor(&predictor)
                                .WithMode(ExecutionMode::kParallel)
                                .WithConstraints(constraints)
                                .Build();
  for (int item = 0; item < 10; ++item) {
    const LabelOutcome outcome = service.Submit(WorkItem::Stored(item));
    EXPECT_LE(outcome.schedule.peak_mem_mb, 8192.0 + 1e-6);
    EXPECT_LE(outcome.schedule.makespan_s, 1.0 + 1e-9)
        << "replayed execution times are known, so nothing overshoots";
  }
}

// --- the opening row -------------------------------------------------------

TEST_F(LabelingServiceTest, EmptyStateIsForwardedOncePerWorkerBlockPerCall) {
  // Every item opens on the empty state, and no item is skipped (no recall
  // target), so each item's first pick reads its row. A SubmitBatch worker
  // forwards it once for its whole block, on a plane built for the call;
  // Submit forwards it once per call, since the session's predictor may
  // change between calls.
  const auto forwards = std::make_shared<std::atomic<int>>(0);
  EmptyStateCountingPredictor predictor(UniformQ(1.0, -5.0), forwards);
  ScheduleConstraints constraints;
  constraints.time_budget_s = 0.5;
  constexpr int kWorkers = 3;
  LabelingService session = LabelingServiceBuilder(zoo_)
                                .WithOracle(oracle_)
                                .WithPredictor(&predictor)
                                .WithMode(ExecutionMode::kSerial)
                                .WithConstraints(constraints)
                                .WithWorkers(kWorkers)
                                .Build();
  const std::vector<WorkItem> items = StoredItems(30);
  for (int call = 1; call <= 2; ++call) {
    const std::vector<LabelOutcome> outcomes = session.SubmitBatch(items);
    for (const LabelOutcome& outcome : outcomes) {
      ASSERT_FALSE(outcome.schedule.executions.empty());
    }
    EXPECT_EQ(forwards->load(), call * kWorkers) << "call " << call;
  }

  forwards->store(0);
  for (int i = 0; i < 4; ++i) {
    const LabelOutcome outcome = session.Submit(items[static_cast<size_t>(i)]);
    ASSERT_FALSE(outcome.schedule.executions.empty());
    EXPECT_EQ(forwards->load(), i + 1) << "Submit call " << i + 1;
  }
}

}  // namespace
}  // namespace ams::core
