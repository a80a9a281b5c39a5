// Tests of the execution-plane seams: batched vs scalar Q-prediction
// (bitwise parity on rl::Agent and identical service outcomes), lean vs
// full kernel mode (identical value/makespan/recall), the memoized replay
// context (determinism under parallel workers), and the builder validation
// of the new knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/decision_plane.h"
#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "eval/deadline_sweep.h"
#include "eval/memory_sweep.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "sched/basic_policies.h"

namespace ams::core {
namespace {

std::unique_ptr<rl::Agent> MakeAgent(const zoo::ModelZoo& zoo,
                                     nn::NetKind kind, uint64_t seed) {
  nn::MlpConfig config;
  config.input_dim = zoo.labels().total_labels();
  config.hidden_dims = {64};
  config.output_dim = zoo.num_models() + 1;
  std::unique_ptr<nn::QValueNet> net;
  if (kind == nn::NetKind::kDueling) {
    net = std::make_unique<nn::DuelingMlp>(config, seed);
  } else {
    net = std::make_unique<nn::Mlp>(config, seed);
  }
  return std::make_unique<rl::Agent>(std::move(net), kind);
}

// Thread-safe predictor that counts how its predictions are served; clones
// share the counters, so per-worker clones still report into one place.
class CountingPredictor : public ModelValuePredictor {
 public:
  CountingPredictor(int num_actions, std::atomic<long>* scalar_calls,
                    std::atomic<long>* batch_calls)
      : q_(static_cast<size_t>(num_actions), 1.0),
        scalar_calls_(scalar_calls),
        batch_calls_(batch_calls) {
    q_.back() = -1.0;  // END never outranks a model
  }
  std::vector<double> PredictValues(const std::vector<float>&) override {
    ++*scalar_calls_;
    return q_;
  }
  void PredictValuesBatchTo(const std::vector<float>* const*,
                            const std::vector<int>* const*, size_t count,
                            double* out) override {
    ++*batch_calls_;
    for (size_t i = 0; i < count; ++i) {
      std::copy(q_.begin(), q_.end(), out + i * q_.size());
    }
  }
  int num_actions() const override { return static_cast<int>(q_.size()); }
  std::unique_ptr<ModelValuePredictor> ClonePredictor() const override {
    return std::make_unique<CountingPredictor>(*this);
  }

 private:
  std::vector<double> q_;
  std::atomic<long>* scalar_calls_;
  std::atomic<long>* batch_calls_;
};

class ExecutionPlaneTest : public ::testing::Test {
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

  static std::vector<WorkItem> StoredItems(int count) {
    std::vector<WorkItem> items;
    for (int i = 0; i < count; ++i) items.push_back(WorkItem::Stored(i));
    return items;
  }

  static ScheduleConstraints ParallelConstraints() {
    ScheduleConstraints constraints;
    constraints.time_budget_s = 1.0;
    constraints.memory_budget_mb = 8000.0;
    return constraints;
  }

  // The outcome fields every kernel mode must agree on.
  static void ExpectSameOutcome(const LabelOutcome& a, const LabelOutcome& b) {
    EXPECT_EQ(a.recall, b.recall);
    EXPECT_EQ(a.schedule.value, b.schedule.value);
    EXPECT_EQ(a.schedule.makespan_s, b.schedule.makespan_s);
    EXPECT_EQ(a.schedule.peak_mem_mb, b.schedule.peak_mem_mb);
    EXPECT_EQ(a.schedule.num_executions, b.schedule.num_executions);
  }

  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* ExecutionPlaneTest::zoo_ = nullptr;
data::Dataset* ExecutionPlaneTest::dataset_ = nullptr;
data::Oracle* ExecutionPlaneTest::oracle_ = nullptr;

// --- batched prediction ----------------------------------------------------

TEST_F(ExecutionPlaneTest, AgentBatchedPredictionIsBitwiseIdentical) {
  for (nn::NetKind kind : {nn::NetKind::kMlp, nn::NetKind::kDueling}) {
    std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, kind, 7);
    // Real mid-schedule states of varying density, plus the all-zero state.
    std::vector<std::vector<float>> states;
    for (int item = 0; item < 8; ++item) {
      LabelingState state(zoo_->labels().total_labels(), zoo_->num_models());
      for (int m = 0; m < 4 * item; ++m) {
        state.Apply(m % zoo_->num_models(), oracle_->Output(item, m % 30));
      }
      states.push_back(state.Features());
    }
    std::vector<const std::vector<float>*> ptrs;
    for (const auto& s : states) ptrs.push_back(&s);

    const size_t stride = static_cast<size_t>(agent->num_actions());
    std::vector<double> batched(states.size() * stride);
    agent->PredictValuesBatchTo(ptrs.data(), /*set_indices=*/nullptr,
                                ptrs.size(), batched.data());
    for (size_t i = 0; i < states.size(); ++i) {
      const std::vector<double> scalar = agent->PredictValues(states[i]);
      ASSERT_EQ(scalar.size(), stride);
      for (size_t j = 0; j < stride; ++j) {
        // Exact equality: the batched forward must be bit-for-bit the
        // scalar forward, or batched scheduling could diverge.
        EXPECT_EQ(batched[i * stride + j], scalar[j])
            << "kind=" << static_cast<int>(kind) << " state " << i
            << " action " << j;
      }
    }
  }
}

TEST_F(ExecutionPlaneTest, BatchedServiceMatchesScalarServiceExactly) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 11);
  const std::vector<WorkItem> items = StoredItems(40);
  std::vector<LabelOutcome> scalar, batched;
  for (bool batch : {false, true}) {
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithPredictor(agent.get())
                                  .WithMode(ExecutionMode::kParallel)
                                  .WithConstraints(ParallelConstraints())
                                  .WithBatchedPrediction(batch)
                                  .WithWorkers(2)
                                  .Build();
    (batch ? batched : scalar) = service.SubmitBatch(items);
  }
  ASSERT_EQ(scalar.size(), batched.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    ExpectSameOutcome(scalar[i], batched[i]);
    // Full mode: the exact execution sequences must match too.
    ASSERT_EQ(scalar[i].schedule.executions.size(),
              batched[i].schedule.executions.size());
    for (size_t k = 0; k < scalar[i].schedule.executions.size(); ++k) {
      EXPECT_EQ(scalar[i].schedule.executions[k].model_id,
                batched[i].schedule.executions[k].model_id);
      EXPECT_EQ(scalar[i].schedule.executions[k].finish_s,
                batched[i].schedule.executions[k].finish_s);
    }
  }
}

TEST_F(ExecutionPlaneTest, BatchedSessionsCoalesceAllPredictions) {
  std::atomic<long> scalar_calls{0}, batch_calls{0};
  CountingPredictor predictor(zoo_->num_models() + 1, &scalar_calls,
                              &batch_calls);
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithOracle(oracle_)
                                .WithPredictor(&predictor)
                                .WithMode(ExecutionMode::kParallel)
                                .WithConstraints(ParallelConstraints())
                                .WithBatchedPrediction(true)
                                .WithWorkers(1)
                                .Build();
  service.SubmitBatch(StoredItems(24));
  EXPECT_EQ(scalar_calls.load(), 0)
      << "batched sessions must never fall back to scalar prediction";
  EXPECT_GT(batch_calls.load(), 0);
}

// --- lean kernel mode ------------------------------------------------------

TEST_F(ExecutionPlaneTest, LeanKernelMatchesFullForPredictorSessions) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 13);
  const std::vector<WorkItem> items = StoredItems(32);
  std::vector<LabelOutcome> full, lean;
  for (KernelMode mode : {KernelMode::kFull, KernelMode::kLean}) {
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithPredictor(agent.get())
                                  .WithMode(ExecutionMode::kParallel)
                                  .WithConstraints(ParallelConstraints())
                                  .WithKernelMode(mode)
                                  .WithWorkers(2)
                                  .Build();
    (mode == KernelMode::kLean ? lean : full) = service.SubmitBatch(items);
  }
  ASSERT_EQ(full.size(), lean.size());
  for (size_t i = 0; i < full.size(); ++i) {
    ExpectSameOutcome(full[i], lean[i]);
    // Lean skips materialization only.
    EXPECT_TRUE(lean[i].schedule.executions.empty());
    EXPECT_TRUE(lean[i].schedule.recalled_labels.empty());
    EXPECT_EQ(static_cast<int>(full[i].schedule.executions.size()),
              full[i].schedule.num_executions);
  }
}

TEST_F(ExecutionPlaneTest, LeanKernelMatchesFullForPolicySessions) {
  const std::vector<WorkItem> items = StoredItems(32);
  ScheduleConstraints constraints;
  constraints.time_budget_s = 0.8;
  std::vector<LabelOutcome> full, lean;
  for (KernelMode mode : {KernelMode::kFull, KernelMode::kLean}) {
    // The oracle-ordered policy exercises the lean-mode hook path: the
    // policies still receive every execution's fresh labels via OnExecuted.
    LabelingService service =
        LabelingServiceBuilder(zoo_)
            .WithOracle(oracle_)
            .WithMode(ExecutionMode::kSerial)
            .WithPolicyFactory(
                [] { return std::make_unique<sched::OptimalPolicy>(); })
            .WithConstraints(constraints)
            .WithKernelMode(mode)
            .WithWorkers(2)
            .Build();
    (mode == KernelMode::kLean ? lean : full) = service.SubmitBatch(items);
  }
  for (size_t i = 0; i < full.size(); ++i) ExpectSameOutcome(full[i], lean[i]);
}

TEST_F(ExecutionPlaneTest, DeadlineSweepLeanPathMatchesFullRecall) {
  std::vector<int> items;
  for (int i = 0; i < 24; ++i) items.push_back(i);
  const std::vector<double> deadlines = {0.25, 0.5, 1.0, 2.0};
  const auto factory = [] {
    return std::make_unique<sched::RandomPolicy>(19);
  };
  // The sweep runs on the lean kernel path internally.
  const eval::DeadlineSweep sweep = eval::ComputeDeadlineSweep(
      factory, *oracle_, items, deadlines, /*num_threads=*/2);
  // Full-path replica of the sweep's sessions.
  for (size_t d = 0; d < deadlines.size(); ++d) {
    ScheduleConstraints constraints;
    constraints.time_budget_s = deadlines[d];
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithMode(ExecutionMode::kSerial)
                                  .WithPolicyFactory(factory)
                                  .WithConstraints(constraints)
                                  .WithKernelMode(KernelMode::kFull)
                                  .WithWorkers(2)
                                  .Build();
    const std::vector<LabelOutcome> outcomes =
        service.SubmitBatch(StoredItems(static_cast<int>(items.size())));
    double sum = 0.0;
    for (const LabelOutcome& outcome : outcomes) sum += outcome.recall;
    EXPECT_EQ(sweep.avg_recall[d], sum / static_cast<double>(items.size()))
        << "deadline " << deadlines[d];
  }
}

TEST_F(ExecutionPlaneTest, MemorySweepLeanPathMatchesFullRecall) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 17);
  std::vector<int> items;
  for (int i = 0; i < 24; ++i) items.push_back(i);
  const std::vector<double> deadlines = {0.5, 1.0};
  const double mem_budget = 8000.0;
  // The sweep runs lean + batched internally.
  const eval::MemorySweep sweep =
      eval::ComputeMemorySweep(agent.get(), *oracle_, items, mem_budget,
                               deadlines, /*seed=*/3, /*num_threads=*/2);
  for (size_t d = 0; d < deadlines.size(); ++d) {
    ScheduleConstraints constraints;
    constraints.time_budget_s = deadlines[d];
    constraints.memory_budget_mb = mem_budget;
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithPredictor(agent.get())
                                  .WithMode(ExecutionMode::kParallel)
                                  .WithConstraints(constraints)
                                  .WithKernelMode(KernelMode::kFull)
                                  .WithWorkers(2)
                                  .Build();
    const std::vector<LabelOutcome> outcomes =
        service.SubmitBatch(StoredItems(static_cast<int>(items.size())));
    double sum = 0.0;
    for (const LabelOutcome& outcome : outcomes) sum += outcome.recall;
    EXPECT_EQ(sweep.avg_recall[d], sum / static_cast<double>(items.size()))
        << "deadline " << deadlines[d];
  }
}

// --- replay cache ----------------------------------------------------------

TEST_F(ExecutionPlaneTest, CachedReplayServesOracleDataByReference) {
  CachedReplayExecutionContext cached(oracle_, /*item=*/3);
  ReplayExecutionContext plain(oracle_, /*item=*/3);
  for (int m = 0; m < zoo_->num_models(); ++m) {
    EXPECT_EQ(cached.RealizedTime(m), plain.RealizedTime(m));
    EXPECT_EQ(cached.PlannedTime(m), plain.PlannedTime(m));
    // Same address as the oracle's storage: no intermediate copy.
    EXPECT_EQ(&cached.Execute(m), &oracle_->Output(3, m));
  }
}

TEST_F(ExecutionPlaneTest, CachedReplayIsDeterministicUnderConcurrentUse) {
  CachedReplayExecutionContext cached(oracle_, /*item=*/5);
  const int num_models = zoo_->num_models();
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        for (int m = 0; m < num_models; ++m) {
          const int model = (m + t) % num_models;
          if (cached.RealizedTime(model) !=
                  oracle_->ExecutionTime(5, model) ||
              &cached.Execute(model) != &oracle_->Output(5, model)) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ExecutionPlaneTest, ReplayCacheKeepsParallelBatchesDeterministic) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 23);
  const std::vector<WorkItem> items = StoredItems(40);
  auto build = [&](bool cache) {
    return LabelingServiceBuilder(zoo_)
        .WithOracle(oracle_)
        .WithPredictor(agent.get())
        .WithMode(ExecutionMode::kParallel)
        .WithConstraints(ParallelConstraints())
        .WithBatchedPrediction(true)
        .WithKernelMode(KernelMode::kLean)
        .WithReplayCache(cache)
        .WithWorkers(4)
        .Build();
  };
  LabelingService uncached = build(false);
  LabelingService cached = build(true);
  const std::vector<LabelOutcome> baseline = uncached.SubmitBatch(items);
  // Two rounds through the cached session: the second is served entirely
  // from memoized contexts and must not drift.
  for (int round = 0; round < 2; ++round) {
    const std::vector<LabelOutcome> outcomes = cached.SubmitBatch(items);
    ASSERT_EQ(outcomes.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      ExpectSameOutcome(baseline[i], outcomes[i]);
    }
  }
}

TEST_F(ExecutionPlaneTest, PooledWorkerClonesTrackLiveWeights) {
  // The session pools per-worker clones across batches; mutating the source
  // predictor between batches (training step, checkpoint reload) must still
  // be picked up, as if the clones were rebuilt per batch.
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 41);
  std::unique_ptr<rl::Agent> other = MakeAgent(*zoo_, nn::NetKind::kMlp, 43);
  const std::vector<WorkItem> items = StoredItems(16);
  auto build = [&](rl::Agent* predictor) {
    return LabelingServiceBuilder(zoo_)
        .WithOracle(oracle_)
        .WithPredictor(predictor)
        .WithMode(ExecutionMode::kParallel)
        .WithConstraints(ParallelConstraints())
        .WithWorkers(2)
        .Build();
  };
  LabelingService service = build(agent.get());
  service.SubmitBatch(items);  // clones created with agent's initial weights
  agent->net()->CopyWeightsFrom(other->net());
  const std::vector<LabelOutcome> after = service.SubmitBatch(items);
  LabelingService fresh = build(other.get());
  const std::vector<LabelOutcome> expected = fresh.SubmitBatch(items);
  for (size_t i = 0; i < items.size(); ++i) {
    ExpectSameOutcome(expected[i], after[i]);
  }
}

// --- builder validation ----------------------------------------------------

TEST_F(ExecutionPlaneTest, BuilderRejectsBatchedPredictionWithoutPredictor) {
  EXPECT_DEATH(LabelingServiceBuilder(zoo_)
                   .WithOracle(oracle_)
                   .WithMode(ExecutionMode::kSerial)
                   .WithPolicy("random")
                   .WithConstraints({/*time*/ 1.0})
                   .WithBatchedPrediction(true)
                   .Build(),
               "batched prediction");
}

TEST_F(ExecutionPlaneTest, BuilderRejectsReplayCacheWithoutOracle) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 29);
  EXPECT_DEATH(LabelingServiceBuilder(zoo_)
                   .WithPredictor(agent.get())
                   .WithMode(ExecutionMode::kGreedy)
                   .WithReplayCache(true)
                   .Build(),
               "replay caching");
}

}  // namespace
}  // namespace ams::core
