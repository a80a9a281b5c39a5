// Tests of the execution-plane seams: batched vs scalar Q-prediction
// (bitwise parity on rl::Agent, and SubmitBatch decision rows served by the
// inference forward), lean vs full kernel mode (identical
// value/makespan/recall), and the session's pooled predictor clones.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
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

TEST_F(ExecutionPlaneTest, BatchedSessionsCoalesceAllPredictions) {
  std::atomic<long> scalar_calls{0}, batch_calls{0};
  CountingPredictor predictor(zoo_->num_models() + 1, &scalar_calls,
                              &batch_calls);
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithOracle(oracle_)
                                .WithPredictor(&predictor)
                                .WithMode(ExecutionMode::kParallel)
                                .WithConstraints(ParallelConstraints())
                                .WithWorkers(1)
                                .Build();
  service.SubmitBatch(StoredItems(24));
  EXPECT_EQ(scalar_calls.load(), 0)
      << "SubmitBatch decision rows must come from the inference forward "
         "(PredictValuesBatchTo), never the training forward PredictValues";
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
  // The sweep runs lean internally.
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

// --- predictor pool --------------------------------------------------------

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

}  // namespace
}  // namespace ams::core
