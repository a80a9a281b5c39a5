// Tests of serial and parallel runs over stored items, driven through
// LabelingService sessions: budget enforcement, trajectory invariants,
// memory rebuilt from the execution intervals, and Algorithm 2 against
// random packing.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/labeling_service.h"
#include "core/value.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"

namespace ams::core {
namespace {

// Oracle-informed predictor for one stored item: each model's Q is the log
// of the value its valuable outputs would still add in the current state.
// A strong signal for Algorithm 2 without training.
class OraclePredictor : public ModelValuePredictor {
 public:
  OraclePredictor(const data::Oracle* oracle, int item)
      : oracle_(oracle), item_(item) {}
  std::vector<double> PredictValues(const std::vector<float>& state) override {
    std::vector<double> q(31, 0.0);
    for (int m = 0; m < 30; ++m) {
      double value = 0.0;
      for (const zoo::LabelOutput out : oracle_->Output(item_, m)) {
        if (out.confidence < zoo::kValuableConfidence) continue;
        if (state[static_cast<size_t>(out.label_id)] == 0.0f) {
          value += out.confidence;
        }
      }
      // Report on the same log scale as trained agents (Eq. 3).
      q[static_cast<size_t>(m)] = value > 0.0 ? std::log(value + 1.0) : -1.0;
    }
    return q;
  }
  int num_actions() const override { return 31; }

 private:
  const data::Oracle* oracle_;
  int item_;
};

class RunnerTest : public ::testing::Test {
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
  static ScheduleConstraints Budget(
      double time_s,
      double memory_mb = std::numeric_limits<double>::infinity()) {
    ScheduleConstraints constraints;
    constraints.time_budget_s = time_s;
    constraints.memory_budget_mb = memory_mb;
    return constraints;
  }
  // An oracle-backed session; `predictor` is null for random packing.
  static LabelingService Session(ExecutionMode mode,
                                 ModelValuePredictor* predictor,
                                 const ScheduleConstraints& constraints) {
    LabelingServiceBuilder builder(zoo_);
    builder.WithOracle(oracle_).WithMode(mode).WithConstraints(constraints);
    if (predictor != nullptr) builder.WithPredictor(predictor);
    return builder.Build();
  }
  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* RunnerTest::zoo_ = nullptr;
data::Dataset* RunnerTest::dataset_ = nullptr;
data::Oracle* RunnerTest::oracle_ = nullptr;

class SerialTrajectoryTest : public RunnerTest,
                             public ::testing::WithParamInterface<double> {};

TEST_P(SerialTrajectoryTest, NeverExceedsBudgetAndTrajectoryIsConsistent) {
  // Replay plans with the realized draw, so a serial schedule never
  // overruns; running recall (summed gains) only grows and ends at the
  // outcome's recall.
  const double budget = GetParam();
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithOracle(oracle_)
                                .WithMode(ExecutionMode::kSerial)
                                .WithPolicy("random")
                                .WithConstraints(Budget(budget))
                                .Build();
  for (int item = 0; item < 30; ++item) {
    const LabelOutcome outcome = service.Submit(WorkItem::Stored(item));
    const std::vector<ExecutionRecord>& executions =
        outcome.schedule.executions;
    EXPECT_LE(outcome.schedule.makespan_s, budget + 1e-9);
    EXPECT_EQ(outcome.schedule.num_executions,
              static_cast<int>(executions.size()));
    const double total = oracle_->TrueTotalValue(item);
    double now = 0.0, value = 0.0, recall = 0.0;
    for (const ExecutionRecord& record : executions) {
      EXPECT_EQ(record.start_s, now);
      EXPECT_GT(record.finish_s, record.start_s);
      now = record.finish_s;
      value += record.gain;
      EXPECT_GE(ValueRecall(value, total), recall - 1e-12);
      recall = ValueRecall(value, total);
    }
    EXPECT_EQ(now, outcome.schedule.makespan_s);
    if (!executions.empty()) {
      EXPECT_EQ(recall, outcome.recall);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, SerialTrajectoryTest,
                         ::testing::Values(0.1, 0.5, 1.0, 3.0));

class ParallelMemoryTest
    : public RunnerTest,
      public ::testing::WithParamInterface<std::pair<double, double>> {};

TEST_P(ParallelMemoryTest, IntervalsRespectMemoryAndDeadline) {
  // Algorithm 2 (over an oracle signal) and random packing on stored items:
  // concurrent memory rebuilt from the recorded intervals never exceeds the
  // budget, and each interval lasts exactly the item's realized draw.
  const auto [mem_gb, deadline] = GetParam();
  const ScheduleConstraints constraints = Budget(deadline, mem_gb * 1024.0);
  LabelingService packing =
      Session(ExecutionMode::kParallelRandom, nullptr, constraints);
  for (int item = 0; item < 20; ++item) {
    OraclePredictor predictor(oracle_, item);
    LabelingService algorithm2 =
        Session(ExecutionMode::kParallel, &predictor, constraints);
    for (LabelingService* service : {&algorithm2, &packing}) {
      const ScheduleResult run =
          service->Submit(WorkItem::Stored(item)).schedule;
      EXPECT_LE(run.peak_mem_mb, constraints.memory_budget_mb + 1e-6);
      EXPECT_LE(run.makespan_s, deadline + 1e-9);
      for (const ExecutionRecord& a : run.executions) {
        EXPECT_GE(a.start_s, 0.0);
        EXPECT_NEAR(a.finish_s - a.start_s,
                    oracle_->ExecutionTime(item, a.model_id), 1e-9);
        double concurrent = 0.0;
        for (const ExecutionRecord& b : run.executions) {
          if (b.start_s <= a.start_s && a.start_s < b.finish_s) {
            concurrent += zoo_->model(b.model_id).mem_mb;
          }
        }
        EXPECT_LE(concurrent, constraints.memory_budget_mb + 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, ParallelMemoryTest,
                         ::testing::Values(std::make_pair(8.0, 0.5),
                                           std::make_pair(8.0, 1.5),
                                           std::make_pair(12.0, 1.0),
                                           std::make_pair(16.0, 2.0)));

TEST_F(RunnerTest, Algorithm2WithOracleSignalBeatsRandomOnAverage) {
  const ScheduleConstraints constraints = Budget(0.8, 8192.0);
  LabelingService packing =
      Session(ExecutionMode::kParallelRandom, nullptr, constraints);
  double alg2 = 0.0, random = 0.0;
  for (int item = 0; item < oracle_->num_items(); ++item) {
    OraclePredictor predictor(oracle_, item);
    alg2 += Session(ExecutionMode::kParallel, &predictor, constraints)
                .Submit(WorkItem::Stored(item))
                .recall;
    random += packing.Submit(WorkItem::Stored(item)).recall;
  }
  EXPECT_GT(alg2, random * 1.15)
      << "alg2=" << alg2 / oracle_->num_items()
      << " random=" << random / oracle_->num_items();
}

}  // namespace
}  // namespace ams::core
