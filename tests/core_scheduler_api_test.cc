// Tests of what a LabelingService session promises on live items, where
// nothing but the executed models' outputs is known: the END stop, the
// full-run value, fresh labels that are all valuable, deadlines that hold up
// to one overrun, and parallel execution fitting more models into a
// deadline than serial.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"

namespace ams::core {
namespace {

// Deterministic, stateless stand-in predictor.
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

class SchedulerApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MsCoco(), zoo_->labels(), 60, 23));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete zoo_;
  }
  static std::vector<double> UniformQ(double model_q, double end_q) {
    std::vector<double> q(31, model_q);
    q[30] = end_q;
    return q;
  }
  static ScheduleConstraints Budget(
      double time_s,
      double memory_mb = std::numeric_limits<double>::infinity()) {
    ScheduleConstraints constraints;
    constraints.time_budget_s = time_s;
    constraints.memory_budget_mb = memory_mb;
    return constraints;
  }
  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
};

zoo::ModelZoo* SchedulerApiTest::zoo_ = nullptr;
data::Dataset* SchedulerApiTest::dataset_ = nullptr;

TEST_F(SchedulerApiTest, GreedyStopsWhenEndDominates) {
  StaticPredictor predictor(UniformQ(/*model_q=*/-0.5, /*end_q=*/0.0));
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithPredictor(&predictor)
                                .WithMode(ExecutionMode::kGreedy)
                                .Build();
  const LabelOutcome outcome = service.Submit(dataset_->item(0).scene);
  EXPECT_TRUE(outcome.schedule.executions.empty())
      << "END outranks every model";
  EXPECT_EQ(outcome.schedule.makespan_s, 0.0);
}

TEST_F(SchedulerApiTest, GreedyFullRunCollectsTheUnionValue) {
  // A live greedy run that never prefers END executes every model once and
  // holds the best confidence per valuable label over the whole zoo.
  StaticPredictor predictor(UniformQ(1.0, -5.0));
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithPredictor(&predictor)
                                .WithMode(ExecutionMode::kGreedy)
                                .Build();
  const zoo::LatentScene& scene = dataset_->item(1).scene;
  const LabelOutcome outcome = service.Submit(scene);
  ASSERT_EQ(outcome.schedule.executions.size(), 30u);
  std::set<int> models;
  for (const ExecutionRecord& record : outcome.schedule.executions) {
    models.insert(record.model_id);
  }
  EXPECT_EQ(models.size(), 30u) << "each model exactly once";
  std::map<int, double> best;
  for (int m = 0; m < 30; ++m) {
    for (const zoo::LabelOutput out : zoo_->Execute(m, scene)) {
      if (out.confidence >= zoo::kValuableConfidence) {
        best[out.label_id] = std::max(best[out.label_id], out.confidence);
      }
    }
  }
  double expected = 0.0;
  for (const auto& [label, conf] : best) expected += conf;
  EXPECT_NEAR(outcome.schedule.value, expected, 1e-9);
}

TEST_F(SchedulerApiTest, FreshLabelsAreValuable) {
  StaticPredictor predictor(UniformQ(1.0, -5.0));
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithPredictor(&predictor)
                                .WithMode(ExecutionMode::kGreedy)
                                .Build();
  const LabelOutcome outcome = service.Submit(dataset_->item(2).scene);
  ASSERT_FALSE(outcome.schedule.executions.empty());
  for (const ExecutionRecord& record : outcome.schedule.executions) {
    for (const auto& fresh : record.fresh) {
      EXPECT_GE(fresh.confidence, zoo::kValuableConfidence);
    }
  }
}

TEST_F(SchedulerApiTest, LiveDeadlinesHoldUpToOneOverrun) {
  // Live items check feasibility against mean times, and a realized time
  // can exceed its mean by up to about 1.6x, so a schedule may end past its
  // deadline by one model's overrun. Serial schedules are contiguous in
  // time.
  StaticPredictor predictor(UniformQ(1.0, -5.0));
  LabelingService serial = LabelingServiceBuilder(zoo_)
                               .WithPredictor(&predictor)
                               .WithMode(ExecutionMode::kSerial)
                               .WithConstraints(Budget(0.8))
                               .Build();
  LabelingService parallel = LabelingServiceBuilder(zoo_)
                                 .WithPredictor(&predictor)
                                 .WithMode(ExecutionMode::kParallel)
                                 .WithConstraints(Budget(1.0, 8192.0))
                                 .Build();
  for (int i = 0; i < 10; ++i) {
    const zoo::LatentScene& scene = dataset_->item(i).scene;
    const LabelOutcome s = serial.Submit(scene);
    EXPECT_LE(s.schedule.makespan_s, 0.8 + 0.4);
    EXPECT_FALSE(s.schedule.executions.empty());
    double now = 0.0;
    for (const ExecutionRecord& record : s.schedule.executions) {
      EXPECT_NEAR(record.start_s, now, 1e-9);
      now = record.finish_s;
    }
    const LabelOutcome p = parallel.Submit(scene);
    EXPECT_LE(p.schedule.makespan_s, 1.0 + 0.4);
    EXPECT_LE(p.schedule.peak_mem_mb, 8192.0 + 1e-6);
  }
}

TEST_F(SchedulerApiTest, ParallelBeatsSerialUnderTightDeadline) {
  StaticPredictor predictor(UniformQ(1.0, -5.0));
  LabelingService serial = LabelingServiceBuilder(zoo_)
                               .WithPredictor(&predictor)
                               .WithMode(ExecutionMode::kSerial)
                               .WithConstraints(Budget(0.5))
                               .Build();
  LabelingService parallel = LabelingServiceBuilder(zoo_)
                                 .WithPredictor(&predictor)
                                 .WithMode(ExecutionMode::kParallel)
                                 .WithConstraints(Budget(0.5, 16384.0))
                                 .Build();
  double serial_models = 0.0, parallel_models = 0.0;
  for (int i = 0; i < 15; ++i) {
    const zoo::LatentScene& scene = dataset_->item(i).scene;
    serial_models += serial.Submit(scene).schedule.num_executions;
    parallel_models += parallel.Submit(scene).schedule.num_executions;
  }
  EXPECT_GT(parallel_models, serial_models * 1.5)
      << "parallel packing should execute far more models per deadline";
}

// The kernel is the one place that checks a pick against the budgets,
// whatever the picker: a model whose planned time exceeds the time left, or
// whose memory exceeds the free memory, is refused when it would start.
TEST_F(SchedulerApiTest, KernelRefusesPicksOverBudget) {
  const LiveExecutionContext exec(zoo_, &dataset_->item(0).scene);
  // Starts the most expensive unstarted model, budget or not.
  const ModelPicker reckless = [](const PickContext& pick) {
    int worst = -1;
    for (int k = 0; k < pick.num_unstarted; ++k) {
      const int m = pick.unstarted[k];
      if (worst == -1 || pick.planned_time[m] > pick.planned_time[worst]) {
        worst = m;
      }
    }
    return worst;
  };
  const double slowest =
      *std::max_element(zoo_->mean_times().begin(), zoo_->mean_times().end());
  EXPECT_DEATH(RunScheduleKernel(exec, Budget(slowest / 2), reckless),
               "exceeding the remaining time");
  EXPECT_DEATH(RunScheduleKernel(exec, Budget(slowest * 100, 1.0), reckless),
               "exceeding the free memory");
}

}  // namespace
}  // namespace ams::core
