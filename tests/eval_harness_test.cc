// Tests of the evaluation harness: recall curves, deadline sweeps, the agent
// cache and the world fixture.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <numeric>

#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "eval/agent_cache.h"
#include "eval/deadline_sweep.h"
#include "eval/memory_sweep.h"
#include "eval/recall_curve.h"
#include "eval/world.h"

namespace ams::eval {
namespace {

class EvalHarnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MsCoco(), zoo_->labels(), 100, 51));
    oracle_ = new data::Oracle(zoo_, dataset_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }
  static std::vector<int> Items() {
    return std::vector<int>(dataset_->test_indices().begin(),
                            dataset_->test_indices().begin() + 50);
  }
  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* EvalHarnessTest::zoo_ = nullptr;
data::Dataset* EvalHarnessTest::dataset_ = nullptr;
data::Oracle* EvalHarnessTest::oracle_ = nullptr;

TEST_F(EvalHarnessTest, RecallCurveIsMonotoneInThreshold) {
  const RecallCurve curve = ComputeRecallCurve(
      PolicySpec{"random", {/*seed=*/1}}, *oracle_, Items(),
      DefaultThresholds());
  EXPECT_EQ(curve.policy_name, "random");
  ASSERT_EQ(curve.avg_models.size(), 10u);
  for (size_t k = 1; k < curve.thresholds.size(); ++k) {
    EXPECT_GE(curve.avg_models[k], curve.avg_models[k - 1] - 1e-9);
    EXPECT_GE(curve.avg_time_s[k], curve.avg_time_s[k - 1] - 1e-9);
  }
  EXPECT_LE(curve.avg_models.back(), 30.0);
}

TEST_F(EvalHarnessTest, OptimalCurveDominatesRandom) {
  const auto items = Items();
  const RecallCurve random = ComputeRecallCurve(
      PolicySpec{"random", {/*seed=*/1}}, *oracle_, items,
      DefaultThresholds());
  const RecallCurve optimal = ComputeRecallCurve(
      PolicySpec{"optimal"}, *oracle_, items, DefaultThresholds());
  for (size_t k = 0; k < random.thresholds.size(); ++k) {
    EXPECT_LE(optimal.avg_models[k], random.avg_models[k] + 1e-9);
    EXPECT_LE(optimal.avg_time_s[k], random.avg_time_s[k] + 1e-9);
  }
}

TEST_F(EvalHarnessTest, FullRecallCostsMatchSingleThreadedRuns) {
  // The multi-threaded harness must agree with a direct single-threaded
  // computation (deterministic policies).
  const auto items = Items();
  const FullRecallCosts costs = ComputeFullRecallCosts(
      PolicySpec{"optimal"}, *oracle_, items, 1.0, /*num_threads=*/4);
  const FullRecallCosts costs_single = ComputeFullRecallCosts(
      PolicySpec{"optimal"}, *oracle_, items, 1.0, /*num_threads=*/1);
  ASSERT_EQ(costs.time_s.size(), costs_single.time_s.size());
  for (size_t i = 0; i < costs.time_s.size(); ++i) {
    EXPECT_DOUBLE_EQ(costs.time_s[i], costs_single.time_s[i]);
    EXPECT_DOUBLE_EQ(costs.models[i], costs_single.models[i]);
  }
}

TEST_F(EvalHarnessTest, DeadlineSweepRecallIsMonotoneInDeadline) {
  // Deterministic policy: recall must be (near-)monotone in the budget. The
  // random policy reshuffles per run, so it only gets a loose noise bound.
  const DeadlineSweep optimal = ComputeDeadlineSweep(
      PolicySpec{"optimal"}, *oracle_, Items(), DefaultDeadlines());
  const DeadlineSweep random = ComputeDeadlineSweep(
      PolicySpec{"random", {/*seed=*/2}}, *oracle_, Items(),
      DefaultDeadlines());
  for (size_t k = 1; k < optimal.deadlines_s.size(); ++k) {
    EXPECT_GE(optimal.avg_recall[k], optimal.avg_recall[k - 1] - 1e-9);
    EXPECT_GE(random.avg_recall[k], random.avg_recall[k - 1] - 0.1);
  }
  EXPECT_GE(random.avg_recall.front(), 0.0);
  EXPECT_LE(random.avg_recall.back(), 1.0 + 1e-9);
}

TEST_F(EvalHarnessTest, OptimalStarSweepDominatesPolicies) {
  const auto items = Items();
  const auto deadlines = DefaultDeadlines();
  const DeadlineSweep star = ComputeOptimalStarSweep(*oracle_, items, deadlines);
  const DeadlineSweep random = ComputeDeadlineSweep(
      PolicySpec{"random", {/*seed=*/2}}, *oracle_, items, deadlines);
  for (size_t k = 0; k < deadlines.size(); ++k) {
    EXPECT_GE(star.avg_recall[k] + 1e-9, random.avg_recall[k]);
  }
}

TEST_F(EvalHarnessTest, OptimalStarSweepsDoNotDependOnTheThreadCount) {
  // Both bounds average per-item recalls, so splitting the items over
  // another number of threads must not move a single bit.
  std::vector<int> items(static_cast<size_t>(dataset_->size()));
  std::iota(items.begin(), items.end(), 0);
  const DeadlineSweep one =
      ComputeOptimalStarSweep(*oracle_, items, DefaultDeadlines(), 1);
  const DeadlineSweep three =
      ComputeOptimalStarSweep(*oracle_, items, DefaultDeadlines(), 3);
  EXPECT_EQ(one.avg_recall, three.avg_recall);
  const MemorySweep memory_one = ComputeOptimalStarMemorySweep(
      *oracle_, items, 8192.0, DefaultMemoryDeadlines(), 1);
  const MemorySweep memory_three = ComputeOptimalStarMemorySweep(
      *oracle_, items, 8192.0, DefaultMemoryDeadlines(), 3);
  EXPECT_EQ(memory_one.avg_recall, memory_three.avg_recall);
}

TEST_F(EvalHarnessTest, MemorySweepBasicContract) {
  const MemorySweep sweep = ComputeMemorySweep(
      nullptr, *oracle_, Items(), 8192.0, DefaultMemoryDeadlines(), 5);
  EXPECT_EQ(sweep.policy_name, "random");
  for (double r : sweep.avg_recall) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0 + 1e-9);
  }
}

TEST_F(EvalHarnessTest, WorldConfigReadsEnvironment) {
  ::setenv("AMS_ITEMS", "222", 1);
  ::setenv("AMS_EPISODES", "33", 1);
  ::setenv("AMS_HIDDEN", "44", 1);
  ::setenv("AMS_EVAL_ITEMS", "55", 1);
  const WorldConfig config = WorldConfig::FromEnv();
  EXPECT_EQ(config.items_per_dataset, 222);
  EXPECT_EQ(config.train_episodes, 33);
  EXPECT_EQ(config.hidden_dim, 44);
  EXPECT_EQ(config.eval_items, 55);
  ::unsetenv("AMS_ITEMS");
  ::unsetenv("AMS_EPISODES");
  ::unsetenv("AMS_HIDDEN");
  ::unsetenv("AMS_EVAL_ITEMS");
}

TEST_F(EvalHarnessTest, AgentCacheTrainsOnceThenLoadsIdentically) {
  AgentCache cache(::testing::TempDir() + "/ams_agent_cache");
  AgentRequest request;
  request.key = "test_agent";
  request.oracle = oracle_;
  request.config.episodes = 30;
  request.config.hidden_dim = 16;
  request.config.min_replay = 50;
  std::unique_ptr<rl::Agent> first = cache.GetOrTrain(request);
  ASSERT_NE(first, nullptr);
  std::unique_ptr<rl::Agent> second = cache.GetOrTrain(request);
  ASSERT_NE(second, nullptr);
  std::vector<float> state(1104, 0.0f);
  state[10] = 1.0f;
  const auto q1 = first->PredictValues(state);
  const auto q2 = second->PredictValues(state);
  for (size_t i = 0; i < q1.size(); ++i) {
    EXPECT_FLOAT_EQ(q1[i], q2[i]) << "cache must reload the same weights";
  }
}

TEST_F(EvalHarnessTest, AgentCacheBatchTrainsAllMisses) {
  AgentCache cache(::testing::TempDir() + "/ams_agent_cache_batch");
  std::vector<AgentRequest> requests(2);
  for (int i = 0; i < 2; ++i) {
    requests[static_cast<size_t>(i)].key = "batch_" + std::to_string(i);
    requests[static_cast<size_t>(i)].oracle = oracle_;
    requests[static_cast<size_t>(i)].config.episodes = 20;
    requests[static_cast<size_t>(i)].config.hidden_dim = 16;
    requests[static_cast<size_t>(i)].config.min_replay = 50;
    requests[static_cast<size_t>(i)].config.seed = 100 + i;
  }
  const auto agents = cache.GetOrTrainAll(requests);
  ASSERT_EQ(agents.size(), 2u);
  EXPECT_NE(agents[0], nullptr);
  EXPECT_NE(agents[1], nullptr);
}

}  // namespace
}  // namespace ams::eval
