// Unit tests of the Eq. 3 reward, its shaping variants, the scheduling MDP
// and the profit transform used by the constraint algorithms.

#include <gtest/gtest.h>

#include <cmath>

#include "core/env.h"
#include "core/predictor.h"
#include "core/reward.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "zoo/model_zoo.h"

namespace ams::core {
namespace {

TEST(RewardTest, Equation3Exactly) {
  const std::vector<zoo::LabelOutput> outputs = {{1, 0.8}, {2, 0.6}};
  // r = ln(theta * sum_conf + 1)
  EXPECT_NEAR(ModelReward(outputs, 1.0), std::log(1.4 + 1.0), 1e-12);
  EXPECT_NEAR(ModelReward(outputs, 5.0), std::log(5.0 * 1.4 + 1.0), 1e-12);
  // Empty O' is punished with -1 regardless of theta.
  EXPECT_DOUBLE_EQ(ModelReward({}, 1.0), kNoOutputPunishment);
  EXPECT_DOUBLE_EQ(ModelReward({}, 10.0), -1.0);
}

TEST(RewardTest, ShapingVariants) {
  const std::vector<zoo::LabelOutput> outputs = {{1, 0.8}, {2, 0.6}};
  EXPECT_NEAR(ModelReward(outputs, 1.0, RewardShaping::kAverage), 0.7, 1e-12);
  EXPECT_NEAR(ModelReward(outputs, 1.0, RewardShaping::kRawSum), 1.4, 1e-12);
  EXPECT_NEAR(ModelReward(outputs, 2.0, RewardShaping::kRawSum), 2.8, 1e-12);
  // Log smoothing compresses: a 70-label output gets << 70x one label's
  // reward (the SIV-A bias argument).
  std::vector<zoo::LabelOutput> many;
  for (int i = 0; i < 70; ++i) many.push_back({i, 0.8});
  const double many_log = ModelReward(many, 1.0, RewardShaping::kLogSum);
  const double one_log = ModelReward({{0, 0.8}}, 1.0, RewardShaping::kLogSum);
  EXPECT_LT(many_log, one_log * 10.0);
  const double many_raw = ModelReward(many, 1.0, RewardShaping::kRawSum);
  const double one_raw = ModelReward({{0, 0.8}}, 1.0, RewardShaping::kRawSum);
  EXPECT_NEAR(many_raw, one_raw * 70.0, 1e-9);
}

TEST(SchedulingProfitTest, MonotoneAndPositive) {
  double prev = 0.0;
  for (double q = -5.0; q <= 5.0; q += 0.1) {
    const double p = SchedulingProfit(q);
    EXPECT_GT(p, 0.0);
    EXPECT_GT(p, prev) << "strictly increasing at q=" << q;
    prev = p;
  }
  // Decompression: for confidently positive Q the profit approximates the
  // inverse of the log reward, e^q - 1.
  EXPECT_NEAR(SchedulingProfit(2.0), std::expm1(2.0), 0.05 * std::expm1(2.0));
}

class EnvTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MsCoco(), zoo_->labels(), 40, 77));
    oracle_ = new data::Oracle(zoo_, dataset_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }
  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* EnvTest::zoo_ = nullptr;
data::Dataset* EnvTest::dataset_ = nullptr;
data::Oracle* EnvTest::oracle_ = nullptr;

TEST_F(EnvTest, DimensionsMatchPaper) {
  SchedulingEnv env(oracle_, EnvConfig{});
  EXPECT_EQ(env.feature_dim(), 1104);
  EXPECT_EQ(env.num_models(), 30);
  EXPECT_EQ(env.num_actions(), 31);
  EXPECT_EQ(env.end_action(), 30);
}

TEST_F(EnvTest, EpisodeMechanics) {
  SchedulingEnv env(oracle_, EnvConfig{});
  env.Reset(0);
  EXPECT_FALSE(env.done());
  EXPECT_EQ(env.ValidActions().size(), 31u);
  const StepResult step = env.Step(5);
  EXPECT_FALSE(env.ActionValid(5)) << "executed models become invalid";
  EXPECT_EQ(env.ValidActions().size(), 30u);
  EXPECT_GT(env.TimeSpent(), 0.0);
  // Reward consistent with the model's fresh output.
  EXPECT_NEAR(step.reward, ModelReward(step.fresh, 1.0), 1e-12);
}

TEST_F(EnvTest, EndActionTerminatesWithZeroReward) {
  SchedulingEnv env(oracle_, EnvConfig{});
  env.Reset(1);
  const StepResult step = env.Step(env.end_action());
  EXPECT_TRUE(step.done);
  EXPECT_TRUE(env.done());
  EXPECT_DOUBLE_EQ(step.reward, kEndActionReward);
}

TEST_F(EnvTest, EndActionCanBeDisabled) {
  EnvConfig config;
  config.enable_end_action = false;
  SchedulingEnv env(oracle_, config);
  env.Reset(0);
  EXPECT_FALSE(env.ActionValid(env.end_action()));
  EXPECT_EQ(env.ValidActions().size(), 30u);
}

TEST_F(EnvTest, ExecutingAllModelsReachesFullRecallAndDone) {
  SchedulingEnv env(oracle_, EnvConfig{});
  env.Reset(2);
  for (int m = 0; m < env.num_models(); ++m) {
    EXPECT_FALSE(env.done());
    env.Step(m);
  }
  EXPECT_TRUE(env.done());
  EXPECT_NEAR(env.Recall(), 1.0, 1e-12);
  EXPECT_NEAR(env.Value(), oracle_->TrueTotalValue(2), 1e-9);
  EXPECT_NEAR(env.TimeSpent(), oracle_->TotalTime(2), 1e-9);
}

TEST_F(EnvTest, DuplicateTaskOutputsEarnPunishment) {
  SchedulingEnv env(oracle_, EnvConfig{});
  // Find an item where the large place model is valuable, run it, then run
  // the small one: the small one's scene label is no longer fresh, and since
  // place models emit at most the scene label valuably, it gets -1.
  const auto place_models =
      oracle_->zoo().ModelsForTask(zoo::TaskKind::kPlaceClassification);
  // The first valuable label of a model's output, or -1 if it has none.
  const auto first_valuable_label = [&](int item, int model) {
    for (const zoo::LabelOutput out : oracle_->Output(item, model)) {
      if (out.confidence >= zoo::kValuableConfidence) return out.label_id;
    }
    return -1;
  };
  for (int item = 0; item < oracle_->num_items(); ++item) {
    const int large_label = first_valuable_label(item, place_models[2]);
    const int small_label = first_valuable_label(item, place_models[0]);
    if (large_label < 0 || small_label < 0) continue;
    if (large_label != small_label) continue;
    env.Reset(item);
    env.Step(place_models[2]);
    const StepResult duplicate = env.Step(place_models[0]);
    EXPECT_DOUBLE_EQ(duplicate.reward, kNoOutputPunishment);
    return;
  }
  GTEST_SKIP() << "no suitable item in this tiny dataset";
}

}  // namespace
}  // namespace ams::core
