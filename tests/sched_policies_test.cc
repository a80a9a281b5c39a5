// Unit tests of the registry policies as kernel pickers: each policy object
// runs an item through a core::ScheduleKernel over the shared oracle
// fixture, with a deterministic fake predictor behind q_greedy's kQ slot.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "core/decision_plane.h"
#include "core/predictor.h"
#include "core/schedule_kernel.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "sched/basic_policies.h"
#include "sched/rule_based.h"

namespace ams::sched {
namespace {

// Fake predictor returning fixed Q values regardless of state.
class FakePredictor : public core::ModelValuePredictor {
 public:
  explicit FakePredictor(std::vector<double> q) : q_(std::move(q)) {}
  std::vector<double> PredictValues(const std::vector<float>&) override {
    return q_;
  }
  int num_actions() const override { return static_cast<int>(q_.size()); }

 private:
  std::vector<double> q_;
};

class PoliciesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MsCoco(), zoo_->labels(), 60, 13));
    oracle_ = new data::Oracle(zoo_, dataset_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }
  // Arms `policy` for stored `item` and runs the item through a kernel under
  // `budget_s`, picking as a resident item record does: only when idle.
  // Returns the models in execution order.
  static std::vector<int> Schedule(
      PolicyPicker* policy, int item,
      double budget_s = std::numeric_limits<double>::infinity(),
      core::DecisionPlane::Slot* slot = nullptr) {
    PolicyItem state;
    state.zoo = zoo_;
    state.oracle = oracle_;
    state.item = item;
    state.slot = slot;
    policy->Arm(&state);
    const core::ReplayExecutionContext exec(oracle_, item);
    core::ScheduleConstraints constraints;
    constraints.time_budget_s = budget_s;
    const core::ScheduleResult result = core::RunScheduleKernel(
        exec, constraints, [&](const core::PickContext& pick) {
          return pick.idle ? policy->Pick(pick, &state) : -1;
        });
    std::vector<int> models;
    for (const core::ExecutionRecord& record : result.executions) {
      models.push_back(record.model_id);
    }
    return models;
  }
  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* PoliciesTest::zoo_ = nullptr;
data::Dataset* PoliciesTest::dataset_ = nullptr;
data::Oracle* PoliciesTest::oracle_ = nullptr;

TEST_F(PoliciesTest, RandomPolicyCoversAllModelsWithoutBudget) {
  RandomPolicy policy(5);
  const std::vector<int> models = Schedule(&policy, 0);
  EXPECT_EQ(models.size(), 30u);
  const std::set<int> seen(models.begin(), models.end());
  EXPECT_EQ(seen.size(), models.size()) << "a model ran twice";
}

TEST_F(PoliciesTest, RandomPolicySkipsModelsOverBudget) {
  RandomPolicy policy(6);
  const double budget = 0.1;  // only the cheapest models fit
  const std::vector<int> models = Schedule(&policy, 1, budget);
  EXPECT_LT(models.size(), 30u);
  for (const int m : models) EXPECT_LE(oracle_->ExecutionTime(1, m), budget);
}

TEST_F(PoliciesTest, RandomPolicyOrderVariesAcrossItems) {
  RandomPolicy policy(7);
  const int first_a = Schedule(&policy, 0).front();
  std::vector<int> firsts;
  for (int item = 1; item < 12; ++item) {
    firsts.push_back(Schedule(&policy, item).front());
  }
  EXPECT_TRUE(std::any_of(firsts.begin(), firsts.end(),
                          [&](int m) { return m != first_a; }));
}

TEST_F(PoliciesTest, OptimalPolicyOrdersByTrueSoloValueDescending) {
  OptimalPolicy policy;
  const int item = 2;
  const std::vector<int> models = Schedule(&policy, item);
  ASSERT_FALSE(models.empty());
  double prev = std::numeric_limits<double>::infinity();
  for (const int m : models) {
    const double solo = oracle_->ModelSoloValue(item, m);
    EXPECT_GT(solo, 0.0) << "optimal never runs worthless models";
    EXPECT_LE(solo, prev + 1e-12);
    prev = solo;
  }
}

TEST_F(PoliciesTest, QGreedyPicksArgmaxAmongUnstarted) {
  std::vector<double> q(31, 0.0);
  q[7] = 5.0;
  q[3] = 4.0;
  q[20] = 3.0;
  FakePredictor predictor(q);
  core::DecisionPlane plane(&predictor, core::DecisionRow::kQ);
  QGreedyPolicy policy;
  const std::vector<int> models = Schedule(
      &policy, 0, std::numeric_limits<double>::infinity(), plane.NewSlot());
  ASSERT_GE(models.size(), 3u);
  EXPECT_EQ(models[0], 7);
  EXPECT_EQ(models[1], 3);
  EXPECT_EQ(models[2], 20);
}

TEST_F(PoliciesTest, RuleEngineScalesTaskWeightsOncePerItem) {
  RuleBasedPolicy policy(DefaultRules(), 11);
  const int person_label =
      zoo_->labels().LabelId(zoo::TaskKind::kObjectDetection,
                             zoo::LabelSpace::kObjectPerson);
  core::ExecutionRecord record;
  PolicyItem item;
  item.zoo = zoo_;
  const auto person_rules_fired = [&] {
    int fired = 0;
    for (size_t r = 0; r < policy.rules().size(); ++r) {
      if (policy.rules()[r].trigger == ExecutionRule::Trigger::kObjectPerson) {
        fired += item.fired[r];
      }
    }
    return fired;
  };
  const size_t pose = static_cast<size_t>(zoo::TaskKind::kPoseEstimation);
  // A new item resets the per-item gate, so each item fires each rule once.
  for (int item_id = 0; item_id < 2; ++item_id) {
    item.item = item_id;
    policy.Arm(&item);
    EXPECT_EQ(person_rules_fired(), 0);
    // Fire the person rules twice; each fires only once per item.
    record.fresh = {{person_label, 0.9}};
    policy.OnExecuted(record, &item);
    record.fresh = {{person_label, 0.95}};
    policy.OnExecuted(record, &item);
    EXPECT_EQ(person_rules_fired(), 3)  // three person rules, each once
        << "each rule fires at most once per item";
    EXPECT_EQ(item.task_weight[pose], 2.0)
        << "person => pose doubled once, not twice";
  }
}

TEST_F(PoliciesTest, DefaultRulesMatchTableII) {
  const auto rules = DefaultRules();
  EXPECT_EQ(rules.size(), 10u);
  int boosts = 0, suppressions = 0;
  for (const auto& rule : rules) {
    if (rule.factor > 1.0) ++boosts;
    if (rule.factor < 1.0) ++suppressions;
  }
  EXPECT_EQ(boosts, 8);
  EXPECT_EQ(suppressions, 2);
}

}  // namespace
}  // namespace ams::sched
