// Unit tests of the scheduling policies against a deterministic fake
// predictor and the shared oracle fixture.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/predictor.h"
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
  static ItemContext Context(int item) {
    return ItemContext{oracle_, zoo_, item, -1};
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
  policy.BeginItem(Context(0));
  core::LabelingState state(1104, 30);
  std::set<int> seen;
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 30; ++i) {
    const int m = policy.NextModel(state, inf);
    ASSERT_GE(m, 0);
    EXPECT_TRUE(seen.insert(m).second) << "repeated model " << m;
    state.Apply(m, {});
  }
  EXPECT_EQ(policy.NextModel(state, inf), -1);
}

TEST_F(PoliciesTest, RandomPolicySkipsModelsOverBudget) {
  RandomPolicy policy(6);
  policy.BeginItem(Context(1));
  core::LabelingState state(1104, 30);
  const double budget = 0.1;  // only the cheapest models fit
  for (;;) {
    const int m = policy.NextModel(state, budget);
    if (m < 0) break;
    EXPECT_LE(oracle_->ExecutionTime(1, m), budget);
    state.Apply(m, {});
  }
}

TEST_F(PoliciesTest, RandomPolicyOrderVariesAcrossItems) {
  RandomPolicy policy(7);
  core::LabelingState state(1104, 30);
  const double inf = std::numeric_limits<double>::infinity();
  policy.BeginItem(Context(0));
  const int first_a = policy.NextModel(state, inf);
  std::vector<int> firsts;
  for (int item = 1; item < 12; ++item) {
    policy.BeginItem(Context(item));
    firsts.push_back(policy.NextModel(state, inf));
  }
  EXPECT_TRUE(std::any_of(firsts.begin(), firsts.end(),
                          [&](int m) { return m != first_a; }));
}

TEST_F(PoliciesTest, OptimalPolicyOrdersByTrueSoloValueDescending) {
  OptimalPolicy policy;
  const int item = 2;
  policy.BeginItem(Context(item));
  core::LabelingState state(1104, 30);
  const double inf = std::numeric_limits<double>::infinity();
  double prev = std::numeric_limits<double>::infinity();
  for (;;) {
    const int m = policy.NextModel(state, inf);
    if (m < 0) break;
    const double solo = oracle_->ModelSoloValue(item, m);
    EXPECT_GT(solo, 0.0) << "optimal never runs worthless models";
    EXPECT_LE(solo, prev + 1e-12);
    prev = solo;
    state.Apply(m, {});
  }
}

TEST_F(PoliciesTest, QGreedyPicksArgmaxAmongUnexecuted) {
  std::vector<double> q(31, 0.0);
  q[7] = 5.0;
  q[3] = 4.0;
  q[20] = 3.0;
  FakePredictor predictor(q);
  QGreedyPolicy policy(&predictor);
  policy.BeginItem(Context(0));
  core::LabelingState state(1104, 30);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(policy.NextModel(state, inf), 7);
  state.Apply(7, {});
  EXPECT_EQ(policy.NextModel(state, inf), 3);
  state.Apply(3, {});
  EXPECT_EQ(policy.NextModel(state, inf), 20);
}

TEST_F(PoliciesTest, RuleEngineScalesTaskWeightsOncePerItem) {
  RuleBasedPolicy policy(DefaultRules(), 11);
  policy.BeginItem(Context(0));
  const int person_label =
      zoo_->labels().LabelId(zoo::TaskKind::kObjectDetection,
                             zoo::LabelSpace::kObjectPerson);
  // Fire the person rules twice; counts must only increase once per item.
  policy.OnExecuted(0, {{person_label, 0.9}});
  policy.OnExecuted(1, {{person_label, 0.95}});
  int person_rule_fires = 0;
  for (size_t r = 0; r < policy.rules().size(); ++r) {
    if (policy.rules()[r].trigger == ExecutionRule::Trigger::kObjectPerson) {
      person_rule_fires += policy.rule_fire_counts()[r];
    }
  }
  EXPECT_EQ(person_rule_fires, 3)  // three person rules, each fired once
      << "each rule fires at most once per item";
  // New item resets the per-item gate.
  policy.BeginItem(Context(1));
  policy.OnExecuted(0, {{person_label, 0.9}});
  person_rule_fires = 0;
  for (size_t r = 0; r < policy.rules().size(); ++r) {
    if (policy.rules()[r].trigger == ExecutionRule::Trigger::kObjectPerson) {
      person_rule_fires += policy.rule_fire_counts()[r];
    }
  }
  EXPECT_EQ(person_rule_fires, 6);
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
