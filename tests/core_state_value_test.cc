// Unit and property tests of the labeling state and the submodular value
// function f (Eq. 1, Lemma 1).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/labeling_state.h"
#include "core/value.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "util/rng.h"
#include "zoo/model_zoo.h"

namespace ams::core {
namespace {

// Apply takes a view of the outputs; a temporary vector outlives the call.
using Outputs = std::vector<zoo::LabelOutput>;

// Apply sees only valuable outputs: the zoo drops the rest
// (ModelZooTest.ExecuteKeepsOnlyValuableOutputs).
TEST(LabelingStateTest, ApplyTracksFreshValuableLabelsOnly) {
  LabelingState state(10, 3);
  const std::vector<zoo::LabelOutput> outputs = {{1, 0.9}, {3, 0.6}};
  const auto fresh = state.Apply(0, outputs);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0].label_id, 1);
  EXPECT_EQ(fresh[1].label_id, 3);
  EXPECT_TRUE(state.label_set(1));
  EXPECT_FALSE(state.label_set(2));
  EXPECT_TRUE(state.label_set(3));
  EXPECT_EQ(state.num_labels_set(), 2);
  EXPECT_TRUE(state.model_executed(0));
  EXPECT_EQ(state.num_executed(), 1);

  // A second model re-emitting label 1 contributes nothing fresh.
  const auto fresh2 = state.Apply(1, Outputs{{1, 0.95}, {4, 0.7}});
  ASSERT_EQ(fresh2.size(), 1u);
  EXPECT_EQ(fresh2[0].label_id, 4);
  EXPECT_EQ(state.execution_order(), (std::vector<int>{0, 1}));
}

TEST(LabelingStateTest, FeaturesAreBinaryAndSized) {
  LabelingState state(5, 2);
  state.Apply(1, Outputs{{0, 0.8}, {4, 0.9}});
  const std::vector<float>& f = state.Features();
  ASSERT_EQ(f.size(), 5u);
  EXPECT_FLOAT_EQ(f[0], 1.0f);
  EXPECT_FLOAT_EQ(f[1], 0.0f);
  EXPECT_FLOAT_EQ(f[4], 1.0f);
}

TEST(LabelingStateTest, SetIndicesMirrorFeaturesInAscendingOrder) {
  LabelingState state(10, 3);
  EXPECT_TRUE(state.SetIndices().empty());
  // Outputs arrive out of label order; the sparse view must stay sorted
  // (ForwardSparseRows relies on ascending accumulation for bitwise parity
  // with the dense scan).
  state.Apply(0, Outputs{{7, 0.9}, {2, 0.8}});
  EXPECT_EQ(state.SetIndices(), (std::vector<int>{2, 7}));
  state.Apply(1, Outputs{{4, 0.95}, {7, 0.99} /*dup*/});
  EXPECT_EQ(state.SetIndices(), (std::vector<int>{2, 4, 7}));
  ASSERT_EQ(state.num_labels_set(),
            static_cast<int>(state.SetIndices().size()));
  for (int label = 0; label < state.num_labels(); ++label) {
    const bool in_sparse =
        std::find(state.SetIndices().begin(), state.SetIndices().end(),
                  label) != state.SetIndices().end();
    EXPECT_EQ(in_sparse, state.label_set(label)) << "label " << label;
  }
  state.Reset();
  EXPECT_TRUE(state.SetIndices().empty());
}

TEST(LabelingStateTest, ResetClearsEverything) {
  LabelingState state(5, 2);
  state.Apply(0, Outputs{{2, 0.9}});
  state.Reset();
  EXPECT_EQ(state.num_executed(), 0);
  EXPECT_EQ(state.num_labels_set(), 0);
  EXPECT_FALSE(state.model_executed(0));
  EXPECT_FALSE(state.label_set(2));
  // After reset the same model may run again (fresh item).
  state.Apply(0, Outputs{{2, 0.9}});
  EXPECT_TRUE(state.label_set(2));
}

TEST(LabelingStateTest, DoubleExecutionDies) {
  LabelingState state(5, 2);
  state.Apply(0, {});
  EXPECT_DEATH(state.Apply(0, {}), "executed twice");
}

class ValueAccumulatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MirFlickr25(), zoo_->labels(), 60, 31));
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

zoo::ModelZoo* ValueAccumulatorTest::zoo_ = nullptr;
data::Dataset* ValueAccumulatorTest::dataset_ = nullptr;
data::Oracle* ValueAccumulatorTest::oracle_ = nullptr;

TEST_F(ValueAccumulatorTest, MarginalGainEqualsRealizedGain) {
  util::Rng rng(4);
  for (int item = 0; item < 30; ++item) {
    ValueAccumulator acc(oracle_, item);
    std::vector<int> order(30);
    for (int m = 0; m < 30; ++m) order[static_cast<size_t>(m)] = m;
    rng.Shuffle(&order);
    double running = 0.0;
    for (int m : order) {
      const double predicted = acc.MarginalGain(m);
      const double realized = acc.AddModel(m);
      EXPECT_NEAR(predicted, realized, 1e-12);
      running += realized;
      EXPECT_NEAR(acc.Value(), running, 1e-9);
      EXPECT_GE(realized, 0.0) << "f is monotone";
    }
    // Executing everything recalls everything.
    EXPECT_NEAR(acc.Value(), oracle_->TrueTotalValue(item), 1e-9);
    EXPECT_NEAR(acc.Recall(), 1.0, 1e-12);
  }
}

class SubmodularityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubmodularityTest, DiminishingReturnsHold) {
  // Lemma 1: for S subset of T and m not in T,
  //   f(S + m) - f(S) >= f(T + m) - f(T).
  const zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  const data::Dataset dataset = data::Dataset::Generate(
      data::DatasetProfile::MsCoco(), zoo.labels(), 20, GetParam());
  const data::Oracle oracle(&zoo, &dataset);
  util::Rng rng(GetParam() * 3 + 1);
  for (int trial = 0; trial < 40; ++trial) {
    const int item = rng.UniformInt(0, oracle.num_items() - 1);
    // Random S subset T subset M \ {m}.
    const int m = rng.UniformInt(0, 29);
    std::vector<int> others;
    for (int i = 0; i < 30; ++i) {
      if (i != m) others.push_back(i);
    }
    rng.Shuffle(&others);
    const int t_size = rng.UniformInt(0, 29);
    const int s_size = rng.UniformInt(0, t_size);
    ValueAccumulator acc_s(&oracle, item);
    ValueAccumulator acc_t(&oracle, item);
    for (int i = 0; i < t_size; ++i) {
      acc_t.AddModel(others[static_cast<size_t>(i)]);
      if (i < s_size) acc_s.AddModel(others[static_cast<size_t>(i)]);
    }
    EXPECT_GE(acc_s.MarginalGain(m), acc_t.MarginalGain(m) - 1e-12)
        << "item " << item << " model " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubmodularityTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

TEST_F(ValueAccumulatorTest, RecallBoundsAndEmptyItems) {
  for (int item = 0; item < oracle_->num_items(); ++item) {
    ValueAccumulator acc(oracle_, item);
    EXPECT_GE(acc.Recall(), 0.0);
    if (oracle_->TrueTotalValue(item) == 0.0) {
      EXPECT_DOUBLE_EQ(acc.Recall(), 1.0) << "vacuous recall for empty items";
    } else {
      EXPECT_DOUBLE_EQ(acc.Recall(), 0.0);
    }
  }
}

}  // namespace
}  // namespace ams::core
