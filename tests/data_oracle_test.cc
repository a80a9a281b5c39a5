// Unit tests of the Oracle: stored outputs must exactly mirror live
// execution, and the derived value quantities must satisfy their defining
// identities. The corpus spans two full build blocks and a partial third,
// so every check covers block boundaries and the short last block.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>

#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "zoo/model_zoo.h"

namespace ams::data {
namespace {

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

class OracleTest : public ::testing::Test {
 protected:
  static constexpr int kItems = 2 * Oracle::kBuildBlockItems + 37;

  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new Dataset(Dataset::Generate(DatasetProfile::MsCoco(),
                                             zoo_->labels(), kItems, 21));
    oracle_ = new Oracle(zoo_, dataset_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }

  static zoo::ModelZoo* zoo_;
  static Dataset* dataset_;
  static Oracle* oracle_;
};

zoo::ModelZoo* OracleTest::zoo_ = nullptr;
Dataset* OracleTest::dataset_ = nullptr;
Oracle* OracleTest::oracle_ = nullptr;

TEST_F(OracleTest, StoredOutputsMatchLiveExecution) {
  ASSERT_EQ(oracle_->num_items(), kItems);
  for (int item = 0; item < oracle_->num_items(); ++item) {
    for (int m = 0; m < oracle_->num_models(); ++m) {
      const auto live = zoo_->Execute(m, dataset_->item(item).scene);
      const zoo::LabelOutputView stored = oracle_->Output(item, m);
      ASSERT_EQ(live.size(), stored.size())
          << "item " << item << " model " << m;
      for (size_t i = 0; i < live.size(); ++i) {
        EXPECT_EQ(live[i].label_id, stored[i].label_id);
        EXPECT_EQ(Bits(live[i].confidence), Bits(stored[i].confidence))
            << "item " << item << " model " << m << " output " << i;
      }
    }
  }
}

TEST_F(OracleTest, ExecutionTimesAreTheZooDraws) {
  for (int item = 0; item < oracle_->num_items(); ++item) {
    const double* row = oracle_->ExecutionTimes(item);
    for (int m = 0; m < oracle_->num_models(); ++m) {
      const double draw =
          zoo_->SampleExecutionTime(m, dataset_->item(item).scene);
      EXPECT_EQ(Bits(row[m]), Bits(draw)) << "item " << item << " model " << m;
      EXPECT_EQ(Bits(oracle_->ExecutionTime(item, m)), Bits(draw))
          << "item " << item << " model " << m;
    }
  }
}

TEST_F(OracleTest, ValuableOutputsAreTheHighConfidenceSubset) {
  for (int item = 0; item < oracle_->num_items(); ++item) {
    for (int m = 0; m < oracle_->num_models(); ++m) {
      size_t expected = 0;
      for (const auto& out : oracle_->Output(item, m)) {
        if (out.confidence >= zoo::kValuableConfidence) ++expected;
      }
      EXPECT_EQ(oracle_->ModelValuable(item, m), expected > 0)
          << "item " << item << " model " << m;
    }
  }
}

TEST_F(OracleTest, SoloValueIsSumOfValuableConfidences) {
  for (int item = 0; item < oracle_->num_items(); ++item) {
    for (int m = 0; m < oracle_->num_models(); ++m) {
      // In output order, as the oracle sums.
      double sum = 0.0;
      for (const auto& out : zoo_->Execute(m, dataset_->item(item).scene)) {
        if (out.confidence >= zoo::kValuableConfidence) sum += out.confidence;
      }
      EXPECT_EQ(Bits(oracle_->ModelSoloValue(item, m)), Bits(sum))
          << "item " << item << " model " << m;
    }
  }
}

TEST_F(OracleTest, LabelProfitIsMaxConfidenceAcrossModels) {
  for (int item = 0; item < oracle_->num_items(); ++item) {
    // Recompute profits independently from the zoo.
    std::map<int, double> best;
    for (int m = 0; m < oracle_->num_models(); ++m) {
      for (const auto& out : zoo_->Execute(m, dataset_->item(item).scene)) {
        if (out.confidence < zoo::kValuableConfidence) continue;
        best[out.label_id] = std::max(best[out.label_id], out.confidence);
      }
    }
    // f(M, d) sums the per-label maxima in ascending label order (the
    // map's order).
    double total = 0.0;
    for (const auto& [label, conf] : best) {
      EXPECT_EQ(Bits(oracle_->LabelProfit(item, label)), Bits(conf))
          << "item " << item << " label " << label;
      total += conf;
    }
    EXPECT_EQ(Bits(oracle_->TrueTotalValue(item)), Bits(total))
        << "item " << item;
    EXPECT_DOUBLE_EQ(oracle_->LabelProfit(item, 1103), best.count(1103)
                                                           ? best[1103]
                                                           : 0.0);
  }
}

TEST_F(OracleTest, TimeAccountingIdentities) {
  for (int item = 0; item < oracle_->num_items(); ++item) {
    double total = 0.0, valuable = 0.0;
    for (int m = 0; m < oracle_->num_models(); ++m) {
      const double t = oracle_->ExecutionTime(item, m);
      EXPECT_GT(t, 0.0);
      total += t;
      if (oracle_->ModelValuable(item, m)) valuable += t;
    }
    EXPECT_EQ(Bits(oracle_->TotalTime(item)), Bits(total));
    EXPECT_EQ(Bits(oracle_->ValuableTime(item)), Bits(valuable));
    EXPECT_LE(oracle_->ValuableTime(item), oracle_->TotalTime(item));
  }
}

TEST_F(OracleTest, TrueTotalValueBoundsSoloValues) {
  for (int item = 0; item < oracle_->num_items(); ++item) {
    double max_solo = 0.0;
    for (int m = 0; m < oracle_->num_models(); ++m) {
      max_solo = std::max(max_solo, oracle_->ModelSoloValue(item, m));
    }
    EXPECT_GE(oracle_->TrueTotalValue(item), max_solo - 1e-9);
  }
}

}  // namespace
}  // namespace ams::data
