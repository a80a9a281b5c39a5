// Locks the paper's recall sweeps to committed bits. The parity tests compare
// one driver or picker with another, so a change that moved every path at
// once (a different Algorithm 2 anchor ratio, a reordered pick loop) would
// pass them all while the scheduler got worse. This test compares the Fig 10
// and Fig 11 sweeps over a seeded corpus and a seeded, untrained paper-shaped
// agent against tests/fixtures/recall_golden.inc instead, every average
// recall as its uint64 bit pattern:
//
//   Fig 10  ComputeDeadlineSweep: Algorithm 1 (cost_q_greedy) and
//           RandomPolicy(19), 4 deadlines.
//   Fig 11  ComputeMemorySweep: Algorithm 2 and random packing, 4 deadlines
//           under 8 GB.
//
// The fixture was written by the disabled WriteFixture case below, run from
// the build directory and then copied into tests/fixtures:
//
//   ./tests/eval_recall_golden_test --gtest_filter='*WriteFixture'
//       --gtest_also_run_disabled_tests
//
// Regenerate it only from a scheduler whose outcomes are already trusted; a
// fixture rewritten by the code under test locks nothing. A change that
// moves recall on purpose rewrites the fixture and says why.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "eval/deadline_sweep.h"
#include "eval/memory_sweep.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "sched/basic_policies.h"
#include "sched/cost_q_greedy.h"
#include "zoo/model_zoo.h"

namespace ams::eval {
namespace {

constexpr int kItems = 48;
constexpr uint64_t kCorpusSeed = 1501;
constexpr uint64_t kAgentSeed = 1502;
constexpr uint64_t kPackingSeed = 1503;
constexpr int kHiddenDim = 256;
constexpr double kMemoryBudgetMb = 8.0 * 1024.0;
// Both sweeps fan out over two workers: seeded policies keep per-worker
// history, so the partition is part of the locked configuration.
constexpr int kThreads = 2;

const std::vector<double> kDeadlines = {0.25, 0.5, 1.0, 2.0};
const std::vector<double> kMemoryDeadlines = {0.2, 0.4, 0.8, 1.6};

using Bits = std::vector<uint64_t>;

// Defines kGoldenAlgorithm1, kGoldenRandom, kGoldenAlgorithm2 and
// kGoldenPacking: each sweep's average recall per deadline, as double bits.
#include "fixtures/recall_golden.inc"

uint64_t BitsOf(double recall) {
  uint64_t bits;
  std::memcpy(&bits, &recall, sizeof(bits));
  return bits;
}

/// Algorithm 1 over a private agent clone (nets cache activations, so each
/// sweep worker owns one).
struct OwnedCostQGreedy : sched::CostQGreedyPolicy {
  explicit OwnedCostQGreedy(std::unique_ptr<rl::Agent> a)
      : sched::CostQGreedyPolicy(a.get()), agent(std::move(a)) {}
  std::unique_ptr<rl::Agent> agent;
};

/// The four sweeps' average recalls, in fixture order.
struct Sweeps {
  std::vector<double> algorithm1;
  std::vector<double> random;
  std::vector<double> algorithm2;
  std::vector<double> packing;
};

Sweeps RunSweeps() {
  const zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  const data::Dataset dataset = data::Dataset::Generate(
      data::DatasetProfile::MsCoco(), zoo.labels(), kItems, kCorpusSeed);
  const data::Oracle oracle(&zoo, &dataset);
  std::vector<int> items;
  for (int i = 0; i < kItems; ++i) items.push_back(i);

  // The paper's Q-net shape (labels -> 256 -> models + END), untrained: its
  // He-normal Q rows still rank models item by item, which is all the
  // pickers need to produce distinct, seed-locked schedules.
  nn::MlpConfig config;
  config.input_dim = zoo.labels().total_labels();
  config.hidden_dims = {kHiddenDim};
  config.output_dim = zoo.num_models() + 1;
  rl::Agent agent(std::make_unique<nn::Mlp>(config, kAgentSeed),
                  nn::NetKind::kMlp);

  const PolicyFactory algorithm1 = [&agent] {
    return std::make_unique<OwnedCostQGreedy>(agent.Clone());
  };
  Sweeps sweeps;
  sweeps.algorithm1 =
      ComputeDeadlineSweep(algorithm1, oracle, items, kDeadlines, kThreads)
          .avg_recall;
  sweeps.random =
      ComputeDeadlineSweep(
          [] { return std::make_unique<sched::RandomPolicy>(19); }, oracle,
          items, kDeadlines, kThreads)
          .avg_recall;
  sweeps.algorithm2 =
      ComputeMemorySweep(&agent, oracle, items, kMemoryBudgetMb,
                         kMemoryDeadlines, kPackingSeed, kThreads)
          .avg_recall;
  sweeps.packing =
      ComputeMemorySweep(nullptr, oracle, items, kMemoryBudgetMb,
                         kMemoryDeadlines, kPackingSeed, kThreads)
          .avg_recall;
  return sweeps;
}

void ExpectGolden(const std::string& sweep, const std::vector<double>& got,
                  const Bits& want) {
  ASSERT_EQ(got.size(), want.size()) << sweep;
  for (size_t d = 0; d < got.size(); ++d) {
    EXPECT_TRUE(std::isfinite(got[d]) && got[d] >= 0.0 && got[d] <= 1.0)
        << sweep << " deadline " << d << ": recall " << got[d];
    double golden;
    std::memcpy(&golden, &want[d], sizeof(golden));
    EXPECT_EQ(BitsOf(got[d]), want[d])
        << sweep << " deadline " << d << ": recall " << got[d]
        << ", golden " << golden;
  }
}

TEST(RecallGoldenTest, SweepsReproduceGoldenRecall) {
  const Sweeps sweeps = RunSweeps();
  ExpectGolden("Fig 10 Algorithm 1", sweeps.algorithm1, kGoldenAlgorithm1);
  ExpectGolden("Fig 10 random", sweeps.random, kGoldenRandom);
  ExpectGolden("Fig 11 Algorithm 2", sweeps.algorithm2, kGoldenAlgorithm2);
  ExpectGolden("Fig 11 random packing", sweeps.packing, kGoldenPacking);
}

TEST(RecallGoldenTest, FixtureIsNotDegenerate) {
  // A lock over constant or saturated recalls would pass a scheduler that
  // ignores its inputs; the fixture must separate the deadlines.
  for (const Bits* sweep : {&kGoldenAlgorithm1, &kGoldenRandom,
                            &kGoldenAlgorithm2, &kGoldenPacking}) {
    ASSERT_EQ(sweep->size(), 4u);
    for (size_t d = 1; d < sweep->size(); ++d) {
      EXPECT_NE((*sweep)[d], (*sweep)[d - 1]);
    }
  }
}

// --- the generator ----------------------------------------------------------

void WriteBits(const std::string& name, const std::vector<double>& recalls,
               const std::vector<double>& deadlines, std::ostream& out) {
  out << "const Bits " << name << " = {\n";
  for (size_t d = 0; d < recalls.size(); ++d) {
    out << "    " << BitsOf(recalls[d]) << "u,  // " << recalls[d] << " at "
        << deadlines[d] << " s\n";
  }
  out << "};\n";
}

TEST(RecallGoldenFixture, DISABLED_WriteFixture) {
  const Sweeps sweeps = RunSweeps();
  std::ofstream out("recall_golden.inc");
  ASSERT_TRUE(out.good());
  out << "// Average recall per deadline of the Fig 10 and Fig 11 sweeps, as\n"
         "// double bit patterns. Written by the disabled WriteFixture case "
         "of\n"
         "// tests/eval_recall_golden_test.cc; read it before "
         "regenerating.\n";
  WriteBits("kGoldenAlgorithm1", sweeps.algorithm1, kDeadlines, out);
  WriteBits("kGoldenRandom", sweeps.random, kDeadlines, out);
  WriteBits("kGoldenAlgorithm2", sweeps.algorithm2, kMemoryDeadlines, out);
  WriteBits("kGoldenPacking", sweeps.packing, kMemoryDeadlines, out);
}

}  // namespace
}  // namespace ams::eval
