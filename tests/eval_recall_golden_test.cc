// Locks the paper's recall results to committed bits. The parity tests
// compare one driver or picker with another, so a change that moved every
// path at once (a different Algorithm 2 anchor ratio, a reordered pick loop)
// would pass them all while the scheduler got worse. This test runs the
// figures' evaluation entry points over a seeded corpus and a seeded,
// untrained paper-shaped agent and compares every result with a committed
// fixture as its uint64 bit pattern:
//
//   Fig 10    ComputeDeadlineSweep: Algorithm 1 (a kSerial session over the
//             agent) and random with seed 19 on every worker, 4 deadlines.
//   Fig 11    ComputeMemorySweep: Algorithm 2 and random packing, 4 deadlines
//             under 8 GB.
//   Figs 4-6  ComputeRecallCurve (average models and time per threshold) and
//             ComputeFullRecallCosts (per-item models and time to full
//             recall) of the optimal and q_greedy policies.
//   Table 2   the same curve and costs of rule_based over DefaultRules()
//             with seed 999 on every worker, bench_table2_rules' rule set
//             and seed: the rule-vs-agent comparison is this run against
//             q_greedy's.
//
// The sweeps' average recalls are in tests/fixtures/recall_golden.inc, the
// curves and costs in tests/fixtures/recall_curve_golden.inc. Each fixture
// was written by a disabled case below, run from the build directory and
// then copied into tests/fixtures:
//
//   ./tests/eval_recall_golden_test --gtest_filter='*WriteFixture'
//       --gtest_also_run_disabled_tests
//   ./tests/eval_recall_golden_test --gtest_filter='*WriteCurveFixture'
//       --gtest_also_run_disabled_tests
//
// Regenerate a fixture only from a scheduler whose outcomes are already
// trusted; a fixture rewritten by the code under test locks nothing. A change
// that moves a result on purpose rewrites the fixture and says why.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "eval/deadline_sweep.h"
#include "eval/memory_sweep.h"
#include "eval/recall_curve.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "zoo/model_zoo.h"

namespace ams::eval {
namespace {

constexpr int kItems = 48;
constexpr uint64_t kCorpusSeed = 1501;
constexpr uint64_t kAgentSeed = 1502;
constexpr uint64_t kPackingSeed = 1503;
constexpr int kHiddenDim = 256;
constexpr double kMemoryBudgetMb = 8.0 * 1024.0;
// Every golden fans out over two workers: seeded policies keep per-worker
// history, so the partition is part of the locked configuration.
constexpr int kThreads = 2;

const std::vector<double> kDeadlines = {0.25, 0.5, 1.0, 2.0};
const std::vector<double> kMemoryDeadlines = {0.2, 0.4, 0.8, 1.6};

using Bits = std::vector<uint64_t>;

// Defines kGoldenAlgorithm1, kGoldenRandom, kGoldenAlgorithm2 and
// kGoldenPacking: each sweep's average recall per deadline, as double bits.
#include "fixtures/recall_golden.inc"
// Defines kGolden{Optimal,QGreedy,RuleBased}{CurveModels,CurveTime,
// CostModels,CostTime}: each policy's recall-curve averages per threshold
// and its per-item full-recall costs, as double bits.
#include "fixtures/recall_curve_golden.inc"

uint64_t BitsOf(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double ValueOf(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

nn::MlpConfig AgentShape(const zoo::ModelZoo& zoo) {
  nn::MlpConfig config;
  config.input_dim = zoo.labels().total_labels();
  config.hidden_dims = {kHiddenDim};
  config.output_dim = zoo.num_models() + 1;
  return config;
}

/// The seeded corpus and agent every golden here runs on. The agent has the
/// paper's Q-net shape (labels -> 256 -> models + END) and is untrained: its
/// He-normal Q rows still rank models item by item, which is all the
/// pickers need to produce distinct, seed-locked schedules.
struct GoldenWorld {
  GoldenWorld()
      : zoo(zoo::ModelZoo::CreateDefault()),
        dataset(data::Dataset::Generate(data::DatasetProfile::MsCoco(),
                                        zoo.labels(), kItems, kCorpusSeed)),
        oracle(&zoo, &dataset),
        agent(std::make_unique<nn::Mlp>(AgentShape(zoo), kAgentSeed),
              nn::NetKind::kMlp) {
    for (int i = 0; i < kItems; ++i) items.push_back(i);
  }

  const zoo::ModelZoo zoo;
  const data::Dataset dataset;
  const data::Oracle oracle;
  rl::Agent agent;
  std::vector<int> items;
};

/// The four sweeps' average recalls, in fixture order.
struct Sweeps {
  std::vector<double> algorithm1;
  std::vector<double> random;
  std::vector<double> algorithm2;
  std::vector<double> packing;
};

Sweeps RunSweeps() {
  GoldenWorld world;
  const data::Oracle& oracle = world.oracle;
  const std::vector<int>& items = world.items;
  rl::Agent& agent = world.agent;

  Sweeps sweeps;
  sweeps.algorithm1 =
      ComputeDeadlineSweep(&agent, oracle, items, kDeadlines, kThreads)
          .avg_recall;
  sweeps.random = ComputeDeadlineSweep(PolicySpec{"random", {/*seed=*/19}},
                                       oracle, items, kDeadlines, kThreads)
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

/// One policy's Figs 4-6 recall curve over the default thresholds and its
/// per-item cost of full recall (the Fig 2 and Fig 8 CDFs' input).
struct CurveRun {
  std::vector<double> curve_models;
  std::vector<double> curve_time_s;
  std::vector<double> cost_models;
  std::vector<double> cost_time_s;
};

CurveRun RunCurve(const GoldenWorld& world, const PolicySpec& policy) {
  const RecallCurve curve = ComputeRecallCurve(
      policy, world.oracle, world.items, DefaultThresholds(), kThreads);
  const FullRecallCosts costs = ComputeFullRecallCosts(
      policy, world.oracle, world.items, /*recall_target=*/1.0, kThreads);
  return {curve.avg_models, curve.avg_time_s, costs.models, costs.time_s};
}

/// The optimal, Q-greedy and rule-based curve runs, in fixture order.
struct Curves {
  CurveRun optimal;
  CurveRun q_greedy;
  CurveRun rule_based;
};

Curves RunCurves() {
  GoldenWorld world;
  Curves curves;
  curves.optimal = RunCurve(world, {"optimal"});
  // q_greedy reads Q from the session's per-worker clones of the agent.
  curves.q_greedy = RunCurve(world, {"q_greedy", {}, &world.agent});
  // Table II's rule set (the default for an empty rule list) with
  // bench_table2_rules' seed: the rule-vs-agent comparison is this run
  // against q_greedy's.
  curves.rule_based = RunCurve(world, {"rule_based", {/*seed=*/999}});
  return curves;
}

void ExpectGolden(const std::string& series, const std::vector<double>& got,
                  const Bits& want) {
  ASSERT_EQ(got.size(), want.size()) << series;
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(BitsOf(got[k]), want[k])
        << series << " entry " << k << ": " << got[k] << ", golden "
        << ValueOf(want[k]);
  }
}

TEST(RecallGoldenTest, SweepsReproduceGoldenRecall) {
  const Sweeps sweeps = RunSweeps();
  for (const std::vector<double>* recalls :
       {&sweeps.algorithm1, &sweeps.random, &sweeps.algorithm2,
        &sweeps.packing}) {
    for (const double recall : *recalls) {
      EXPECT_TRUE(std::isfinite(recall) && recall >= 0.0 && recall <= 1.0)
          << "recall " << recall;
    }
  }
  ExpectGolden("Fig 10 Algorithm 1", sweeps.algorithm1, kGoldenAlgorithm1);
  ExpectGolden("Fig 10 random", sweeps.random, kGoldenRandom);
  ExpectGolden("Fig 11 Algorithm 2", sweeps.algorithm2, kGoldenAlgorithm2);
  ExpectGolden("Fig 11 random packing", sweeps.packing, kGoldenPacking);
}

TEST(RecallGoldenTest, CurvesReproduceGoldenCosts) {
  const Curves curves = RunCurves();
  ExpectGolden("optimal curve models", curves.optimal.curve_models,
               kGoldenOptimalCurveModels);
  ExpectGolden("optimal curve time", curves.optimal.curve_time_s,
               kGoldenOptimalCurveTime);
  ExpectGolden("optimal full-recall models", curves.optimal.cost_models,
               kGoldenOptimalCostModels);
  ExpectGolden("optimal full-recall time", curves.optimal.cost_time_s,
               kGoldenOptimalCostTime);
  ExpectGolden("q_greedy curve models", curves.q_greedy.curve_models,
               kGoldenQGreedyCurveModels);
  ExpectGolden("q_greedy curve time", curves.q_greedy.curve_time_s,
               kGoldenQGreedyCurveTime);
  ExpectGolden("q_greedy full-recall models", curves.q_greedy.cost_models,
               kGoldenQGreedyCostModels);
  ExpectGolden("q_greedy full-recall time", curves.q_greedy.cost_time_s,
               kGoldenQGreedyCostTime);
  ExpectGolden("rule_based curve models", curves.rule_based.curve_models,
               kGoldenRuleBasedCurveModels);
  ExpectGolden("rule_based curve time", curves.rule_based.curve_time_s,
               kGoldenRuleBasedCurveTime);
  ExpectGolden("rule_based full-recall models", curves.rule_based.cost_models,
               kGoldenRuleBasedCostModels);
  ExpectGolden("rule_based full-recall time", curves.rule_based.cost_time_s,
               kGoldenRuleBasedCostTime);
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
  // Likewise a curve must cost more at full recall than at the lowest
  // threshold, and full recall must cost more on some items than on others.
  for (const Bits* curve :
       {&kGoldenOptimalCurveModels, &kGoldenOptimalCurveTime,
        &kGoldenQGreedyCurveModels, &kGoldenQGreedyCurveTime,
        &kGoldenRuleBasedCurveModels, &kGoldenRuleBasedCurveTime}) {
    ASSERT_EQ(curve->size(), DefaultThresholds().size());
    EXPECT_LT(ValueOf(curve->front()), ValueOf(curve->back()));
  }
  for (const Bits* costs :
       {&kGoldenOptimalCostModels, &kGoldenOptimalCostTime,
        &kGoldenQGreedyCostModels, &kGoldenQGreedyCostTime,
        &kGoldenRuleBasedCostModels, &kGoldenRuleBasedCostTime}) {
    ASSERT_EQ(costs->size(), static_cast<size_t>(kItems));
    EXPECT_NE(std::adjacent_find(costs->begin(), costs->end(),
                                 std::not_equal_to<uint64_t>()),
              costs->end());
  }
}

// --- the generator ----------------------------------------------------------

// One entry per line, commented with its value and where it was measured.
void WriteBits(const std::string& name, const std::vector<double>& values,
               const std::vector<double>& at, const char* unit,
               std::ostream& out) {
  out << "const Bits " << name << " = {\n";
  for (size_t k = 0; k < values.size(); ++k) {
    out << "    " << BitsOf(values[k]) << "u,  // " << values[k] << " at "
        << at[k] << unit << "\n";
  }
  out << "};\n";
}

// Per-item entries, three to a line in item order.
void WriteItemBits(const std::string& name, const std::vector<double>& values,
                   std::ostream& out) {
  out << "const Bits " << name << " = {\n";
  for (size_t k = 0; k < values.size(); ++k) {
    out << (k % 3 == 0 ? "   " : "") << " " << BitsOf(values[k]) << "u,"
        << (k % 3 == 2 || k + 1 == values.size() ? "\n" : "");
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
  WriteBits("kGoldenAlgorithm1", sweeps.algorithm1, kDeadlines, " s", out);
  WriteBits("kGoldenRandom", sweeps.random, kDeadlines, " s", out);
  WriteBits("kGoldenAlgorithm2", sweeps.algorithm2, kMemoryDeadlines, " s",
            out);
  WriteBits("kGoldenPacking", sweeps.packing, kMemoryDeadlines, " s", out);
}

TEST(RecallGoldenFixture, DISABLED_WriteCurveFixture) {
  const Curves curves = RunCurves();
  const std::vector<double> thresholds = DefaultThresholds();
  std::ofstream out("recall_curve_golden.inc");
  ASSERT_TRUE(out.good());
  out << "// Figs 4-6 recall curves (average models and seconds per recall\n"
         "// threshold) and per-item full-recall costs of the optimal,\n"
         "// q_greedy and rule_based policies, as double bit patterns. "
         "Written\n"
         "// by the disabled WriteCurveFixture case of\n"
         "// tests/eval_recall_golden_test.cc; read it before "
         "regenerating.\n";
  const std::pair<const char*, const CurveRun*> runs[] = {
      {"Optimal", &curves.optimal},
      {"QGreedy", &curves.q_greedy},
      {"RuleBased", &curves.rule_based}};
  for (const auto& [policy, run] : runs) {
    const std::string prefix = std::string("kGolden") + policy;
    WriteBits(prefix + "CurveModels", run->curve_models, thresholds,
              " recall", out);
    WriteBits(prefix + "CurveTime", run->curve_time_s, thresholds, " recall",
              out);
    WriteItemBits(prefix + "CostModels", run->cost_models, out);
    WriteItemBits(prefix + "CostTime", run->cost_time_s, out);
  }
}

}  // namespace
}  // namespace ams::eval
