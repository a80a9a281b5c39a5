// Reproduces Fig. 6 (§VI-C): handcrafted execution rules vs the DuelingDQN
// agent, the random policy and the optimal policy on MSCOCO 2017 — average
// number of executed models (left) and average execution time (right) vs the
// required recall of output value.
//
// Paper reference points: the rule-based policy saves only 22.6% executions /
// 20.1% time at 0.8 recall (2.1% / 1.4% at 1.0 recall) vs random, while
// DuelingDQN saves far more — handcrafted rules barely help at scale.

#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "eval/agent_cache.h"
#include "eval/recall_curve.h"
#include "eval/world.h"
#include "util/table.h"

namespace {

using namespace ams;

void Run() {
  eval::World world(eval::WorldConfig::FromEnv());
  eval::AgentCache cache;

  const int d = world.IndexOf("mscoco");
  const data::Oracle& oracle = world.oracle(d);
  const std::vector<int> items = world.EvalItems(d);

  eval::AgentRequest request;
  request.key = world.CacheKey("mscoco", "dueling");
  request.oracle = &oracle;
  request.config = world.BaseTrainConfig();
  request.config.scheme = rl::DrlScheme::kDuelingDqn;
  std::unique_ptr<rl::Agent> agent = cache.GetOrTrain(request);

  const std::vector<double> thresholds = eval::DefaultThresholds();
  std::vector<eval::RecallCurve> curves;
  curves.push_back(eval::ComputeRecallCurve(
      eval::PolicySpec{"rule_based", {/*seed=*/4242}}, oracle, items,
      thresholds));
  {
    eval::RecallCurve curve = eval::ComputeRecallCurve(
        eval::PolicySpec{"q_greedy", {}, agent.get()}, oracle, items,
        thresholds);
    curve.policy_name = "dueling_dqn";
    curves.push_back(std::move(curve));
  }
  curves.push_back(eval::ComputeRecallCurve(
      eval::PolicySpec{"random", {/*seed=*/77}}, oracle, items, thresholds));
  curves.push_back(eval::ComputeRecallCurve(
      eval::PolicySpec{"optimal"}, oracle, items, thresholds));

  std::vector<std::string> header = {"recall"};
  for (const auto& curve : curves) header.push_back(curve.policy_name);

  bench::Banner("Fig. 6 (left) — avg number of executed models, MSCOCO 2017");
  util::AsciiTable models;
  models.SetHeader(header);
  for (size_t k = 0; k < thresholds.size(); ++k) {
    std::vector<double> row;
    for (const auto& curve : curves) row.push_back(curve.avg_models[k]);
    models.AddRow(util::FormatDouble(thresholds[k], 1), row, 2);
  }
  models.Print(std::cout);

  bench::Banner("Fig. 6 (right) — avg model execution time (s), MSCOCO 2017");
  util::AsciiTable times;
  times.SetHeader(header);
  for (size_t k = 0; k < thresholds.size(); ++k) {
    std::vector<double> row;
    for (const auto& curve : curves) row.push_back(curve.avg_time_s[k]);
    times.AddRow(util::FormatDouble(thresholds[k], 1), row, 3);
  }
  times.Print(std::cout);

  auto saving = [](const eval::RecallCurve& a, const eval::RecallCurve& b,
                   size_t k) {
    return 100.0 * (1.0 - a.avg_models[k] / b.avg_models[k]);
  };
  std::cout << "\nvs random at recall 0.8: rules save "
            << util::FormatDouble(saving(curves[0], curves[2], 7), 1)
            << "% executions (paper: 22.6%), DuelingDQN saves "
            << util::FormatDouble(saving(curves[1], curves[2], 7), 1)
            << "% (paper: 44.1-60.6%)\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
