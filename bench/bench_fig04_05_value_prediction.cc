// Reproduces Fig. 4 and Fig. 5 (§VI-B): for the required output-value recall
// rate 0.1 .. 1.0, the average number of executed models per image (Fig. 4)
// and the average model execution time per image (Fig. 5), for the four DRL
// schemes (DQN, DoubleDQN, DuelingDQN, DeepSARSA) against the random and
// optimal policies, on MSCOCO 2017, MirFlickr25 and Places365.
//
// Paper reference points (recall 0.8): DuelingDQN saves 44.1-60.6% of model
// executions and 45.6-59.5% of execution time vs random; optimal saves
// 79.3-84.0%. At recall 1.0: DuelingDQN ~48-50%, optimal 65.6-76.5%.

#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "eval/agent_cache.h"
#include "eval/recall_curve.h"
#include "eval/world.h"
#include "util/table.h"

namespace {

using namespace ams;

const rl::DrlScheme kSchemes[] = {
    rl::DrlScheme::kDqn, rl::DrlScheme::kDoubleDqn, rl::DrlScheme::kDuelingDqn,
    rl::DrlScheme::kDeepSarsa};

void Run() {
  eval::World world(eval::WorldConfig::FromEnv());
  eval::AgentCache cache;
  const std::vector<std::string> datasets = {"mscoco", "mirflickr25",
                                             "places365"};

  // Train (or load) the 12 agents in parallel.
  std::vector<eval::AgentRequest> requests;
  for (const auto& name : datasets) {
    for (const rl::DrlScheme scheme : kSchemes) {
      eval::AgentRequest request;
      request.key = world.CacheKey(name, SchemeName(scheme));
      request.oracle = &world.oracle(world.IndexOf(name));
      request.config = world.BaseTrainConfig();
      request.config.scheme = scheme;
      requests.push_back(std::move(request));
    }
  }
  std::vector<std::unique_ptr<rl::Agent>> agents =
      cache.GetOrTrainAll(requests);

  const std::vector<double> thresholds = eval::DefaultThresholds();
  size_t agent_index = 0;
  for (const auto& name : datasets) {
    const int d = world.IndexOf(name);
    const data::Oracle& oracle = world.oracle(d);
    const std::vector<int> items = world.EvalItems(d);

    std::vector<eval::RecallCurve> curves;
    for (size_t s = 0; s < std::size(kSchemes); ++s) {
      eval::RecallCurve curve = eval::ComputeRecallCurve(
          eval::PolicySpec{"q_greedy", {}, agents[agent_index].get()},
          oracle, items, thresholds);
      curve.policy_name = SchemeName(kSchemes[s]);
      curves.push_back(std::move(curve));
      ++agent_index;
    }
    curves.push_back(eval::ComputeRecallCurve(
        eval::PolicySpec{"random", {/*seed=*/77}}, oracle, items, thresholds));
    curves.push_back(eval::ComputeRecallCurve(
        eval::PolicySpec{"optimal"}, oracle, items, thresholds));

    bench::Banner("Fig. 4 (" + name +
                  ") — avg number of executed models vs required recall");
    util::AsciiTable models;
    std::vector<std::string> header = {"recall"};
    for (const auto& curve : curves) header.push_back(curve.policy_name);
    models.SetHeader(header);
    for (size_t k = 0; k < thresholds.size(); ++k) {
      std::vector<double> row;
      for (const auto& curve : curves) row.push_back(curve.avg_models[k]);
      models.AddRow(util::FormatDouble(thresholds[k], 1), row, 2);
    }
    models.Print(std::cout);

    bench::Banner("Fig. 5 (" + name +
                  ") — avg model execution time (s) vs required recall");
    util::AsciiTable times;
    times.SetHeader(header);
    for (size_t k = 0; k < thresholds.size(); ++k) {
      std::vector<double> row;
      for (const auto& curve : curves) row.push_back(curve.avg_time_s[k]);
      times.AddRow(util::FormatDouble(thresholds[k], 1), row, 3);
    }
    times.Print(std::cout);

    // Headline savings of the best agent vs random.
    const eval::RecallCurve& dueling = curves[2];
    const eval::RecallCurve& random = curves[4];
    auto saving = [&](const std::vector<double>& a,
                      const std::vector<double>& b, size_t k) {
      return 100.0 * (1.0 - a[k] / b[k]);
    };
    std::cout << "\nDuelingDQN vs random on " << name << ": saves "
              << util::FormatDouble(
                     saving(dueling.avg_models, random.avg_models, 7), 1)
              << "% executions at recall 0.8 (paper: 44.1-60.6%), "
              << util::FormatDouble(
                     saving(dueling.avg_time_s, random.avg_time_s, 9), 1)
              << "% time at recall 1.0 (paper: 48.6-51.2%)\n";
  }
}

}  // namespace

int main() {
  Run();
  return 0;
}
