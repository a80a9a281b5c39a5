// Reproduces Fig. 10 (§VI-F): value recall under per-image deadline
// constraints on MSCOCO 2017, MirFlickr25 and Places365, comparing
// Algorithm 1 (a kSerial predictor session), the plain Q-greedy policy, the
// random policy and the relaxed optimal* upper bound, plus the performance
// ratio of Algorithm 1 to optimal* against the classic 1-1/e guarantee.
//
// Paper reference points: Algorithm 1 boosts the value recall by
// 188.7-309.5% over random at a 0.5 s deadline, and its ratio to optimal*
// exceeds 1-1/e (~0.632) in most cases.

#include <cmath>
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "eval/agent_cache.h"
#include "eval/deadline_sweep.h"
#include "eval/world.h"
#include "util/table.h"

namespace {

using namespace ams;

void Run() {
  eval::World world(eval::WorldConfig::FromEnv());
  eval::AgentCache cache;
  const std::vector<std::string> datasets = {"mscoco", "mirflickr25",
                                             "places365"};

  std::vector<eval::AgentRequest> requests;
  for (const auto& name : datasets) {
    eval::AgentRequest request;
    request.key = world.CacheKey(name, "dueling");
    request.oracle = &world.oracle(world.IndexOf(name));
    request.config = world.BaseTrainConfig();
    request.config.scheme = rl::DrlScheme::kDuelingDqn;
    requests.push_back(std::move(request));
  }
  std::vector<std::unique_ptr<rl::Agent>> agents =
      cache.GetOrTrainAll(requests);

  const std::vector<double> deadlines = eval::DefaultDeadlines();
  std::vector<std::vector<double>> ratio_rows(deadlines.size());

  for (size_t ds = 0; ds < datasets.size(); ++ds) {
    const int d = world.IndexOf(datasets[ds]);
    const data::Oracle& oracle = world.oracle(d);
    const std::vector<int> items = world.EvalItems(d);
    rl::Agent* agent = agents[ds].get();

    const eval::DeadlineSweep alg1 =
        eval::ComputeDeadlineSweep(agent, oracle, items, deadlines);
    const eval::DeadlineSweep qgreedy = eval::ComputeDeadlineSweep(
        eval::PolicySpec{"q_greedy", {}, agent}, oracle, items, deadlines);
    const eval::DeadlineSweep random = eval::ComputeDeadlineSweep(
        eval::PolicySpec{"random", {/*seed=*/19}}, oracle, items, deadlines);
    const eval::DeadlineSweep star =
        eval::ComputeOptimalStarSweep(oracle, items, deadlines);

    bench::Banner("Fig. 10 (" + datasets[ds] +
                  ") — value recall vs per-image deadline");
    util::AsciiTable table;
    table.SetHeader({"deadline(s)", "algorithm1", "q_greedy",
                     "random", "optimal*"});
    for (size_t k = 0; k < deadlines.size(); ++k) {
      table.AddRow(util::FormatDouble(deadlines[k], 2),
                   {alg1.avg_recall[k], qgreedy.avg_recall[k],
                    random.avg_recall[k], star.avg_recall[k]});
      ratio_rows[k].push_back(alg1.avg_recall[k] /
                              std::max(1e-9, star.avg_recall[k]));
    }
    table.Print(std::cout);

    // The 0.5 s headline (paper: +188.7-309.5% over random).
    const size_t half_second = 1;  // deadlines[1] == 0.5
    std::cout << "\nAlgorithm 1 vs random at 0.5 s deadline: +"
              << util::FormatDouble(100.0 * (alg1.avg_recall[half_second] /
                                                 std::max(1e-9,
                                                          random.avg_recall
                                                              [half_second]) -
                                             1.0),
                                    1)
              << "% recall (paper: +188.7-309.5%)\n";
  }

  bench::Banner(
      "Fig. 10(d) — performance ratio of Algorithm 1 to optimal* (classic "
      "guarantee 1-1/e = 0.632)");
  util::AsciiTable ratios;
  ratios.SetHeader({"deadline(s)", "mscoco", "mirflickr25", "places365",
                    "1-1/e"});
  for (size_t k = 0; k < deadlines.size(); ++k) {
    std::vector<double> row = ratio_rows[k];
    row.push_back(1.0 - 1.0 / std::exp(1.0));
    ratios.AddRow(util::FormatDouble(deadlines[k], 2), row);
  }
  ratios.Print(std::cout);
}

}  // namespace

int main() {
  Run();
  return 0;
}
