// Reproduces Fig. 12 (§VI-F): knowledge transfer under deadline constraints.
// Agent1 (trained on Stanford40) and Agent2 (trained on VOC 2012) schedule
// with Algorithm 1 on both test sets; random and optimal* are the baselines.
//
// Paper reference points: with a 1.0 s deadline, Agent1/Agent2 improve the
// recalled value by 346.8% / 224.9% on Dataset1 and by 250.5% / 190.5% on
// Dataset2, relative to random.

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

  std::vector<eval::AgentRequest> requests(2);
  requests[0].key = world.CacheKey("stanford40", "dueling");
  requests[0].oracle = &world.oracle(world.IndexOf("stanford40"));
  requests[0].config = world.BaseTrainConfig();
  requests[0].config.scheme = rl::DrlScheme::kDuelingDqn;
  requests[1].key = world.CacheKey("voc2012", "dueling");
  requests[1].oracle = &world.oracle(world.IndexOf("voc2012"));
  requests[1].config = world.BaseTrainConfig();
  requests[1].config.scheme = rl::DrlScheme::kDuelingDqn;
  std::vector<std::unique_ptr<rl::Agent>> agents =
      cache.GetOrTrainAll(requests);

  const std::vector<double> deadlines = eval::DefaultDeadlines();
  const char* dataset_names[2] = {"stanford40", "voc2012"};
  for (int ds = 0; ds < 2; ++ds) {
    const int d = world.IndexOf(dataset_names[ds]);
    const data::Oracle& oracle = world.oracle(d);
    const std::vector<int> items = world.EvalItems(d);

    const eval::DeadlineSweep sweep_a1 =
        eval::ComputeDeadlineSweep(agents[0].get(), oracle, items, deadlines);
    const eval::DeadlineSweep sweep_a2 =
        eval::ComputeDeadlineSweep(agents[1].get(), oracle, items, deadlines);
    const eval::DeadlineSweep sweep_rnd = eval::ComputeDeadlineSweep(
        eval::PolicySpec{"random", {/*seed=*/59}}, oracle, items, deadlines);
    const eval::DeadlineSweep sweep_star =
        eval::ComputeOptimalStarSweep(oracle, items, deadlines);

    bench::Banner(std::string("Fig. 12 — value recall vs deadline on ") +
                  (ds == 0 ? "Dataset1 (Stanford40)" : "Dataset2 (VOC 2012)"));
    util::AsciiTable table;
    table.SetHeader({"deadline(s)", "agent1(Alg1)", "agent2(Alg1)", "random",
                     "optimal*"});
    for (size_t k = 0; k < deadlines.size(); ++k) {
      table.AddRow(util::FormatDouble(deadlines[k], 2),
                   {sweep_a1.avg_recall[k], sweep_a2.avg_recall[k],
                    sweep_rnd.avg_recall[k], sweep_star.avg_recall[k]});
    }
    table.Print(std::cout);

    const size_t at_1s = 3;  // deadlines[3] == 1.0
    auto gain = [&](const eval::DeadlineSweep& sweep) {
      return 100.0 * (sweep.avg_recall[at_1s] /
                          std::max(1e-9, sweep_rnd.avg_recall[at_1s]) -
                      1.0);
    };
    std::cout << "\nat 1.0 s deadline vs random: agent1 +"
              << util::FormatDouble(gain(sweep_a1), 1) << "%, agent2 +"
              << util::FormatDouble(gain(sweep_a2), 1)
              << "% (paper: +346.8/224.9% on D1, +250.5/190.5% on D2)\n";
  }
}

}  // namespace

int main() {
  Run();
  return 0;
}
