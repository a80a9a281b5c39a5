// Reproduces Fig. 8 (§VI-D): knowledge transferability. Agent1 is trained on
// Stanford40 (human actions), Agent2 on PASCAL VOC 2012 (broad objects);
// both are evaluated on both test sets with the Q-value greedy policy,
// measuring the average execution time until all output value is recalled,
// plus the per-image time CDFs.
//
// Paper reference points: no policy 5.16 s; on Dataset1 (Stanford40)
// Agent1 1.94 s / Agent2 2.09 s / random 4.12 s / optimal 0.79 s; on
// Dataset2 (VOC) Agent1 2.63 s / Agent2 2.47 s / random 4.04 s /
// optimal 0.68 s — knowledge learned on one corpus transfers to the other.

#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "eval/agent_cache.h"
#include "eval/recall_curve.h"
#include "eval/world.h"
#include "util/stats.h"
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
  rl::Agent* agent1 = agents[0].get();  // trained on Stanford40
  rl::Agent* agent2 = agents[1].get();  // trained on VOC 2012

  const double paper[2][4] = {{1.94, 2.09, 4.12, 0.79},
                              {2.63, 2.47, 4.04, 0.68}};
  const char* dataset_names[2] = {"stanford40", "voc2012"};
  for (int ds = 0; ds < 2; ++ds) {
    const int d = world.IndexOf(dataset_names[ds]);
    const data::Oracle& oracle = world.oracle(d);
    const std::vector<int> items = world.EvalItems(d);

    const eval::FullRecallCosts costs_a1 = eval::ComputeFullRecallCosts(
        eval::PolicySpec{"q_greedy", {}, agent1}, oracle, items);
    const eval::FullRecallCosts costs_a2 = eval::ComputeFullRecallCosts(
        eval::PolicySpec{"q_greedy", {}, agent2}, oracle, items);
    const eval::FullRecallCosts costs_rnd = eval::ComputeFullRecallCosts(
        eval::PolicySpec{"random", {/*seed=*/31}}, oracle, items);
    const eval::FullRecallCosts costs_opt = eval::ComputeFullRecallCosts(
        eval::PolicySpec{"optimal"}, oracle, items);

    bench::Banner(std::string("Fig. 8 — avg time to full value recall on ") +
                  (ds == 0 ? "Dataset1 (Stanford40)" : "Dataset2 (VOC 2012)"));
    util::AsciiTable table;
    table.SetHeader({"policy", "avg time/image (s)", "paper (s)"});
    table.AddRow("agent1 (Stanford40)", {util::Mean(costs_a1.time_s),
                                         paper[ds][0]});
    table.AddRow("agent2 (VOC 2012)", {util::Mean(costs_a2.time_s),
                                       paper[ds][1]});
    table.AddRow("random", {util::Mean(costs_rnd.time_s), paper[ds][2]});
    table.AddRow("optimal", {util::Mean(costs_opt.time_s), paper[ds][3]});
    table.Print(std::cout);

    bench::Banner("Fig. 8 — per-image time CDFs");
    const std::vector<double> grid = bench::Grid(0.0, 5.5, 12);
    bench::PrintCdf("agent1 t", costs_a1.time_s, grid);
    std::cout << '\n';
    bench::PrintCdf("agent2 t", costs_a2.time_s, grid);
    std::cout << '\n';
    bench::PrintCdf("random t", costs_rnd.time_s, grid);
  }
}

}  // namespace

int main() {
  Run();
  return 0;
}
