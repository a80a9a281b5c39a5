// Reproduces Fig. 2 and the §II data-driven analysis: the per-image time
// cost of obtaining all valuable labels under three policies — "no policy"
// (execute everything), "random policy" (random order until all valuable
// labels are recalled) and the ideal "optimal policy" (execute exactly the
// model executions that generate high-confidence output).
//
// Paper reference points: no policy 5.16 s, random 4.64 s, optimal 1.14 s
// (optimal = 22.1% of no policy).

#include <iostream>

#include "bench/bench_util.h"
#include "eval/recall_curve.h"
#include "eval/world.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace ams;  // bench binaries: brevity over hygiene

void Run() {
  eval::World world(eval::WorldConfig::FromEnv());
  bench::Banner(
      "Fig. 2 / Section II — time cost to obtain all valuable labels");

  // The paper pools MSCOCO 2017 + Places365 + MirFlickr25 (394,170 images).
  const std::vector<std::string> pool = {"mscoco", "places365", "mirflickr25"};
  std::vector<double> no_policy_times, random_times, optimal_times;

  for (const std::string& name : pool) {
    const int d = world.IndexOf(name);
    const data::Oracle& oracle = world.oracle(d);
    const std::vector<int> items = world.EvalItems(d);
    // No policy: every model runs.
    for (int item : items) {
      no_policy_times.push_back(oracle.TotalTime(item));
      optimal_times.push_back(oracle.ValuableTime(item));
    }
    // Random policy: random order until full value recall.
    const eval::FullRecallCosts random_costs = eval::ComputeFullRecallCosts(
        eval::PolicySpec{"random", {/*seed=*/1234}}, oracle, items);
    random_times.insert(random_times.end(), random_costs.time_s.begin(),
                        random_costs.time_s.end());
  }

  util::AsciiTable summary;
  summary.SetHeader({"policy", "avg time/image (s)", "paper (s)",
                     "fraction of no-policy"});
  const double no_avg = util::Mean(no_policy_times);
  const double rnd_avg = util::Mean(random_times);
  const double opt_avg = util::Mean(optimal_times);
  summary.AddRow("no_policy", {no_avg, 5.16, 1.0});
  summary.AddRow("random", {rnd_avg, 4.64, rnd_avg / no_avg});
  summary.AddRow("optimal", {opt_avg, 1.14, opt_avg / no_avg});
  summary.Print(std::cout);
  std::cout << "\noptimal policy saves "
            << util::FormatDouble(100.0 * (1.0 - opt_avg / no_avg), 1)
            << "% of computing cost (paper: 77.9%)\n";

  bench::Banner("Fig. 2 (right) — CDF of time cost per image");
  const std::vector<double> grid = bench::Grid(0.0, 6.0, 13);
  bench::PrintCdf("no_policy t", no_policy_times, grid);
  std::cout << '\n';
  bench::PrintCdf("random t", random_times, grid);
  std::cout << '\n';
  bench::PrintCdf("optimal t", optimal_times, grid);
}

}  // namespace

int main() {
  Run();
  return 0;
}
