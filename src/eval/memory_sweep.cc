#include "eval/memory_sweep.h"

#include <algorithm>

#include "core/labeling_service.h"
#include "eval/deadline_sweep.h"
#include "sched/optimal_star.h"
#include "util/rng.h"

namespace ams::eval {

std::vector<double> DefaultMemoryDeadlines() {
  return {0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0};
}

MemorySweep ComputeMemorySweep(rl::Agent* agent, const data::Oracle& oracle,
                               const std::vector<int>& items,
                               double mem_budget_mb,
                               const std::vector<double>& deadlines,
                               uint64_t seed, int num_threads) {
  MemorySweep sweep;
  sweep.policy_name = agent != nullptr ? "algorithm2" : "random";
  sweep.mem_budget_mb = mem_budget_mb;
  sweep.deadlines_s = deadlines;
  // One Algorithm-2 (or random-packing) session per deadline; agents are
  // cloned per worker by the session.
  sweep.avg_recall = AverageRecallPerDeadline(
      oracle, items, deadlines, mem_budget_mb, num_threads,
      [&](size_t d, core::LabelingServiceBuilder* builder) {
        if (agent != nullptr) {
          builder->WithMode(core::ExecutionMode::kParallel)
              .WithPredictor(agent);
        } else {
          builder->WithMode(core::ExecutionMode::kParallelRandom)
              .WithSeed(util::HashCombine(seed, static_cast<uint64_t>(d)));
        }
      });
  return sweep;
}

MemorySweep ComputeOptimalStarMemorySweep(const data::Oracle& oracle,
                                          const std::vector<int>& items,
                                          double mem_budget_mb,
                                          const std::vector<double>& deadlines,
                                          int num_threads) {
  MemorySweep sweep;
  sweep.policy_name = "optimal_star";
  sweep.mem_budget_mb = mem_budget_mb;
  sweep.deadlines_s = deadlines;
  sweep.avg_recall = AverageRecallOverItems(
      items, deadlines.size(), num_threads, [&](int item, size_t d) {
        const double total = oracle.TrueTotalValue(item);
        const double value = sched::OptimalStarValueDeadlineMemory(
            oracle, item, deadlines[d], mem_budget_mb);
        return total > 0.0 ? std::min(1.0, value / total) : 1.0;
      });
  return sweep;
}

}  // namespace ams::eval
