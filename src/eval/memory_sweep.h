#ifndef AMS_EVAL_MEMORY_SWEEP_H_
#define AMS_EVAL_MEMORY_SWEEP_H_

#include <string>
#include <vector>

#include "core/predictor.h"
#include "data/oracle.h"
#include "rl/agent.h"

namespace ams::eval {

/// Average value recall under (deadline, memory) constraints (Fig. 11).
struct MemorySweep {
  std::string policy_name;
  double mem_budget_mb = 0.0;
  std::vector<double> deadlines_s;
  std::vector<double> avg_recall;
};

/// Default deadline grid of the memory experiments (0.2 .. 2.0 s).
std::vector<double> DefaultMemoryDeadlines();

/// Sweeps Algorithm 2 (when `agent` != nullptr) or the random packing
/// baseline (when nullptr) over the deadline grid at one memory budget.
/// The agent is cloned per worker thread.
MemorySweep ComputeMemorySweep(rl::Agent* agent, const data::Oracle& oracle,
                               const std::vector<int>& items,
                               double mem_budget_mb,
                               const std::vector<double>& deadlines,
                               uint64_t seed, int num_threads = 0);

/// The deadline-memory optimal* bound (§V-C) per deadline.
MemorySweep ComputeOptimalStarMemorySweep(const data::Oracle& oracle,
                                          const std::vector<int>& items,
                                          double mem_budget_mb,
                                          const std::vector<double>& deadlines,
                                          int num_threads = 0);

}  // namespace ams::eval

#endif  // AMS_EVAL_MEMORY_SWEEP_H_
