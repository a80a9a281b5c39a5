#include "eval/memory_sweep.h"

#include <thread>

#include "core/labeling_service.h"
#include "sched/optimal_star.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ams::eval {

std::vector<double> DefaultMemoryDeadlines() {
  return {0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0};
}

MemorySweep ComputeMemorySweep(rl::Agent* agent, const data::Oracle& oracle,
                               const std::vector<int>& items,
                               double mem_budget_mb,
                               const std::vector<double>& deadlines,
                               uint64_t seed, int num_threads) {
  AMS_CHECK(!items.empty() && !deadlines.empty());
  if (num_threads <= 0) num_threads = util::ThreadPool::DefaultThreads();
  MemorySweep sweep;
  sweep.policy_name = agent != nullptr ? "algorithm2" : "random";
  sweep.mem_budget_mb = mem_budget_mb;
  sweep.deadlines_s = deadlines;
  sweep.avg_recall.assign(deadlines.size(), 0.0);

  std::vector<core::WorkItem> work;
  work.reserve(items.size());
  for (int item : items) work.push_back(core::WorkItem::Stored(item));

  // One Algorithm-2 (or random-packing) session per deadline; agents are
  // cloned per worker by the session. Only recall is read here, so the
  // sessions run on the lean kernel path.
  for (size_t d = 0; d < deadlines.size(); ++d) {
    core::ScheduleConstraints constraints;
    constraints.time_budget_s = deadlines[d];
    constraints.memory_budget_mb = mem_budget_mb;
    core::LabelingServiceBuilder builder(&oracle.zoo());
    builder.WithOracle(&oracle)
        .WithConstraints(constraints)
        .WithKernelMode(core::KernelMode::kLean)
        .WithWorkers(num_threads);
    if (agent != nullptr) {
      builder.WithMode(core::ExecutionMode::kParallel).WithPredictor(agent);
    } else {
      builder.WithMode(core::ExecutionMode::kParallelRandom)
          .WithSeed(util::HashCombine(seed, static_cast<uint64_t>(d)));
    }
    core::LabelingService service = builder.Build();
    const std::vector<core::LabelOutcome> outcomes =
        service.SubmitBatch(work);
    double sum = 0.0;
    for (const core::LabelOutcome& outcome : outcomes) sum += outcome.recall;
    sweep.avg_recall[d] = sum / static_cast<double>(items.size());
  }
  return sweep;
}

MemorySweep ComputeOptimalStarMemorySweep(const data::Oracle& oracle,
                                          const std::vector<int>& items,
                                          double mem_budget_mb,
                                          const std::vector<double>& deadlines,
                                          int num_threads) {
  AMS_CHECK(!items.empty() && !deadlines.empty());
  if (num_threads <= 0) num_threads = util::ThreadPool::DefaultThreads();
  MemorySweep sweep;
  sweep.policy_name = "optimal_star";
  sweep.mem_budget_mb = mem_budget_mb;
  sweep.deadlines_s = deadlines;
  sweep.avg_recall.assign(deadlines.size(), 0.0);
  const int n = static_cast<int>(items.size());
  const int chunk = (n + num_threads - 1) / num_threads;
  std::vector<std::vector<double>> partial(
      static_cast<size_t>(num_threads),
      std::vector<double>(deadlines.size(), 0.0));
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    const int lo = t * chunk;
    const int hi = std::min(n, lo + chunk);
    if (lo >= hi) break;
    threads.emplace_back([&, t, lo, hi] {
      for (int i = lo; i < hi; ++i) {
        const int item = items[static_cast<size_t>(i)];
        const double total = oracle.TrueTotalValue(item);
        for (size_t d = 0; d < deadlines.size(); ++d) {
          const double value = sched::OptimalStarValueDeadlineMemory(
              oracle, item, deadlines[d], mem_budget_mb);
          partial[static_cast<size_t>(t)][d] +=
              total > 0.0 ? std::min(1.0, value / total) : 1.0;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& p : partial) {
    for (size_t d = 0; d < deadlines.size(); ++d) sweep.avg_recall[d] += p[d];
  }
  for (double& r : sweep.avg_recall) r /= static_cast<double>(n);
  return sweep;
}

}  // namespace ams::eval
