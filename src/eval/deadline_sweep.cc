#include "eval/deadline_sweep.h"

#include <limits>

#include "core/labeling_service.h"
#include "sched/optimal_star.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace ams::eval {

std::vector<double> DefaultDeadlines() {
  return {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0};
}

std::vector<double> AverageRecallPerDeadline(
    const data::Oracle& oracle, const std::vector<int>& items,
    const std::vector<double>& deadlines, double memory_budget_mb,
    int num_threads, const ConfigureSweepSession& configure) {
  AMS_CHECK(!items.empty() && !deadlines.empty());
  std::vector<core::WorkItem> work;
  work.reserve(items.size());
  for (int item : items) work.push_back(core::WorkItem::Stored(item));

  // One session per deadline; the session fans the batch out over its
  // workers with a private policy or predictor clone per worker. Only recall
  // is read here, so the sessions run on the lean kernel path (no
  // per-execution records, no recalled-label maps).
  std::vector<double> avg_recall(deadlines.size(), 0.0);
  for (size_t d = 0; d < deadlines.size(); ++d) {
    core::ScheduleConstraints constraints;
    constraints.time_budget_s = deadlines[d];
    constraints.memory_budget_mb = memory_budget_mb;
    core::LabelingServiceBuilder builder(&oracle.zoo());
    builder.WithOracle(&oracle)
        .WithConstraints(constraints)
        .WithKernelMode(core::KernelMode::kLean)
        .WithWorkers(num_threads);
    configure(d, &builder);
    core::LabelingService service = builder.Build();
    const std::vector<core::LabelOutcome> outcomes =
        service.SubmitBatch(work);
    double sum = 0.0;
    for (const core::LabelOutcome& outcome : outcomes) sum += outcome.recall;
    avg_recall[d] = sum / static_cast<double>(items.size());
  }
  return avg_recall;
}

std::vector<double> AverageRecallOverItems(
    const std::vector<int>& items, size_t num_deadlines, int num_threads,
    const std::function<double(int item, size_t deadline_index)>& recall) {
  AMS_CHECK(!items.empty() && num_deadlines > 0);
  if (num_threads <= 0) num_threads = util::ThreadPool::DefaultThreads();
  const int n = static_cast<int>(items.size());
  std::vector<double> per_item(items.size() * num_deadlines);
  util::ParallelFor(0, n, num_threads, [&](int i) {
    const size_t row = static_cast<size_t>(i) * num_deadlines;
    for (size_t d = 0; d < num_deadlines; ++d) {
      per_item[row + d] = recall(items[static_cast<size_t>(i)], d);
    }
  });
  std::vector<double> avg_recall(num_deadlines, 0.0);
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t d = 0; d < num_deadlines; ++d) {
      avg_recall[d] += per_item[i * num_deadlines + d];
    }
  }
  for (double& r : avg_recall) r /= static_cast<double>(n);
  return avg_recall;
}

DeadlineSweep ComputeDeadlineSweep(const PolicySpec& policy,
                                   const data::Oracle& oracle,
                                   const std::vector<int>& items,
                                   const std::vector<double>& deadlines,
                                   int num_threads) {
  DeadlineSweep sweep;
  sweep.policy_name = policy.name;
  sweep.deadlines_s = deadlines;
  sweep.avg_recall = AverageRecallPerDeadline(
      oracle, items, deadlines, std::numeric_limits<double>::infinity(),
      num_threads, [&](size_t, core::LabelingServiceBuilder* builder) {
        ConfigurePolicySession(policy, builder);
      });
  return sweep;
}

DeadlineSweep ComputeDeadlineSweep(core::ModelValuePredictor* predictor,
                                   const data::Oracle& oracle,
                                   const std::vector<int>& items,
                                   const std::vector<double>& deadlines,
                                   int num_threads) {
  AMS_CHECK(predictor != nullptr);
  DeadlineSweep sweep;
  sweep.policy_name = "algorithm1";
  sweep.deadlines_s = deadlines;
  sweep.avg_recall = AverageRecallPerDeadline(
      oracle, items, deadlines, std::numeric_limits<double>::infinity(),
      num_threads, [&](size_t, core::LabelingServiceBuilder* builder) {
        builder->WithMode(core::ExecutionMode::kSerial)
            .WithPredictor(predictor);
      });
  return sweep;
}

DeadlineSweep ComputeOptimalStarSweep(const data::Oracle& oracle,
                                      const std::vector<int>& items,
                                      const std::vector<double>& deadlines,
                                      int num_threads) {
  DeadlineSweep sweep;
  sweep.policy_name = "optimal_star";
  sweep.deadlines_s = deadlines;
  sweep.avg_recall = AverageRecallOverItems(
      items, deadlines.size(), num_threads, [&](int item, size_t d) {
        const double total = oracle.TrueTotalValue(item);
        const double value =
            sched::OptimalStarValueDeadline(oracle, item, deadlines[d]);
        return total > 0.0 ? value / total : 1.0;
      });
  return sweep;
}

}  // namespace ams::eval
