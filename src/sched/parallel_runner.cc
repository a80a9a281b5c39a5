#include "sched/parallel_runner.h"

#include "core/schedule_kernel.h"
#include "core/value.h"
#include "util/check.h"
#include "util/rng.h"

namespace ams::sched {

ParallelRunResult RunParallel(ParallelPolicyKind kind,
                              core::ModelValuePredictor* predictor,
                              const data::Oracle& oracle, int item,
                              const ParallelRunConfig& config) {
  if (kind == ParallelPolicyKind::kAlgorithm2) {
    AMS_CHECK(predictor != nullptr, "Algorithm 2 needs a value predictor");
  }
  AMS_CHECK(item >= 0 && item < oracle.num_items());

  core::ReplayExecutionContext exec(&oracle, item);
  const core::ModelPicker picker =
      kind == ParallelPolicyKind::kAlgorithm2
          ? core::MakeDeadlineMemoryPicker(predictor)
          : core::MakeRandomPackingPicker(
                util::HashCombine(config.seed, 0x9A7Au + item));

  // Value comes from the kernel's per-execution gains, summed in
  // ValueAccumulator's order.
  double value = 0.0;
  ParallelRunResult result;
  core::KernelHooks hooks;
  hooks.on_executed = [&](const core::ExecutionRecord& record,
                          const core::LabelingState&) {
    value += record.gain;
    result.steps.push_back({record.model_id, record.start_s, record.finish_s});
    return false;
  };
  core::ScheduleConstraints constraints;
  constraints.time_budget_s = config.time_budget;
  constraints.memory_budget_mb = config.mem_budget_mb;
  const core::ScheduleResult schedule =
      RunScheduleKernel(exec, constraints, picker, hooks);

  result.makespan = schedule.makespan_s;
  result.peak_mem_mb = schedule.peak_mem_mb;
  result.value = value;
  result.recall = core::ValueRecall(value, oracle.TrueTotalValue(item));
  result.models_executed = static_cast<int>(result.steps.size());
  return result;
}

}  // namespace ams::sched
