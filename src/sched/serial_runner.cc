#include "sched/serial_runner.h"

#include "core/schedule_kernel.h"
#include "core/value.h"
#include "sched/policy_adapter.h"
#include "util/check.h"

namespace ams::sched {

SerialRunResult RunSerial(SchedulingPolicy* policy, const data::Oracle& oracle,
                          int item, const SerialRunConfig& config,
                          int chunk_id) {
  AMS_CHECK(policy != nullptr);
  AMS_CHECK(item >= 0 && item < oracle.num_items());

  ItemContext ctx;
  ctx.oracle = &oracle;
  ctx.zoo = &oracle.zoo();
  ctx.item = item;
  ctx.chunk_id = chunk_id;
  PolicyAdapter adapter(policy, ctx);

  // Value and recall come from the kernel's per-execution gains, summed in
  // ValueAccumulator's order.
  const double total_value = oracle.TrueTotalValue(item);
  double value = 0.0;
  const auto recall = [&] { return core::ValueRecall(value, total_value); };
  SerialRunResult result;
  const auto target_reached = [&] {
    return core::RecallTargetReached(recall(), config.recall_target);
  };
  // Items whose target is met before any execution (e.g. no valuable labels
  // at all) schedule nothing.
  if (target_reached()) {
    result.value = value;
    result.recall = recall();
    return result;
  }

  core::ReplayExecutionContext exec(&oracle, item);
  core::ScheduleConstraints constraints;
  constraints.time_budget_s = config.time_budget;
  core::KernelHooks hooks;
  hooks.on_executed = [&](const core::ExecutionRecord& record,
                          const core::LabelingState&) {
    value += record.gain;
    adapter.NotifyExecuted(record);
    result.time_used = record.finish_s;  // serial: cumulative time
    result.steps.push_back({record.model_id, record.finish_s, recall(), value});
    return target_reached();
  };
  RunScheduleKernel(exec, constraints, adapter.Picker(), hooks);

  result.value = value;
  result.recall = recall();
  result.models_executed = static_cast<int>(result.steps.size());
  return result;
}

}  // namespace ams::sched
