#ifndef AMS_SCHED_POLICY_ADAPTER_H_
#define AMS_SCHED_POLICY_ADAPTER_H_

#include "core/schedule_kernel.h"
#include "sched/policy.h"

namespace ams::sched {

/// Presents a serial SchedulingPolicy as a core::ModelPicker, so the
/// scheduling kernel behind every LabelingService session, online or
/// replaying stored items, runs any policy. The adapter enforces the policy
/// contract: a picked model must be unexecuted and its time estimate must
/// fit the remaining budget.
///
/// The policy and context must outlive the adapter; the adapter must
/// outlive any picker or hook obtained from it.
class PolicyAdapter {
 public:
  /// Calls `policy->BeginItem(ctx)`.
  PolicyAdapter(SchedulingPolicy* policy, const ItemContext& ctx);

  /// Picker for a core::ScheduleKernel. Serial: picks only when idle.
  core::ModelPicker Picker();

  /// Forwards a finish event to the policy's OnExecuted. Wire this into
  /// KernelHooks::on_executed (directly or from a larger hook).
  void NotifyExecuted(const core::ExecutionRecord& record);

  SchedulingPolicy* policy() const { return policy_; }
  const ItemContext& ctx() const { return ctx_; }

 private:
  SchedulingPolicy* policy_;
  ItemContext ctx_;
};

}  // namespace ams::sched

#endif  // AMS_SCHED_POLICY_ADAPTER_H_
