#include "eval/recall_curve.h"

#include "core/labeling_service.h"
#include "core/value.h"
#include "util/check.h"

namespace ams::eval {

std::vector<double> DefaultThresholds() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

void ConfigurePolicySession(const PolicySpec& policy,
                            core::LabelingServiceBuilder* builder) {
  builder->WithMode(core::ExecutionMode::kSerial)
      .WithPolicyFactory([name = policy.name, options = policy.options] {
        return sched::PolicyRegistry::Create(name, options);
      });
  if (policy.predictor != nullptr) builder->WithPredictor(policy.predictor);
}

namespace {

// Labels every item to full recall through one serial session whose workers
// each own a `policy`. The full kernel mode keeps every execution record, so
// each item's trajectory can be read back from schedule.executions.
std::vector<core::LabelOutcome> RunToFullRecall(const PolicySpec& policy,
                                                const data::Oracle& oracle,
                                                const std::vector<int>& items,
                                                int num_threads) {
  std::vector<core::WorkItem> work;
  work.reserve(items.size());
  for (int item : items) work.push_back(core::WorkItem::Stored(item));
  core::LabelingServiceBuilder builder(&oracle.zoo());
  builder.WithOracle(&oracle)
      .WithKernelMode(core::KernelMode::kFull)
      .WithRecallTarget(1.0)
      .WithWorkers(num_threads);
  ConfigurePolicySession(policy, &builder);
  return builder.Build().SubmitBatch(work);
}

struct Cost {
  double models = 0.0;
  double time_s = 0.0;
};

// Models executed and time spent when the item's running recall (the summed
// execution gains over its total value) first reaches `target`; the whole
// run when it never does (cannot happen for full-recall runs, but guard
// anyway).
Cost CostToReach(const core::LabelOutcome& outcome, double total_value,
                 double target) {
  const std::vector<core::ExecutionRecord>& executions =
      outcome.schedule.executions;
  double value = 0.0;
  for (size_t k = 0; k < executions.size(); ++k) {
    value += executions[k].gain;
    if (core::ValueRecall(value, total_value) >= target - 1e-12) {
      return {static_cast<double>(k + 1), executions[k].finish_s};
    }
  }
  return {static_cast<double>(executions.size()), outcome.schedule.makespan_s};
}

}  // namespace

RecallCurve ComputeRecallCurve(const PolicySpec& policy,
                               const data::Oracle& oracle,
                               const std::vector<int>& items,
                               const std::vector<double>& thresholds,
                               int num_threads) {
  AMS_CHECK(!items.empty());
  AMS_CHECK(!thresholds.empty());
  const std::vector<core::LabelOutcome> outcomes =
      RunToFullRecall(policy, oracle, items, num_threads);

  RecallCurve curve;
  curve.policy_name = policy.name;
  curve.thresholds = thresholds;
  curve.avg_models.assign(thresholds.size(), 0.0);
  curve.avg_time_s.assign(thresholds.size(), 0.0);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const double total = oracle.TrueTotalValue(items[i]);
    for (size_t k = 0; k < thresholds.size(); ++k) {
      const Cost cost = CostToReach(outcomes[i], total, thresholds[k]);
      curve.avg_models[k] += cost.models;
      curve.avg_time_s[k] += cost.time_s;
    }
  }
  const double inv = 1.0 / static_cast<double>(outcomes.size());
  for (size_t k = 0; k < thresholds.size(); ++k) {
    curve.avg_models[k] *= inv;
    curve.avg_time_s[k] *= inv;
  }
  return curve;
}

FullRecallCosts ComputeFullRecallCosts(const PolicySpec& policy,
                                       const data::Oracle& oracle,
                                       const std::vector<int>& items,
                                       double recall_target, int num_threads) {
  const std::vector<core::LabelOutcome> outcomes =
      RunToFullRecall(policy, oracle, items, num_threads);
  FullRecallCosts costs;
  costs.time_s.reserve(outcomes.size());
  costs.models.reserve(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Cost cost = CostToReach(
        outcomes[i], oracle.TrueTotalValue(items[i]), recall_target);
    costs.time_s.push_back(cost.time_s);
    costs.models.push_back(cost.models);
  }
  return costs;
}

}  // namespace ams::eval
