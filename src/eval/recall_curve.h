#ifndef AMS_EVAL_RECALL_CURVE_H_
#define AMS_EVAL_RECALL_CURVE_H_

#include <string>
#include <vector>

#include "core/predictor.h"
#include "data/oracle.h"
#include "sched/policy_registry.h"

namespace ams::core {
class LabelingServiceBuilder;
}  // namespace ams::core

namespace ams::eval {

/// A registry policy under evaluation, and the name its results carry. Every
/// session worker builds its own policy from `options` as given, so a seeded
/// policy draws the same sequence on every worker (a WithPolicy session
/// decorrelates its workers instead). `predictor` is the session predictor
/// q_greedy reads Q from; null for the other policies.
struct PolicySpec {
  std::string name;
  sched::PolicyOptions options = {};
  core::ModelValuePredictor* predictor = nullptr;
};

/// Makes `builder` a kSerial session over `policy`.
void ConfigurePolicySession(const PolicySpec& policy,
                            core::LabelingServiceBuilder* builder);

/// Per-threshold statistics of the "cost to reach a required value recall"
/// experiments (Figs. 4-6): for each threshold, the average number of
/// executed models and the average execution time over the item set.
struct RecallCurve {
  std::string policy_name;
  std::vector<double> thresholds;
  std::vector<double> avg_models;
  std::vector<double> avg_time_s;
};

/// Default threshold grid 0.1, 0.2, ..., 1.0.
std::vector<double> DefaultThresholds();

/// Runs `policy` on every item until full recall, through one
/// LabelingService::SubmitBatch over `num_threads` workers (<= 0: all
/// cores), then derives the per-threshold averages from each item's
/// executions: a threshold's cost is the model count and finish time of the
/// first execution whose running recall reaches it.
RecallCurve ComputeRecallCurve(const PolicySpec& policy,
                               const data::Oracle& oracle,
                               const std::vector<int>& items,
                               const std::vector<double>& thresholds,
                               int num_threads = 0);

/// Per-item cost of reaching one recall target (used for Fig 2 / Fig 8 CDFs
/// and averages): execution time and model count at first threshold hit.
struct FullRecallCosts {
  std::vector<double> time_s;   // per item
  std::vector<double> models;   // per item
};

FullRecallCosts ComputeFullRecallCosts(const PolicySpec& policy,
                                       const data::Oracle& oracle,
                                       const std::vector<int>& items,
                                       double recall_target = 1.0,
                                       int num_threads = 0);

}  // namespace ams::eval

#endif  // AMS_EVAL_RECALL_CURVE_H_
