#ifndef AMS_EVAL_DEADLINE_SWEEP_H_
#define AMS_EVAL_DEADLINE_SWEEP_H_

#include <functional>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "data/oracle.h"
#include "eval/recall_curve.h"

namespace ams::core {
class LabelingServiceBuilder;
}  // namespace ams::core

namespace ams::eval {

/// Average value recall achieved under each deadline (Fig. 10 / Fig. 12).
struct DeadlineSweep {
  std::string policy_name;
  std::vector<double> deadlines_s;
  std::vector<double> avg_recall;
};

/// Default deadline grid 0.25 .. 5.0 s.
std::vector<double> DefaultDeadlines();

/// Runs `policy` on every item for every deadline and averages the recall.
DeadlineSweep ComputeDeadlineSweep(const PolicySpec& policy,
                                   const data::Oracle& oracle,
                                   const std::vector<int>& items,
                                   const std::vector<double>& deadlines,
                                   int num_threads = 0);

/// Runs Algorithm 1 over `predictor` (a kSerial predictor session, cloned
/// per worker when the predictor supports it) on every item for every
/// deadline and averages the recall. The sweep is named "algorithm1".
DeadlineSweep ComputeDeadlineSweep(core::ModelValuePredictor* predictor,
                                   const data::Oracle& oracle,
                                   const std::vector<int>& items,
                                   const std::vector<double>& deadlines,
                                   int num_threads = 0);

/// The optimal* upper bound's average recall per deadline (§V-C).
DeadlineSweep ComputeOptimalStarSweep(const data::Oracle& oracle,
                                      const std::vector<int>& items,
                                      const std::vector<double>& deadlines,
                                      int num_threads = 0);

// --- the loops shared by the deadline and memory sweeps ---------------------

/// Sets a sweep session's decision source and mode (and, for seeded
/// baselines, its seed) for the deadline at `deadline_index`.
using ConfigureSweepSession =
    std::function<void(size_t deadline_index, core::LabelingServiceBuilder*)>;

/// The per-deadline session loop behind every policy and predictor sweep:
/// for each deadline, one lean oracle-backed session under that deadline and
/// `memory_budget_mb` (infinity for serial sweeps), configured by
/// `configure`, labels `items` over `num_threads` workers (<= 0: all cores).
/// Returns each deadline's average recall, summed in item order.
std::vector<double> AverageRecallPerDeadline(
    const data::Oracle& oracle, const std::vector<int>& items,
    const std::vector<double>& deadlines, double memory_budget_mb,
    int num_threads, const ConfigureSweepSession& configure);

/// The per-item loop behind the optimal* bounds: averages
/// `recall(item, deadline_index)` over `items` for every deadline index. The
/// items fan out over `num_threads` (<= 0: all cores), each writing only its
/// own slots, and the averages are summed in item order, so their bits do
/// not depend on the thread count.
std::vector<double> AverageRecallOverItems(
    const std::vector<int>& items, size_t num_deadlines, int num_threads,
    const std::function<double(int item, size_t deadline_index)>& recall);

}  // namespace ams::eval

#endif  // AMS_EVAL_DEADLINE_SWEEP_H_
