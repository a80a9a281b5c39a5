#ifndef AMS_DATA_ORACLE_H_
#define AMS_DATA_ORACLE_H_

#include <vector>

#include "data/dataset.h"
#include "zoo/model_zoo.h"

namespace ams::data {

/// Precomputed full-execution ground truth, mirroring the paper's
/// methodology: "we executed all 30 models on 5 datasets and stored the
/// output labels and confidences" (§VI-A). Trainers, policies and metrics
/// replay stored outputs instead of re-running inference.
class Oracle {
 public:
  Oracle(const zoo::ModelZoo* zoo, const Dataset* dataset);

  const zoo::ModelZoo& zoo() const { return *zoo_; }
  const Dataset& dataset() const { return *dataset_; }
  int num_items() const { return dataset_->size(); }
  int num_models() const { return zoo_->num_models(); }

  /// Stored output of `model` on `item` (all labels, incl. low-confidence).
  const std::vector<zoo::LabelOutput>& Output(int item, int model) const;

  /// Valuable (conf >= threshold) subset of the output.
  const std::vector<zoo::LabelOutput>& ValuableOutput(int item, int model) const;

  /// True whenever ValuableOutput is non-empty ("blue box" in Fig. 1).
  bool ModelValuable(int item, int model) const;

  /// Sum of confidences of the model's own valuable labels (no overlap
  /// accounting). The "true output value" by which the Optimal policy of
  /// §VI-B orders models.
  double ModelSoloValue(int item, int model) const;

  /// Sum over all valuable labels of the best confidence any model assigns:
  /// f(M, d), the denominator of the value-recall metric.
  double TrueTotalValue(int item) const;

  /// Best confidence any model assigns to `label` on `item` (the label's
  /// profit p_i), or 0 if no model outputs it valuably.
  double LabelProfit(int item, int label) const;

  /// Number of models with valuable output on `item`.
  int NumValuableModels(int item) const;

  /// Per-item execution-time draw for `model` (jittered, deterministic).
  double ExecutionTime(int item, int model) const;
  /// The item's whole execution-time row, indexed by model id; valid for the
  /// oracle's lifetime.
  const double* ExecutionTimes(int item) const {
    return exec_time_[static_cast<size_t>(item)].data();
  }

  /// Sum of execution times of all models with valuable output (the cost of
  /// the Fig. 2 "optimal policy").
  double ValuableTime(int item) const;

  /// Sum of execution times of all models (the Fig. 2 "no policy" cost).
  double TotalTime(int item) const;

 private:
  const zoo::ModelZoo* zoo_;
  const Dataset* dataset_;
  // Indexed [item][model].
  std::vector<std::vector<std::vector<zoo::LabelOutput>>> outputs_;
  std::vector<std::vector<std::vector<zoo::LabelOutput>>> valuable_;
  std::vector<std::vector<double>> solo_value_;
  std::vector<std::vector<double>> exec_time_;
  std::vector<double> true_total_value_;
  // Sparse per-item map label -> profit, stored as sorted pairs.
  std::vector<std::vector<std::pair<int, double>>> label_profit_;
};

}  // namespace ams::data

#endif  // AMS_DATA_ORACLE_H_
