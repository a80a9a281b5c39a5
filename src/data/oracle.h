#ifndef AMS_DATA_ORACLE_H_
#define AMS_DATA_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "zoo/model_zoo.h"

namespace ams::data {

/// Precomputed full-execution ground truth, mirroring the paper's
/// methodology: "we executed all 30 models on 5 datasets and stored the
/// output labels and confidences" (§VI-A). Trainers, policies and metrics
/// replay stored outputs instead of re-running inference.
///
/// The tables are flat and item-major. Each block of kBuildBlockItems items
/// keeps the outputs of all its (item, model) pairs in one contiguous array,
/// indexed by one uint32_t offset per pair; execution times are an items x
/// models row. Only valuable outputs are stored: ModelZoo::ExecuteInto drops
/// the rest. The constructor builds the blocks concurrently on
/// ThreadPool::DefaultThreads() threads, each block writing only its own
/// storage and rows. ModelZoo::Execute and SampleExecutionTime are pure
/// functions of (scene, model), so every stored bit is the same for any
/// thread count.
class Oracle {
 public:
  /// Items per build block: the unit of parallel work and of contiguous
  /// output storage.
  static constexpr int kBuildBlockItems = 256;

  Oracle(const zoo::ModelZoo* zoo, const Dataset* dataset);

  const zoo::ModelZoo& zoo() const { return *zoo_; }
  const Dataset& dataset() const { return *dataset_; }
  int num_items() const { return dataset_->size(); }
  int num_models() const { return num_models_; }

  /// Stored output of `model` on `item`: its valuable labels, exactly
  /// ModelZoo::Execute's; a view valid for the oracle's lifetime.
  zoo::LabelOutputView Output(int item, int model) const;

  /// True whenever the model emits a valuable label on the item ("blue box"
  /// in Fig. 1).
  bool ModelValuable(int item, int model) const {
    return !Output(item, model).empty();
  }

  /// Sum of the confidences of the model's own outputs, in output order (no
  /// overlap accounting). The "true output value" by which the Optimal
  /// policy of §VI-B orders models.
  double ModelSoloValue(int item, int model) const;

  /// Sum over all valuable labels, in ascending label order, of the best
  /// confidence any model assigns: f(M, d), the denominator of the
  /// value-recall metric.
  double TrueTotalValue(int item) const;

  /// Best confidence any model assigns to `label` on `item` (the label's
  /// profit p_i), or 0 if no model outputs it. Scans the item's stored
  /// outputs.
  double LabelProfit(int item, int label) const;

  /// Per-item execution-time draw for `model` (jittered, deterministic).
  double ExecutionTime(int item, int model) const {
    return exec_time_[Cell(item, model)];
  }
  /// The item's whole execution-time row, indexed by model id; valid for the
  /// oracle's lifetime.
  const double* ExecutionTimes(int item) const {
    return exec_time_.data() + Cell(item, 0);
  }

  /// Sum of execution times of all models with valuable output (the cost of
  /// the Fig. 2 "optimal policy").
  double ValuableTime(int item) const;

  /// Sum of execution times of all models (the Fig. 2 "no policy" cost).
  double TotalTime(int item) const;

 private:
  /// The stored outputs of one block's items: pair k = (local item) *
  /// models + model owns outputs [offsets[k], offsets[k + 1]).
  struct Block {
    std::vector<zoo::LabelOutput> outputs;
    std::vector<uint32_t> offsets;
  };

  void BuildBlock(int block);
  size_t Cell(int item, int model) const {
    return static_cast<size_t>(item) * static_cast<size_t>(num_models_) +
           static_cast<size_t>(model);
  }

  const zoo::ModelZoo* zoo_;
  const Dataset* dataset_;
  int num_models_ = 0;
  std::vector<Block> blocks_;
  // Indexed by Cell(item, model).
  std::vector<double> exec_time_;
  std::vector<double> true_total_value_;
};

}  // namespace ams::data

#endif  // AMS_DATA_ORACLE_H_
