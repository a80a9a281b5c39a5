#ifndef AMS_CORE_LABELING_STATE_H_
#define AMS_CORE_LABELING_STATE_H_

#include <vector>

#include "zoo/model_zoo.h"

namespace ams::core {

/// The DRL environment observation of §IV: an n-dimensional binary vector
/// over the label space, where bit i says whether label i has been emitted
/// (valuably) by any executed model, plus bookkeeping of which models ran.
///
/// Design decision: only valuable (high-confidence) outputs set state bits
/// and count as "new labels" for O'(m, d). Low-confidence outputs are
/// treated as waste, consistent with Fig. 1 grouping "no output" and
/// "low-confidence output" together as useless executions. ModelZoo::Execute
/// drops them, so every output that reaches the state is valuable.
class LabelingState {
 public:
  LabelingState(int num_labels, int num_models);

  /// Clears all bits and the executed-model set, touching only the bits and
  /// models the last item set.
  void Reset();

  /// Registers the execution of `model_id` with its (valuable) outputs.
  /// Returns O'(m, d): the outputs whose labels were not yet set.
  /// Marks the model executed even if nothing new is produced.
  std::vector<zoo::LabelOutput> Apply(int model_id,
                                      zoo::LabelOutputView outputs);

  /// The two halves of Apply, for callers that walk the outputs themselves
  /// (ScheduleKernel's one pass per finish event). MarkExecuted records the
  /// model (checked: once per item); SetLabel sets one label's bit, keeping
  /// SetIndices sorted, and returns false when it was already set. Neither
  /// allocates: capacities are reserved for the worst case up front.
  void MarkExecuted(int model_id);
  bool SetLabel(int label_id);

  bool label_set(int label_id) const {
    return labels_[static_cast<size_t>(label_id)] != 0.0f;
  }
  bool model_executed(int model_id) const {
    return executed_[static_cast<size_t>(model_id)];
  }
  int num_executed() const { return num_executed_; }
  int num_labels_set() const { return num_labels_set_; }
  int num_labels() const { return static_cast<int>(labels_.size()); }
  int num_models() const { return static_cast<int>(executed_.size()); }

  /// The binary feature vector fed to the Q-network (size = num_labels).
  const std::vector<float>& Features() const { return labels_; }

  /// Indices of the set labels in ascending order — the sparse complement of
  /// Features(). Kept sorted so a sparse consumer accumulating in index
  /// order (DenseLayer::ForwardSparseRows) is bitwise identical to the dense
  /// ascending scan over Features().
  const std::vector<int>& SetIndices() const { return set_indices_; }

  /// Model ids in execution order.
  const std::vector<int>& execution_order() const { return order_; }

 private:
  std::vector<float> labels_;   // 0/1 floats: directly usable as NN input
  std::vector<int> set_indices_;  // ascending indices of set bits
  std::vector<bool> executed_;
  std::vector<int> order_;
  int num_executed_ = 0;
  int num_labels_set_ = 0;
};

}  // namespace ams::core

#endif  // AMS_CORE_LABELING_STATE_H_
