#ifndef AMS_CORE_VALUE_H_
#define AMS_CORE_VALUE_H_

#include <vector>

#include "data/oracle.h"

namespace ams::core {

/// Incremental evaluator of the submodular objective f(S, d) of Eq. (1).
///
/// Label profits are confidences (§IV-A); with overlapping model outputs the
/// profit credited for a label is the best confidence among *executed*
/// models, so f(S, d) = sum over labels of max_{m in S} conf_m(label) over
/// valuable outputs. This makes f monotone and submodular (Lemma 1), and
/// f(M, d) equals Oracle::TrueTotalValue.
class ValueAccumulator {
 public:
  /// Binds to one item of an oracle.
  ValueAccumulator(const data::Oracle* oracle, int item);

  /// Marginal gain f(S ∪ {m}) − f(S) if `model` were executed now.
  double MarginalGain(int model) const;

  /// Executes the model: applies its valuable outputs. Returns the gain.
  double AddModel(int model);

  /// Current f(S, d).
  double Value() const { return value_; }

  /// Current value recall f(S, d) / f(M, d); 1.0 when the item has no
  /// valuable labels at all.
  double Recall() const;

  bool Added(int model) const { return added_[static_cast<size_t>(model)]; }

  const data::Oracle& oracle() const { return *oracle_; }
  int item() const { return item_; }

 private:
  const data::Oracle* oracle_;
  int item_;
  double value_ = 0.0;
  std::vector<double> best_conf_;  // per label id, 0 when not yet emitted
  std::vector<bool> added_;
};

/// Value recall f(S, d) / f(M, d) from an accumulated `value` and the item's
/// `total_value` (Oracle::TrueTotalValue); 1.0 when the item has no valuable
/// labels at all. ValueAccumulator::Recall and the tallies of summed
/// ExecutionRecord::gain share it, so both read the same bits.
inline double ValueRecall(double value, double total_value) {
  return total_value <= 0.0 ? 1.0 : value / total_value;
}

/// True once `recall` has reached `target`, within the shared stop
/// tolerance used by every ground-truth-driven stop condition (§VI-B);
/// `target` < 0 disables the check.
inline bool RecallTargetReached(double recall, double target) {
  return target >= 0.0 && recall >= target - 1e-12;
}

}  // namespace ams::core

#endif  // AMS_CORE_VALUE_H_
