#ifndef AMS_SCHED_BASIC_POLICIES_H_
#define AMS_SCHED_BASIC_POLICIES_H_

#include <cstdint>

#include "sched/policy_picker.h"
#include "util/rng.h"

namespace ams::sched {

/// "Random policy" baseline (§II, §VI): a fresh uniformly random model
/// permutation per item, drawn when the item is armed and executed in order;
/// models that no longer fit the remaining budget are skipped.
class RandomPolicy : public PolicyPicker {
 public:
  explicit RandomPolicy(uint64_t seed);
  void Arm(PolicyItem* item) override;
  int Pick(const core::PickContext& pick, PolicyItem* item) override;

 private:
  util::Rng rng_;
};

/// "No policy" baseline (§II): executes every model in id order.
class NoPolicy : public PolicyPicker {
 public:
  int Pick(const core::PickContext& pick, PolicyItem* item) override;
};

/// "Optimal policy" baseline (§VI-B): orders models by their true output
/// value (oracle solo value, descending); stops once only worthless models
/// remain. An oracle policy — it peeks at ground truth.
class OptimalPolicy : public PolicyPicker {
 public:
  void Arm(PolicyItem* item) override;
  int Pick(const core::PickContext& pick, PolicyItem* item) override;
};

/// "Q-Greedy policy" (§VI-B): executes the unstarted model with the highest
/// predicted Q, read from the record's kQ decision row over the session
/// predictor; never stops voluntarily (the recall target or the deadline
/// terminates it).
class QGreedyPolicy : public PolicyPicker {
 public:
  void Arm(PolicyItem* item) override;
  int Pick(const core::PickContext& pick, PolicyItem* item) override;
};

}  // namespace ams::sched

#endif  // AMS_SCHED_BASIC_POLICIES_H_
