#ifndef AMS_SCHED_RULE_BASED_H_
#define AMS_SCHED_RULE_BASED_H_

#include <string>
#include <vector>

#include "sched/policy_picker.h"
#include "util/rng.h"
#include "zoo/label_space.h"
#include "zoo/task.h"

namespace ams::sched {

/// One handcrafted execution rule (Table II): when a trigger label arrives,
/// the execution probability of every model of `target_task` is multiplied
/// by `factor`. Each rule fires at most once per item.
struct ExecutionRule {
  std::string description;
  /// Matches a freshly emitted valuable label.
  enum class Trigger {
    kObjectPerson,
    kObjectDog,
    kFace,
    kAnyPoseKeypoint,
    kWristKeypoint,
    kIndoorPlace,
  } trigger;
  zoo::TaskKind target_task;
  double factor;  // 2.0 boosts, 0.5 suppresses
};

/// The repo's Table-II rule set: ten pairwise rules volunteered from common
/// sense, mirroring the paper's (person->pose, person->gender, dog->breed,
/// face->landmarks, face->emotion, pose->action, wrist->hand, indoor
/// suppressions).
std::vector<ExecutionRule> DefaultRules();

/// True when `label_id`, a freshly emitted valuable label, matches the
/// rule's trigger.
bool RuleTriggered(const ExecutionRule& rule, const zoo::LabelSpace& labels,
                   int label_id);

/// Rule-based scheduling policy (§III-B, §VI-C): every task starts with an
/// equal execution weight; fresh labels fire rules that scale task weights;
/// the next model is sampled proportionally to its task's weight among those
/// that fit. Within a task, the most accurate runnable model goes first,
/// matching how a practitioner would order a model family.
class RuleBasedPolicy : public PolicyPicker {
 public:
  RuleBasedPolicy(std::vector<ExecutionRule> rules, uint64_t seed);

  void Arm(PolicyItem* item) override;
  int Pick(const core::PickContext& pick, PolicyItem* item) override;
  void OnExecuted(const core::ExecutionRecord& record,
                  PolicyItem* item) override;
  /// Every pick draws from the worker's rng.
  bool depends_on_item_order() const override { return true; }

  const std::vector<ExecutionRule>& rules() const { return rules_; }

 private:
  std::vector<ExecutionRule> rules_;
  util::Rng rng_;
};

}  // namespace ams::sched

#endif  // AMS_SCHED_RULE_BASED_H_
