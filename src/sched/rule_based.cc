#include "sched/rule_based.h"

#include <utility>

namespace ams::sched {

using zoo::TaskKind;

std::vector<ExecutionRule> DefaultRules() {
  using T = ExecutionRule::Trigger;
  return {
      {"object person => 2 x P(Pose Estimation)", T::kObjectPerson,
       TaskKind::kPoseEstimation, 2.0},
      {"object person => 2 x P(Gender Classification)", T::kObjectPerson,
       TaskKind::kGenderClassification, 2.0},
      {"object person => 2 x P(Face Detection)", T::kObjectPerson,
       TaskKind::kFaceDetection, 2.0},
      {"object dog => 2 x P(Dog Classification)", T::kObjectDog,
       TaskKind::kDogClassification, 2.0},
      {"face => 2 x P(Face Landmark Localization)", T::kFace,
       TaskKind::kFaceLandmark, 2.0},
      {"face => 2 x P(Emotion Classification)", T::kFace,
       TaskKind::kEmotionClassification, 2.0},
      {"body keypoints => 2 x P(Action Classification)", T::kAnyPoseKeypoint,
       TaskKind::kActionClassification, 2.0},
      {"wrist keypoints => 2 x P(Hand Landmark Localization)",
       T::kWristKeypoint, TaskKind::kHandLandmark, 2.0},
      {"indoor place => 0.5 x P(Dog Classification)", T::kIndoorPlace,
       TaskKind::kDogClassification, 0.5},
      {"indoor place => 0.5 x P(Action Classification)", T::kIndoorPlace,
       TaskKind::kActionClassification, 0.5},
  };
}

bool RuleTriggered(const ExecutionRule& rule, const zoo::LabelSpace& labels,
                   int label_id) {
  const TaskKind task = labels.TaskOfLabel(label_id);
  const int offset = labels.OffsetInTask(label_id);
  switch (rule.trigger) {
    case ExecutionRule::Trigger::kObjectPerson:
      return task == TaskKind::kObjectDetection &&
             offset == zoo::LabelSpace::kObjectPerson;
    case ExecutionRule::Trigger::kObjectDog:
      return task == TaskKind::kObjectDetection &&
             offset == zoo::LabelSpace::kObjectDog;
    case ExecutionRule::Trigger::kFace:
      return task == TaskKind::kFaceDetection;
    case ExecutionRule::Trigger::kAnyPoseKeypoint:
      return task == TaskKind::kPoseEstimation;
    case ExecutionRule::Trigger::kWristKeypoint:
      return task == TaskKind::kPoseEstimation &&
             (offset == zoo::LabelSpace::kPoseLeftWrist ||
              offset == zoo::LabelSpace::kPoseRightWrist);
    case ExecutionRule::Trigger::kIndoorPlace:
      return task == TaskKind::kPlaceClassification &&
             labels.IsIndoorScene(offset);
  }
  return false;
}

RuleBasedPolicy::RuleBasedPolicy(std::vector<ExecutionRule> rules,
                                 uint64_t seed)
    : rules_(std::move(rules)), rng_(seed) {}

void RuleBasedPolicy::Arm(PolicyItem* item) {
  item->task_weight.assign(static_cast<size_t>(zoo::kNumTasks), 1.0);
  item->fired.assign(rules_.size(), false);
}

int RuleBasedPolicy::Pick(const core::PickContext& pick, PolicyItem* item) {
  // Sample a task by weight among tasks that still have a runnable model,
  // then pick that task's most capable runnable model (a practitioner runs
  // the best variant of a family first; weaker tiers only as fallback).
  const zoo::ModelZoo& zoo = *item->zoo;
  const double remaining = pick.remaining_time();
  std::vector<double> weights(static_cast<size_t>(zoo::kNumTasks), 0.0);
  std::vector<int> best_model(static_cast<size_t>(zoo::kNumTasks), -1);
  bool any = false;
  for (int k = 0; k < pick.num_unstarted; ++k) {
    const int m = pick.unstarted[k];
    if (pick.planned_time[m] > remaining) continue;
    const size_t t = static_cast<size_t>(zoo.model(m).task);
    if (best_model[t] == -1 ||
        zoo.model(m).accuracy > zoo.model(best_model[t]).accuracy) {
      best_model[t] = m;
    }
    weights[t] = item->task_weight[t];
    any = true;
  }
  if (!any) return -1;
  const int task = rng_.Categorical(weights);
  return best_model[static_cast<size_t>(task)];
}

void RuleBasedPolicy::OnExecuted(const core::ExecutionRecord& record,
                                 PolicyItem* item) {
  const zoo::LabelSpace& labels = item->zoo->labels();
  for (const zoo::LabelOutput& out : record.fresh) {
    for (size_t r = 0; r < rules_.size(); ++r) {
      if (item->fired[r] || !RuleTriggered(rules_[r], labels, out.label_id)) {
        continue;
      }
      item->fired[r] = true;
      item->task_weight[static_cast<size_t>(rules_[r].target_task)] *=
          rules_[r].factor;
    }
  }
}

}  // namespace ams::sched
