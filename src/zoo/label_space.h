#ifndef AMS_ZOO_LABEL_SPACE_H_
#define AMS_ZOO_LABEL_SPACE_H_

#include <string>
#include <vector>

#include "zoo/task.h"

namespace ams::zoo {

/// Metadata for one task's contiguous label-id range.
struct TaskInfo {
  TaskKind kind;
  std::string name;
  int first_label;  // inclusive
  int num_labels;
};

/// The global space of 1104 labels (Table I), with contiguous per-task id
/// ranges. Label ids are the indices of the DRL agent's binary state vector.
class LabelSpace {
 public:
  /// Empty space; assign from CreateDefault() before use.
  LabelSpace() = default;

  /// Builds the paper's 10-task / 1104-label space.
  static LabelSpace CreateDefault();

  int total_labels() const { return total_labels_; }

  const TaskInfo& task(TaskKind kind) const;
  const std::vector<TaskInfo>& tasks() const { return tasks_; }

  /// Global label id for the `offset`-th label of `task`.
  int LabelId(TaskKind task, int offset) const;

  /// Task owning a global label id.
  TaskKind TaskOfLabel(int label_id) const;

  /// Offset of a global label id within its task's range.
  int OffsetInTask(int label_id) const;

  const std::string& LabelName(int label_id) const;

  // Well-known offsets used by the rule engine, examples and tests.

  /// Offset of the "person" category within object detection.
  static constexpr int kObjectPerson = 0;
  /// Offset of the "dog" category within object detection.
  static constexpr int kObjectDog = 16;
  /// Pose-estimation offsets of the wrist keypoints (COCO keypoint order).
  static constexpr int kPoseLeftWrist = 9;
  static constexpr int kPoseRightWrist = 10;

  /// True if a Places365-style scene id denotes an indoor place.
  bool IsIndoorScene(int scene_offset) const;

 private:
  std::vector<TaskInfo> tasks_;
  std::vector<std::string> label_names_;
  std::vector<int> label_task_;  // label id -> task index
  std::vector<bool> scene_indoor_;
  int total_labels_ = 0;
};

}  // namespace ams::zoo

#endif  // AMS_ZOO_LABEL_SPACE_H_
