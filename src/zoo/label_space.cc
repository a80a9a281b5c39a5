#include "zoo/label_space.h"

#include <unordered_map>

#include "util/check.h"

namespace ams::zoo {

const char* TaskName(TaskKind task) {
  switch (task) {
    case TaskKind::kObjectDetection:
      return "Object Detection";
    case TaskKind::kPlaceClassification:
      return "Place Classification";
    case TaskKind::kFaceDetection:
      return "Face Detection";
    case TaskKind::kFaceLandmark:
      return "Face Landmark Localization";
    case TaskKind::kPoseEstimation:
      return "Pose Estimation";
    case TaskKind::kEmotionClassification:
      return "Emotion Classification";
    case TaskKind::kGenderClassification:
      return "Gender Classification";
    case TaskKind::kActionClassification:
      return "Action Classification";
    case TaskKind::kHandLandmark:
      return "Hand Landmark Localization";
    case TaskKind::kDogClassification:
      return "Dog Classification";
  }
  AMS_CHECK(false, "invalid task");
  return "";
}

namespace {

// A few well-known category names per task make rules, examples and bench
// output readable; the remaining labels get generated names. Offset 0 of
// object detection is always "person" and offset 16 is "dog" (see the
// kObjectPerson / kObjectDog constants).
const char* kObjectNames[] = {
    "person",  "bicycle", "car",    "motorbike", "bus",     "train",
    "truck",   "boat",    "bench",  "bird",      "cat",     "horse",
    "sheep",   "cow",     "bottle", "elephant",  "dog",     "chair",
    "sofa",    "cup",     "fork",   "knife",     "spoon",   "bowl",
    "banana",  "apple",   "pizza",  "cake",      "bed",     "table",
    "toilet",  "tv_monitor", "laptop", "mouse",  "keyboard", "phone",
    "book",    "clock",   "vase",   "scissors"};

// First 12 scene names are indoor, next 8 outdoor; the generated remainder
// alternates deterministically (even offsets indoor).
const char* kSceneNames[] = {"pub",      "beer_hall", "lobby",   "bathroom",
                             "mall",     "kitchen",   "office",  "bedroom",
                             "library",  "gym",       "bar",     "classroom",
                             "mountain", "beach",     "forest",  "street",
                             "lawn",     "harbor",    "desert",  "undersea"};
constexpr int kNumNamedScenes = 20;
constexpr int kNumNamedIndoorScenes = 12;

const char* kPoseKeypointNames[] = {
    "nose",           "left_eye",      "right_eye",  "left_ear",
    "right_ear",      "left_shoulder", "right_shoulder", "left_elbow",
    "right_elbow",    "left_wrist",    "right_wrist",    "left_hip",
    "right_hip",      "left_knee",     "right_knee",     "left_ankle",
    "right_ankle"};

const char* kEmotionNames[] = {"angry", "disgust", "fear",   "happy",
                               "sad",   "surprise", "neutral"};

const char* kActionNames[] = {"drinking_beer", "riding_bike", "making_up",
                              "falling_down",  "playing_soccer", "cooking",
                              "reading_book",  "walking_dog",  "swimming",
                              "dancing"};

const char* kDogBreedNames[] = {"akita",    "husky",  "poodle", "labrador",
                                "beagle",   "collie", "boxer",  "dalmatian"};

std::string PaddedIndex(int i) {
  std::string s = std::to_string(i);
  while (s.size() < 3) s.insert(s.begin(), '0');
  return s;
}

}  // namespace

LabelSpace LabelSpace::CreateDefault() {
  LabelSpace space;
  int next = 0;
  for (int t = 0; t < kNumTasks; ++t) {
    TaskInfo info;
    info.kind = static_cast<TaskKind>(t);
    info.name = TaskName(info.kind);
    info.first_label = next;
    info.num_labels = kTaskLabelCounts[t];
    next += info.num_labels;
    space.tasks_.push_back(std::move(info));
  }
  space.total_labels_ = next;
  AMS_CHECK(space.total_labels_ == kTotalLabels);

  space.label_names_.resize(static_cast<size_t>(next));
  space.label_task_.resize(static_cast<size_t>(next));
  for (const TaskInfo& info : space.tasks_) {
    for (int off = 0; off < info.num_labels; ++off) {
      const int id = info.first_label + off;
      space.label_task_[static_cast<size_t>(id)] = static_cast<int>(info.kind);
      std::string name;
      switch (info.kind) {
        case TaskKind::kObjectDetection:
          name = off < static_cast<int>(std::size(kObjectNames))
                     ? std::string("object:") + kObjectNames[off]
                     : "object:category_" + PaddedIndex(off);
          break;
        case TaskKind::kPlaceClassification:
          name = off < kNumNamedScenes
                     ? std::string("place:") + kSceneNames[off]
                     : "place:scene_" + PaddedIndex(off);
          break;
        case TaskKind::kFaceDetection:
          name = "face:face";
          break;
        case TaskKind::kFaceLandmark:
          name = "face_kp:kp_" + PaddedIndex(off);
          break;
        case TaskKind::kPoseEstimation:
          name = std::string("pose:") + kPoseKeypointNames[off];
          break;
        case TaskKind::kEmotionClassification:
          name = std::string("emotion:") + kEmotionNames[off];
          break;
        case TaskKind::kGenderClassification:
          name = off == 0 ? "gender:male" : "gender:female";
          break;
        case TaskKind::kActionClassification:
          name = off < static_cast<int>(std::size(kActionNames))
                     ? std::string("action:") + kActionNames[off]
                     : "action:act_" + PaddedIndex(off);
          break;
        case TaskKind::kHandLandmark:
          name = (off < 21 ? "hand_kp:left_" : "hand_kp:right_") +
                 PaddedIndex(off % 21);
          break;
        case TaskKind::kDogClassification:
          name = off < static_cast<int>(std::size(kDogBreedNames))
                     ? std::string("dog:") + kDogBreedNames[off]
                     : "dog:breed_" + PaddedIndex(off);
          break;
      }
      space.label_names_[static_cast<size_t>(id)] = std::move(name);
    }
  }

  const int num_scenes = kTaskLabelCounts[static_cast<int>(
      TaskKind::kPlaceClassification)];
  space.scene_indoor_.resize(static_cast<size_t>(num_scenes));
  for (int off = 0; off < num_scenes; ++off) {
    if (off < kNumNamedScenes) {
      space.scene_indoor_[static_cast<size_t>(off)] =
          off < kNumNamedIndoorScenes;
    } else {
      space.scene_indoor_[static_cast<size_t>(off)] = (off % 2) == 0;
    }
  }
  return space;
}

const TaskInfo& LabelSpace::task(TaskKind kind) const {
  return tasks_[static_cast<size_t>(kind)];
}

int LabelSpace::LabelId(TaskKind task_kind, int offset) const {
  const TaskInfo& info = task(task_kind);
  AMS_DCHECK(offset >= 0 && offset < info.num_labels, "label offset range");
  return info.first_label + offset;
}

TaskKind LabelSpace::TaskOfLabel(int label_id) const {
  AMS_DCHECK(label_id >= 0 && label_id < total_labels_);
  return static_cast<TaskKind>(label_task_[static_cast<size_t>(label_id)]);
}

int LabelSpace::OffsetInTask(int label_id) const {
  return label_id - task(TaskOfLabel(label_id)).first_label;
}

const std::string& LabelSpace::LabelName(int label_id) const {
  AMS_CHECK(label_id >= 0 && label_id < total_labels_);
  return label_names_[static_cast<size_t>(label_id)];
}

bool LabelSpace::IsIndoorScene(int scene_offset) const {
  AMS_CHECK(scene_offset >= 0 &&
            scene_offset < static_cast<int>(scene_indoor_.size()));
  return scene_indoor_[static_cast<size_t>(scene_offset)];
}

}  // namespace ams::zoo
