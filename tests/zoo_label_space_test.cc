// Unit tests of the Table-I label space: sizes, id mapping and naming.

#include <gtest/gtest.h>

#include <set>

#include "zoo/label_space.h"

namespace ams::zoo {
namespace {

class LabelSpaceTest : public ::testing::Test {
 protected:
  const LabelSpace space_ = LabelSpace::CreateDefault();
};

TEST_F(LabelSpaceTest, TotalIs1104) {
  EXPECT_EQ(space_.total_labels(), kTotalLabels);
  EXPECT_EQ(space_.total_labels(), 1104);
}

TEST_F(LabelSpaceTest, TaskLabelCountsMatchTableI) {
  EXPECT_EQ(space_.task(TaskKind::kObjectDetection).num_labels, 80);
  EXPECT_EQ(space_.task(TaskKind::kPlaceClassification).num_labels, 365);
  EXPECT_EQ(space_.task(TaskKind::kFaceDetection).num_labels, 1);
  EXPECT_EQ(space_.task(TaskKind::kFaceLandmark).num_labels, 70);
  EXPECT_EQ(space_.task(TaskKind::kPoseEstimation).num_labels, 17);
  EXPECT_EQ(space_.task(TaskKind::kEmotionClassification).num_labels, 7);
  EXPECT_EQ(space_.task(TaskKind::kGenderClassification).num_labels, 2);
  EXPECT_EQ(space_.task(TaskKind::kActionClassification).num_labels, 400);
  EXPECT_EQ(space_.task(TaskKind::kHandLandmark).num_labels, 42);
  EXPECT_EQ(space_.task(TaskKind::kDogClassification).num_labels, 120);
}

TEST_F(LabelSpaceTest, RangesAreContiguousAndDisjoint) {
  int next = 0;
  for (const TaskInfo& info : space_.tasks()) {
    EXPECT_EQ(info.first_label, next);
    next += info.num_labels;
  }
  EXPECT_EQ(next, space_.total_labels());
}

class LabelMappingTest : public ::testing::TestWithParam<int> {};

TEST_P(LabelMappingTest, IdMappingRoundTrips) {
  const LabelSpace space = LabelSpace::CreateDefault();
  const TaskKind task = static_cast<TaskKind>(GetParam());
  const TaskInfo& info = space.task(task);
  for (int offset : {0, info.num_labels / 2, info.num_labels - 1}) {
    const int id = space.LabelId(task, offset);
    EXPECT_EQ(space.TaskOfLabel(id), task);
    EXPECT_EQ(space.OffsetInTask(id), offset);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTasks, LabelMappingTest,
                         ::testing::Range(0, kNumTasks));

TEST_F(LabelSpaceTest, NamesAreNonEmptyAndUnique) {
  std::set<std::string> names;
  for (int id = 0; id < space_.total_labels(); ++id) {
    const std::string& name = space_.LabelName(id);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
  }
}

TEST_F(LabelSpaceTest, WellKnownOffsets) {
  EXPECT_EQ(space_.LabelName(
                space_.LabelId(TaskKind::kPoseEstimation,
                               LabelSpace::kPoseLeftWrist)),
            "pose:left_wrist");
  EXPECT_EQ(space_.LabelName(
                space_.LabelId(TaskKind::kPoseEstimation,
                               LabelSpace::kPoseRightWrist)),
            "pose:right_wrist");
  EXPECT_EQ(space_.LabelName(space_.LabelId(TaskKind::kFaceDetection, 0)),
            "face:face");
}

TEST_F(LabelSpaceTest, IndoorSceneFlagsConsistent) {
  EXPECT_TRUE(space_.IsIndoorScene(0));    // pub
  EXPECT_TRUE(space_.IsIndoorScene(3));    // bathroom
  EXPECT_FALSE(space_.IsIndoorScene(12));  // mountain
  EXPECT_FALSE(space_.IsIndoorScene(19));  // undersea
  int indoor = 0;
  const int scenes = space_.task(TaskKind::kPlaceClassification).num_labels;
  for (int s = 0; s < scenes; ++s) {
    if (space_.IsIndoorScene(s)) ++indoor;
  }
  EXPECT_GT(indoor, scenes / 3);
  EXPECT_LT(indoor, 2 * scenes / 3);
}

}  // namespace
}  // namespace ams::zoo
