// Unit tests of the synthetic model zoo: Table-I / Table-III cost contracts,
// deterministic inference, tier semantics and content sensitivity.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "zoo/model_zoo.h"

namespace ams::zoo {
namespace {

class ModelZooTest : public ::testing::Test {
 protected:
  const ModelZoo zoo_ = ModelZoo::CreateDefault();

  static LatentScene PersonScene() {
    LatentScene scene;
    scene.item_seed = 1234;
    scene.scene_id = 0;
    scene.indoor = true;
    scene.scene_clarity = 0.9;
    PersonInstance person;
    person.face_visible = true;
    person.face_quality = 0.95;
    person.emotion = 3;
    person.gender = 1;
    person.hands_visible = true;
    person.pose_visibility = 0.95;
    scene.persons.push_back(person);
    scene.action_id = 1;
    scene.action_clarity = 0.9;
    scene.objects = {0, 19};
    scene.object_visibility = {0.9, 0.8};
    return scene;
  }

  static LatentScene EmptyScene() {
    LatentScene scene;
    scene.item_seed = 4321;
    scene.scene_id = 12;  // mountain
    scene.scene_clarity = 0.8;
    return scene;
  }
};

TEST_F(ModelZooTest, Has30ModelsThreePerTask) {
  EXPECT_EQ(zoo_.num_models(), 30);
  for (int t = 0; t < kNumTasks; ++t) {
    const auto models = zoo_.ModelsForTask(static_cast<TaskKind>(t));
    ASSERT_EQ(models.size(), 3u);
    // Tiers ordered small -> large with monotone cost and accuracy.
    for (size_t i = 1; i < models.size(); ++i) {
      EXPECT_GT(zoo_.model(models[i]).time_s, zoo_.model(models[i - 1]).time_s);
      EXPECT_GT(zoo_.model(models[i]).mem_mb, zoo_.model(models[i - 1]).mem_mb);
      EXPECT_GT(zoo_.model(models[i]).accuracy,
                zoo_.model(models[i - 1]).accuracy);
    }
  }
}

TEST_F(ModelZooTest, CostsWithinTableIIIBands) {
  for (const ModelSpec& spec : zoo_.models()) {
    EXPECT_GE(spec.time_s, 0.05) << spec.name;
    EXPECT_LE(spec.time_s, 0.40) << spec.name;
    EXPECT_GE(spec.mem_mb, 500.0) << spec.name;
    EXPECT_LE(spec.mem_mb, 8000.0) << spec.name;
  }
  // "No policy" total matches the paper's 5.16 s within a small tolerance.
  EXPECT_NEAR(zoo_.TotalTimeSeconds(), 5.16, 0.1);
}

TEST_F(ModelZooTest, ExecuteIsDeterministic) {
  const LatentScene scene = PersonScene();
  for (int m = 0; m < zoo_.num_models(); ++m) {
    const auto out1 = zoo_.Execute(m, scene);
    const auto out2 = zoo_.Execute(m, scene);
    ASSERT_EQ(out1.size(), out2.size());
    for (size_t i = 0; i < out1.size(); ++i) {
      EXPECT_EQ(out1[i].label_id, out2[i].label_id);
      EXPECT_DOUBLE_EQ(out1[i].confidence, out2[i].confidence);
    }
  }
}

TEST_F(ModelZooTest, DifferentSeedsGiveDifferentConfidences) {
  LatentScene a = PersonScene();
  LatentScene b = PersonScene();
  b.item_seed = 9999;
  const int place_model = zoo_.ModelsForTask(TaskKind::kPlaceClassification)[2];
  const auto out_a = zoo_.Execute(place_model, a);
  const auto out_b = zoo_.Execute(place_model, b);
  ASSERT_FALSE(out_a.empty());
  ASSERT_FALSE(out_b.empty());
  EXPECT_NE(out_a[0].confidence, out_b[0].confidence);
}

TEST_F(ModelZooTest, OutputsStayWithinTheModelsTaskRange) {
  const LatentScene scene = PersonScene();
  const LabelSpace& labels = zoo_.labels();
  for (int m = 0; m < zoo_.num_models(); ++m) {
    for (const LabelOutput out : zoo_.Execute(m, scene)) {
      EXPECT_EQ(labels.TaskOfLabel(out.label_id), zoo_.model(m).task)
          << zoo_.model(m).name;
      EXPECT_GT(out.confidence, 0.0);
      EXPECT_LT(out.confidence, 1.0);
    }
  }
}

TEST_F(ModelZooTest, PersonTasksSilentOnEmptyScenes) {
  const LatentScene scene = EmptyScene();
  for (const TaskKind task :
       {TaskKind::kFaceLandmark, TaskKind::kPoseEstimation,
        TaskKind::kEmotionClassification, TaskKind::kGenderClassification,
        TaskKind::kHandLandmark, TaskKind::kDogClassification}) {
    for (int m : zoo_.ModelsForTask(task)) {
      EXPECT_TRUE(zoo_.Execute(m, scene).empty())
          << zoo_.model(m).name << " hallucinated on an empty scene";
    }
  }
}

TEST_F(ModelZooTest, FalsePositivesNeverValuable) {
  // Action classifiers on person-free scenes occasionally draw spurious
  // labels; these stay below the valuable threshold, so none is emitted.
  for (uint64_t seed = 0; seed < 200; ++seed) {
    LatentScene scene = EmptyScene();
    scene.item_seed = seed;
    for (int m : zoo_.ModelsForTask(TaskKind::kActionClassification)) {
      EXPECT_TRUE(zoo_.Execute(m, scene).empty())
          << zoo_.model(m).name << " seed " << seed;
    }
  }
}

TEST_F(ModelZooTest, ExecuteKeepsOnlyValuableOutputs) {
  // The zoo is the one place that drops low-confidence outputs, so none
  // reaches the oracle, a live context or a labeling state bit. Small
  // models on these scenes draw many of them.
  size_t kept = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    for (LatentScene scene : {PersonScene(), EmptyScene()}) {
      scene.item_seed = seed;
      for (int m = 0; m < zoo_.num_models(); ++m) {
        for (const LabelOutput out : zoo_.Execute(m, scene)) {
          EXPECT_GE(out.confidence, kValuableConfidence)
              << zoo_.model(m).name << " seed " << seed;
          ++kept;
        }
      }
    }
  }
  EXPECT_GT(kept, 0u);
}

TEST_F(ModelZooTest, ExecuteIntoFiltersOnlyWhatItAppends) {
  // The oracle build appends many (item, model) pairs to one buffer: a
  // call leaves what the buffer already held, low confidence included.
  const LatentScene scene = PersonScene();
  for (int m = 0; m < zoo_.num_models(); ++m) {
    LabelOutputColumns buffer;
    buffer.push_back({7, 0.1});
    buffer.push_back({8, 0.9});
    zoo_.ExecuteInto(m, scene, &buffer);
    const LabelOutputColumns alone = zoo_.Execute(m, scene);
    ASSERT_EQ(buffer.size(), 2 + alone.size()) << zoo_.model(m).name;
    const LabelOutput first = buffer[0];
    EXPECT_EQ(first.label_id, 7);
    EXPECT_EQ(first.confidence, 0.1);
    EXPECT_EQ(buffer[1].label_id, 8);
    for (size_t i = 0; i < alone.size(); ++i) {
      const LabelOutput appended = buffer[2 + i];
      const LabelOutput own = alone[i];
      EXPECT_EQ(appended.label_id, own.label_id);
      EXPECT_EQ(appended.confidence, own.confidence);
    }
  }
}

TEST_F(ModelZooTest, OutputCountsStayWithinTheOffsetBound) {
  // The oracle indexes a block's outputs with uint16_t offsets. That rests
  // on this bound: no model emits a label twice, the six single-label tasks
  // emit at most one output and no model emits more outputs than its task
  // has labels, so an item holds at most 3 x (80 + 70 + 17 + 42 + 6) = 645.
  const auto single_label = [](TaskKind task) {
    return task != TaskKind::kObjectDetection &&
           task != TaskKind::kFaceLandmark &&
           task != TaskKind::kPoseEstimation && task != TaskKind::kHandLandmark;
  };
  int bound = 0;
  for (int t = 0; t < kNumTasks; ++t) {
    bound += kNumTiers *
             (single_label(static_cast<TaskKind>(t)) ? 1 : kTaskLabelCounts[t]);
  }
  EXPECT_EQ(bound, 645);
  EXPECT_LE(data::Oracle::kBuildBlockItems * bound, 65535);

  std::vector<data::DatasetProfile> profiles =
      data::DatasetProfile::AllProfiles();
  profiles.push_back(data::DatasetProfile::DogsOnly());
  profiles.push_back(data::DatasetProfile::ActionsOnly());
  ASSERT_EQ(profiles.size(), 7u);
  std::vector<bool> emitted(static_cast<size_t>(zoo_.labels().total_labels()));
  size_t most = 0;
  for (const data::DatasetProfile& profile : profiles) {
    const data::Dataset dataset =
        data::Dataset::Generate(profile, zoo_.labels(), 1000, 31);
    for (const data::DataItem& item : dataset.items()) {
      size_t item_outputs = 0;
      for (int m = 0; m < zoo_.num_models(); ++m) {
        const TaskKind task = zoo_.model(m).task;
        const LabelOutputColumns outputs = zoo_.Execute(m, item.scene);
        for (const LabelOutput out : outputs) {
          EXPECT_FALSE(emitted[static_cast<size_t>(out.label_id)])
              << zoo_.model(m).name << " emitted label " << out.label_id
              << " twice on a " << profile.name << " scene";
          emitted[static_cast<size_t>(out.label_id)] = true;
        }
        for (const LabelOutput out : outputs) {
          emitted[static_cast<size_t>(out.label_id)] = false;
        }
        EXPECT_LE(outputs.size(), static_cast<size_t>(
                                      kTaskLabelCounts[static_cast<int>(task)]))
            << zoo_.model(m).name;
        if (single_label(task)) {
          EXPECT_LE(outputs.size(), 1u) << zoo_.model(m).name;
        }
        item_outputs += outputs.size();
      }
      EXPECT_LE(item_outputs, static_cast<size_t>(bound)) << profile.name;
      most = std::max(most, item_outputs);
    }
  }
  EXPECT_GT(most, 0u);
}

TEST_F(ModelZooTest, HigherTierIsValuableMoreOften) {
  int valuable[3] = {0, 0, 0};
  const auto place_models = zoo_.ModelsForTask(TaskKind::kPlaceClassification);
  for (uint64_t seed = 0; seed < 400; ++seed) {
    LatentScene scene = EmptyScene();
    scene.item_seed = seed * 31 + 7;
    scene.scene_clarity = 0.6;
    for (int tier = 0; tier < 3; ++tier) {
      for (const LabelOutput out : zoo_.Execute(place_models[tier], scene)) {
        if (out.confidence >= kValuableConfidence &&
            zoo_.labels().OffsetInTask(out.label_id) == scene.scene_id) {
          ++valuable[tier];
        }
      }
    }
  }
  EXPECT_LT(valuable[0], valuable[1]);
  EXPECT_LT(valuable[1], valuable[2]);
}

TEST_F(ModelZooTest, SetThetaChangesSpec) {
  ModelZoo zoo = ModelZoo::CreateDefault();
  EXPECT_DOUBLE_EQ(zoo.model(5).theta, 1.0);
  zoo.SetTheta(5, 10.0);
  EXPECT_DOUBLE_EQ(zoo.model(5).theta, 10.0);
}

TEST_F(ModelZooTest, ExecutionTimeJittersAroundSpecMean) {
  const LatentScene scene = PersonScene();
  for (int m = 0; m < zoo_.num_models(); ++m) {
    const double t = zoo_.SampleExecutionTime(m, scene);
    EXPECT_GT(t, zoo_.model(m).time_s * 0.6) << zoo_.model(m).name;
    EXPECT_LT(t, zoo_.model(m).time_s * 1.6) << zoo_.model(m).name;
    EXPECT_DOUBLE_EQ(t, zoo_.SampleExecutionTime(m, scene)) << "deterministic";
  }
}

TEST_F(ModelZooTest, ModelNamesUnique) {
  std::set<std::string> names;
  for (const ModelSpec& spec : zoo_.models()) {
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
  }
}

}  // namespace
}  // namespace ams::zoo
