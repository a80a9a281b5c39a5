#include "zoo/model_zoo.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace ams::zoo {

namespace {

// Per-task mean execution times in milliseconds for the (small, medium,
// large) tiers. Chosen so every model lies in the paper's 50-400 ms band
// (Table III) and the 30-model total is ~5.17 s, matching the "no policy"
// cost of §II.
constexpr double kTimeMs[kNumTasks][kNumTiers] = {
    {80, 160, 320},   // object detection
    {65, 120, 205},   // place classification
    {65, 115, 200},   // face detection
    {75, 140, 250},   // face landmark localization
    {160, 280, 400},  // pose estimation
    {65, 105, 170},   // emotion classification
    {60, 95, 150},    // gender classification
    {150, 270, 400},  // action classification
    {110, 200, 350},  // hand landmark localization
    {70, 130, 215},   // dog classification
};

// Peak GPU memory in MB per task/tier, within Table III's 500-8000 MB band.
constexpr double kMemMb[kNumTasks][kNumTiers] = {
    {900, 1800, 3500},   // object detection
    {600, 1100, 2000},   // place classification
    {500, 900, 1600},    // face detection
    {700, 1300, 2400},   // face landmark localization
    {2500, 4500, 8000},  // pose estimation
    {500, 800, 1400},    // emotion classification
    {500, 750, 1200},    // gender classification
    {2000, 3600, 6500},  // action classification
    {1200, 2200, 4000},  // hand landmark localization
    {600, 1000, 1900},   // dog classification
};

// Base recognition quality per tier. With the confidence model below, this
// yields roughly P(valuable | aspect present) of ~0.25 / ~0.55 / ~0.9 for
// small / medium / large models — small models frequently emit only
// low-confidence output (the grey boxes of Fig. 1).
constexpr double kTierAccuracy[kNumTiers] = {0.55, 0.72, 0.90};

const char* kTierSuffix[kNumTiers] = {"s", "m", "l"};

const char* kTaskShortName[kNumTasks] = {
    "object_det", "place_cls", "face_det", "face_lm",  "pose_est",
    "emotion_cls", "gender_cls", "action_cls", "hand_lm", "dog_cls"};

// Deterministic per-(label, model) specialisation bias in [-0.09, 0.09]:
// real model families are systematically better at some categories than
// others (architecture/training-data bias), so which tier is best for a
// given label is a stable property of the zoo — content-predictable, hence
// learnable by the DRL agent — rather than per-image noise.
double TierLabelBias(int label_id, int model_id) {
  uint64_t h = util::HashCombine(0xB1A5u + label_id, model_id);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
  return (u - 0.5) * 0.18;
}

// Confidence of a detection given model accuracy and aspect visibility:
// conf = acc * (0.26 + 0.50 * visibility) + bias(label, model) + N(0, 0.06),
// clamped to [0.02, 0.99]. Calibrated so P(valuable | aspect present) is
// roughly 0.05 / 0.4 / 0.8 for the small / medium / large tiers at typical
// visibility, which reproduces the paper's "optimal policy costs ~22% of no
// policy" (§II).
double Confidence(double accuracy, double visibility, int label_id,
                  int model_id, util::Rng* rng) {
  double c = accuracy * (0.26 + 0.50 * visibility) +
             TierLabelBias(label_id, model_id) + rng->Normal(0.0, 0.06);
  return std::clamp(c, 0.02, 0.99);
}

}  // namespace

ModelZoo ModelZoo::CreateDefault() {
  ModelZoo zoo;
  zoo.labels_ = LabelSpace::CreateDefault();
  int id = 0;
  for (int t = 0; t < kNumTasks; ++t) {
    for (int tier = 0; tier < kNumTiers; ++tier) {
      ModelSpec spec;
      spec.id = id++;
      spec.task = static_cast<TaskKind>(t);
      spec.tier = static_cast<ModelTier>(tier);
      spec.name = std::string(kTaskShortName[t]) + "_" + kTierSuffix[tier];
      spec.time_s = kTimeMs[t][tier] / 1000.0;
      spec.mem_mb = kMemMb[t][tier];
      spec.accuracy = kTierAccuracy[tier];
      spec.theta = 1.0;
      zoo.mean_times_.push_back(spec.time_s);
      zoo.mem_mbs_.push_back(spec.mem_mb);
      zoo.models_.push_back(std::move(spec));
    }
  }
  return zoo;
}

const ModelSpec& ModelZoo::model(int id) const {
  AMS_CHECK(id >= 0 && id < num_models(), "model id out of range");
  return models_[static_cast<size_t>(id)];
}

std::vector<int> ModelZoo::ModelsForTask(TaskKind task) const {
  std::vector<int> out;
  for (const auto& spec : models_) {
    if (spec.task == task) out.push_back(spec.id);
  }
  return out;
}

double ModelZoo::TotalTimeSeconds() const {
  double total = 0.0;
  for (const auto& spec : models_) total += spec.time_s;
  return total;
}

void ModelZoo::SetTheta(int model_id, double theta) {
  AMS_CHECK(theta > 0.0, "theta must be positive");
  models_[static_cast<size_t>(model_id)].theta = theta;
}

double ModelZoo::SampleExecutionTime(int model_id, const LatentScene& scene) const {
  const ModelSpec& spec = model(model_id);
  util::Rng rng(util::HashCombine(scene.item_seed, 0xD1CEu + model_id));
  // Lognormal with sigma 0.10 around the mean: ~±10% per-item jitter.
  const double sigma = 0.10;
  const double mu = std::log(spec.time_s) - 0.5 * sigma * sigma;
  return rng.LogNormal(mu, sigma);
}

std::vector<LabelOutput> ModelZoo::Execute(int model_id,
                                           const LatentScene& scene) const {
  std::vector<LabelOutput> out;
  ExecuteInto(model_id, scene, &out);
  return out;
}

void ModelZoo::ExecuteInto(int model_id, const LatentScene& scene,
                           std::vector<LabelOutput>* dest) const {
  const ModelSpec& spec = model(model_id);
  // Independent deterministic noise stream per (item, model).
  util::Rng rng(util::HashCombine(scene.item_seed, 0xE0E0u + model_id));
  std::vector<LabelOutput>& out = *dest;
  const size_t begin = out.size();
  const double acc = spec.accuracy;

  switch (spec.task) {
    case TaskKind::kObjectDetection: {
      for (size_t i = 0; i < scene.objects.size(); ++i) {
        const double vis = scene.object_visibility[i];
        // Small models miss hard objects entirely rather than flagging them.
        if (rng.Bernoulli(0.25 * (1.0 - acc) * (1.0 - vis))) continue;
        const int label =
            labels_.LabelId(TaskKind::kObjectDetection, scene.objects[i]);
        out.push_back({label, Confidence(acc, vis, label, model_id, &rng)});
      }
      break;
    }
    case TaskKind::kPlaceClassification: {
      const int label =
          labels_.LabelId(TaskKind::kPlaceClassification, scene.scene_id);
      out.push_back(
          {label, Confidence(acc, scene.scene_clarity, label, model_id, &rng)});
      break;
    }
    case TaskKind::kFaceDetection: {
      double best_quality = 0.0;
      for (const auto& p : scene.persons) {
        if (p.face_visible) best_quality = std::max(best_quality, p.face_quality);
      }
      if (best_quality > 0.0) {
        const int label = labels_.LabelId(TaskKind::kFaceDetection, 0);
        out.push_back(
            {label, Confidence(acc, best_quality, label, model_id, &rng)});
      }
      break;
    }
    case TaskKind::kFaceLandmark: {
      double best_quality = 0.0;
      for (const auto& p : scene.persons) {
        if (p.face_visible) best_quality = std::max(best_quality, p.face_quality);
      }
      if (best_quality > 0.0) {
        // Number of localizable keypoints grows with face quality and tier.
        const int max_kp =
            kTaskLabelCounts[static_cast<int>(TaskKind::kFaceLandmark)];
        const int num_kp = static_cast<int>(
            max_kp * std::clamp(best_quality * (0.55 + 0.45 * acc), 0.0, 1.0));
        for (int k = 0; k < num_kp; ++k) {
          const int label = labels_.LabelId(TaskKind::kFaceLandmark, k);
          out.push_back(
              {label, Confidence(acc, best_quality, label, model_id, &rng)});
        }
      }
      break;
    }
    case TaskKind::kPoseEstimation: {
      double best_vis = 0.0;
      for (const auto& p : scene.persons) {
        best_vis = std::max(best_vis, p.pose_visibility);
      }
      if (best_vis > 0.05) {
        const int max_kp =
            kTaskLabelCounts[static_cast<int>(TaskKind::kPoseEstimation)];
        const int num_kp = static_cast<int>(
            max_kp * std::clamp(best_vis * (0.6 + 0.4 * acc), 0.0, 1.0));
        for (int k = 0; k < num_kp; ++k) {
          const int label = labels_.LabelId(TaskKind::kPoseEstimation, k);
          out.push_back(
              {label, Confidence(acc, best_vis, label, model_id, &rng)});
        }
      }
      break;
    }
    case TaskKind::kEmotionClassification: {
      for (const auto& p : scene.persons) {
        if (!p.face_visible) continue;
        const int label =
            labels_.LabelId(TaskKind::kEmotionClassification, p.emotion);
        out.push_back(
            {label, Confidence(acc, p.face_quality, label, model_id, &rng)});
        break;  // classify the most prominent face only
      }
      break;
    }
    case TaskKind::kGenderClassification: {
      for (const auto& p : scene.persons) {
        if (!p.face_visible) continue;
        const int label =
            labels_.LabelId(TaskKind::kGenderClassification, p.gender);
        out.push_back(
            {label, Confidence(acc, p.face_quality, label, model_id, &rng)});
        break;
      }
      break;
    }
    case TaskKind::kActionClassification: {
      if (scene.action_id >= 0 && scene.has_person()) {
        const int label =
            labels_.LabelId(TaskKind::kActionClassification, scene.action_id);
        out.push_back({label, Confidence(acc, scene.action_clarity, label,
                                         model_id, &rng)});
      }
      break;
    }
    case TaskKind::kHandLandmark: {
      double best = 0.0;
      for (const auto& p : scene.persons) {
        if (p.hands_visible) best = std::max(best, p.pose_visibility);
      }
      if (best > 0.05) {
        const int max_kp =
            kTaskLabelCounts[static_cast<int>(TaskKind::kHandLandmark)];
        const int num_kp = static_cast<int>(
            max_kp * std::clamp(best * (0.5 + 0.5 * acc), 0.0, 1.0));
        for (int k = 0; k < num_kp; ++k) {
          const int label = labels_.LabelId(TaskKind::kHandLandmark, k);
          out.push_back({label, Confidence(acc, best, label, model_id, &rng)});
        }
      }
      break;
    }
    case TaskKind::kDogClassification: {
      if (scene.has_dog) {
        const int label =
            labels_.LabelId(TaskKind::kDogClassification, scene.dog_breed);
        out.push_back({label, Confidence(acc, scene.dog_visibility, label,
                                         model_id, &rng)});
      }
      break;
    }
  }
  // Low-confidence detections are waste (Fig. 1): only valuable ones leave
  // the zoo.
  out.erase(std::remove_if(out.begin() + static_cast<long>(begin), out.end(),
                           [](const LabelOutput& o) {
                             return o.confidence < kValuableConfidence;
                           }),
            out.end());
}

}  // namespace ams::zoo
