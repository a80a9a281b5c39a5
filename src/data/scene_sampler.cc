#include "data/scene_sampler.h"

#include <algorithm>

#include "util/check.h"
#include "zoo/task.h"

namespace ams::data {

namespace {

using zoo::TaskKind;

constexpr int kNumScenes = 365;
constexpr int kNumObjects = 80;
constexpr int kNumActions = 400;
constexpr int kNumBreeds = 120;
constexpr int kPreferredPerScene = 6;
constexpr int kPreferredActionsPerScene = 4;

// Scene-category weights: Zipf skew permuted per profile (different corpora
// favour different scenes), then re-weighted by the profile's indoor bias.
std::vector<double> BuildSceneWeights(const DatasetProfile& profile,
                                      const zoo::LabelSpace& labels) {
  std::vector<double> zipf = util::ZipfWeights(kNumScenes, profile.scene_zipf_s);
  // Deterministic permutation from the profile seed.
  std::vector<int> perm(kNumScenes);
  for (int i = 0; i < kNumScenes; ++i) perm[i] = i;
  util::Rng rng(profile.profile_seed * 7919 + 13);
  rng.Shuffle(&perm);
  std::vector<double> weights(kNumScenes);
  for (int i = 0; i < kNumScenes; ++i) weights[perm[i]] = zipf[i];
  double indoor_mass = 0.0, total = 0.0;
  for (int i = 0; i < kNumScenes; ++i) {
    total += weights[i];
    if (labels.IsIndoorScene(i)) indoor_mass += weights[i];
  }
  const double indoor_scale =
      profile.indoor_bias * total / std::max(indoor_mass, 1e-9);
  const double outdoor_scale = (1.0 - profile.indoor_bias) * total /
                               std::max(total - indoor_mass, 1e-9);
  for (int i = 0; i < kNumScenes; ++i) {
    weights[i] *= labels.IsIndoorScene(i) ? indoor_scale : outdoor_scale;
  }
  return weights;
}

}  // namespace

SceneSampler::SceneSampler(const DatasetProfile& profile,
                           const zoo::LabelSpace* labels)
    : profile_(profile), labels_(labels) {
  AMS_CHECK(labels != nullptr);
  scene_dist_ =
      util::DiscreteDistribution(BuildSceneWeights(profile, *labels));

  {
    std::vector<double> breed = util::ZipfWeights(kNumBreeds, 0.9);
    std::vector<int> perm(kNumBreeds);
    for (int i = 0; i < kNumBreeds; ++i) perm[i] = i;
    util::Rng rng(profile.profile_seed * 104729 + 7);
    rng.Shuffle(&perm);
    std::vector<double> w(kNumBreeds);
    for (int i = 0; i < kNumBreeds; ++i) w[perm[i]] = breed[i];
    breed_dist_ = util::DiscreteDistribution(w);
  }

  // Emotions: happy/neutral dominate photographs.
  emotion_dist_ = util::DiscreteDistribution(
      {0.06, 0.03, 0.04, 0.42, 0.08, 0.09, 0.28});

  // Scene -> preferred objects/actions. Derived from the scene id only (not
  // the profile seed): the semantic structure of the world is shared across
  // corpora, which is exactly what makes agent knowledge transferable
  // (§VI-D). Indoor scenes prefer household categories (ids 17..39), outdoor
  // scenes prefer vehicles/animals (ids 1..16).
  scene_objects_.resize(kNumScenes);
  scene_actions_.resize(kNumScenes);
  for (int s = 0; s < kNumScenes; ++s) {
    util::Rng rng(util::HashCombine(0xC0FFEEu, static_cast<uint64_t>(s)));
    const bool indoor = labels_->IsIndoorScene(s);
    const int lo = indoor ? 17 : 1;
    const int hi = indoor ? 39 : 16;
    std::vector<int>& objs = scene_objects_[s];
    while (static_cast<int>(objs.size()) < kPreferredPerScene) {
      int cand = rng.UniformInt(lo, hi);
      // A couple of slots may come from the full range for variety.
      if (objs.size() >= 4) cand = rng.UniformInt(1, kNumObjects - 1);
      if (std::find(objs.begin(), objs.end(), cand) == objs.end()) {
        objs.push_back(cand);
      }
    }
    std::vector<int>& acts = scene_actions_[s];
    while (static_cast<int>(acts.size()) < kPreferredActionsPerScene) {
      const int cand = rng.UniformInt(0, kNumActions - 1);
      if (std::find(acts.begin(), acts.end(), cand) == acts.end()) {
        acts.push_back(cand);
      }
    }
  }
}

const std::vector<int>& SceneSampler::PreferredObjects(int scene_id) const {
  AMS_CHECK(scene_id >= 0 && scene_id < kNumScenes);
  return scene_objects_[static_cast<size_t>(scene_id)];
}

zoo::LatentScene SceneSampler::Sample(util::Rng* rng, uint64_t item_seed) const {
  zoo::LatentScene scene;
  scene.item_seed = item_seed;
  scene.scene_id = scene_dist_.Sample(rng);
  scene.indoor = labels_->IsIndoorScene(scene.scene_id);
  scene.scene_clarity = rng->Uniform(profile_.clarity_lo, profile_.clarity_hi);

  // Persons and their attributes.
  if (rng->Bernoulli(profile_.p_person)) {
    int count = 1;
    while (count < 4 && rng->Bernoulli(profile_.extra_person_rate)) ++count;
    for (int i = 0; i < count; ++i) {
      zoo::PersonInstance person;
      person.pose_visibility = rng->Uniform(profile_.vis_lo, profile_.vis_hi);
      person.face_visible = rng->Bernoulli(profile_.p_face_given_person);
      if (person.face_visible) {
        person.face_quality = rng->Uniform(0.35, 1.0);
        person.emotion = emotion_dist_.Sample(rng);
        person.gender = rng->Bernoulli(0.5) ? 1 : 0;
      }
      person.hands_visible = rng->Bernoulli(profile_.p_hands_given_person);
      scene.persons.push_back(person);
    }
    // Action: mostly one of the scene's preferred actions; this is the
    // place<->action correlation the agent mines ("pub" -> drinking).
    if (rng->Bernoulli(profile_.p_action_given_person)) {
      const auto& preferred = scene_actions_[scene.scene_id];
      scene.action_id = rng->Bernoulli(0.75)
                            ? preferred[static_cast<size_t>(rng->UniformInt(
                                  0, static_cast<int>(preferred.size()) - 1))]
                            : rng->UniformInt(0, kNumActions - 1);
      scene.action_clarity = rng->Uniform(0.4, 1.0);
      // Manipulation-style actions expose hands more often.
      if (scene.action_id % 3 == 0) {
        for (auto& p : scene.persons) {
          if (!p.hands_visible && rng->Bernoulli(0.5)) p.hands_visible = true;
        }
      }
    }
  }

  // Dog (outdoor scenes are dog-friendlier).
  const double p_dog =
      profile_.p_dog * (scene.indoor ? 0.6 : 1.4);
  if (rng->Bernoulli(std::min(1.0, p_dog))) {
    scene.has_dog = true;
    scene.dog_breed = breed_dist_.Sample(rng);
    scene.dog_visibility = rng->Uniform(0.4, 1.0);
  }

  // Objects: person/dog categories when present, plus scene-preferred
  // categories (the place<->object correlation), plus occasional misc.
  auto add_object = [&](int category, double visibility) {
    if (std::find(scene.objects.begin(), scene.objects.end(), category) !=
        scene.objects.end()) {
      return;
    }
    scene.objects.push_back(category);
    scene.object_visibility.push_back(visibility);
  };
  if (scene.has_person()) {
    add_object(zoo::LabelSpace::kObjectPerson,
               rng->Uniform(profile_.vis_lo, profile_.vis_hi));
  }
  if (scene.has_dog && rng->Bernoulli(0.9)) {
    add_object(zoo::LabelSpace::kObjectDog, scene.dog_visibility);
  }
  const auto& preferred = scene_objects_[scene.scene_id];
  int extra = 0;
  // Poisson-ish: keep adding with decaying probability.
  double keep = profile_.object_rate / (profile_.object_rate + 1.0);
  while (extra < 6 && rng->Bernoulli(keep)) ++extra;
  for (int i = 0; i < extra; ++i) {
    const int category =
        rng->Bernoulli(0.7)
            ? preferred[static_cast<size_t>(
                  rng->UniformInt(0, static_cast<int>(preferred.size()) - 1))]
            : rng->UniformInt(1, kNumObjects - 1);
    add_object(category, rng->Uniform(profile_.vis_lo, profile_.vis_hi));
  }
  return scene;
}

}  // namespace ams::data
