#ifndef AMS_DATA_SCENE_SAMPLER_H_
#define AMS_DATA_SCENE_SAMPLER_H_

#include <vector>

#include "data/dataset_profile.h"
#include "util/rng.h"
#include "zoo/label_space.h"
#include "zoo/latent_scene.h"

namespace ams::data {

/// Generates latent scenes for one dataset profile.
///
/// The sampler encodes the semantic correlations the DRL agent is supposed to
/// mine (§III-B): every scene category has a deterministic set of preferred
/// object categories and preferred actions (e.g., our "pub"-like scenes favour
/// cup/tv_monitor objects and drinking-style actions), persons imply faces
/// and actions, faces imply emotions/genders, manipulation actions imply
/// visible hands, and dogs imply the dog object category.
class SceneSampler {
 public:
  SceneSampler(const DatasetProfile& profile, const zoo::LabelSpace* labels);

  /// Samples one scene; `item_seed` must be unique per item (drives the
  /// deterministic execution noise downstream).
  zoo::LatentScene Sample(util::Rng* rng, uint64_t item_seed) const;

  const DatasetProfile& profile() const { return profile_; }

  /// Preferred object categories for a scene id (exposed for tests).
  const std::vector<int>& PreferredObjects(int scene_id) const;

 private:
  DatasetProfile profile_;
  const zoo::LabelSpace* labels_;

  util::DiscreteDistribution scene_dist_;
  util::DiscreteDistribution breed_dist_;
  util::DiscreteDistribution emotion_dist_;
  // Per-scene preference tables (deterministic in scene id, shared across
  // all profiles so cross-dataset transfer can exploit them).
  std::vector<std::vector<int>> scene_objects_;
  std::vector<std::vector<int>> scene_actions_;
};

}  // namespace ams::data

#endif  // AMS_DATA_SCENE_SAMPLER_H_
