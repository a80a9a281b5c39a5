#ifndef AMS_ZOO_MODEL_ZOO_H_
#define AMS_ZOO_MODEL_ZOO_H_

#include <cstddef>
#include <vector>

#include "zoo/label_space.h"
#include "zoo/latent_scene.h"
#include "zoo/model_spec.h"

namespace ams::zoo {

/// One emitted label with the model's confidence in it.
struct LabelOutput {
  int label_id;
  double confidence;
};

/// A read-only view of consecutive LabelOutputs: a pointer and a size, as
/// the oracle stores outputs and execution contexts serve them. It owns
/// nothing; whatever it was built from must outlive it. Built implicitly
/// from a vector, so vectors pass wherever a view is taken.
class LabelOutputView {
 public:
  LabelOutputView() = default;
  LabelOutputView(const LabelOutput* data, size_t size)
      : data_(data), size_(size) {}
  LabelOutputView(const std::vector<LabelOutput>& outputs)
      : data_(outputs.data()), size_(outputs.size()) {}

  const LabelOutput* begin() const { return data_; }
  const LabelOutput* end() const { return data_ + size_; }
  const LabelOutput& operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  const LabelOutput* data_ = nullptr;
  size_t size_ = 0;
};

/// Confidence at or above which a label counts as "valuable"
/// (high-confidence). ExecuteInto drops every output below it, so the zoo
/// is the one place that applies it.
inline constexpr double kValuableConfidence = 0.5;

/// The deployed collection of 30 models (3 tiers x 10 tasks, Table I).
///
/// Execute() is a pure function of (scene, model): repeated calls return the
/// identical output, which is what lets the Oracle precompute ground truth
/// exactly as the paper does (§VI-A).
class ModelZoo {
 public:
  /// Builds the default 30-model zoo calibrated so that executing all models
  /// costs ~5.17 s per item (the paper's "no policy" 5.16 s, §II), with
  /// per-model times in 50-400 ms and memory in 500-8000 MB (Table III).
  static ModelZoo CreateDefault();

  const LabelSpace& labels() const { return labels_; }
  const std::vector<ModelSpec>& models() const { return models_; }
  int num_models() const { return static_cast<int>(models_.size()); }
  const ModelSpec& model(int id) const;
  /// Mean execution time per model (models()[m].time_s), as one contiguous
  /// row: the planned-time table live scheduling reads on every pick.
  const std::vector<double>& mean_times() const { return mean_times_; }
  /// Memory footprint per model (models()[m].mem_mb), as one contiguous
  /// row: the memory table every parallel pick reads.
  const std::vector<double>& mem_mbs() const { return mem_mbs_; }

  /// Model ids belonging to `task`, ordered small -> large tier.
  std::vector<int> ModelsForTask(TaskKind task) const;

  /// Simulated inference: the scene's valuable (label, confidence) pairs,
  /// each at or above kValuableConfidence, in the order the model emitted
  /// them. Detections the model makes with lower confidence are dropped, so
  /// an empty result covers both kinds of waste the paper's Fig. 1 shows: no
  /// output and only low-confidence output.
  std::vector<LabelOutput> Execute(int model_id, const LatentScene& scene) const;
  /// Execute's outputs appended to `dest`, so a caller that keeps one
  /// buffer (the oracle build, a live execution context) allocates only as
  /// it grows. Only the appended range is filtered; what `dest` held stays.
  void ExecuteInto(int model_id, const LatentScene& scene,
                   std::vector<LabelOutput>* dest) const;

  /// Sum of all model mean times (the "no policy" per-item cost).
  double TotalTimeSeconds() const;

  /// Sets the priority parameter θ_m used by the reward (Eq. 3).
  void SetTheta(int model_id, double theta);

  /// Draws a jittered execution time for one run of `model_id` (lognormal
  /// around the spec's mean, ±~10%). Deterministic in (scene seed, model).
  double SampleExecutionTime(int model_id, const LatentScene& scene) const;

 private:
  ModelZoo() = default;

  LabelSpace labels_;
  std::vector<ModelSpec> models_;
  std::vector<double> mean_times_;  // parallel to models_
  std::vector<double> mem_mbs_;     // parallel to models_
};

}  // namespace ams::zoo

#endif  // AMS_ZOO_MODEL_ZOO_H_
