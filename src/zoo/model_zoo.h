#ifndef AMS_ZOO_MODEL_ZOO_H_
#define AMS_ZOO_MODEL_ZOO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "zoo/label_space.h"
#include "zoo/latent_scene.h"
#include "zoo/model_spec.h"

namespace ams::zoo {

// Label ids are stored as uint16_t (LabelOutputColumns).
static_assert(kTotalLabels <= 65536, "label ids must fit in uint16_t");

/// One emitted label with the model's confidence in it.
struct LabelOutput {
  int label_id;
  double confidence;
};

/// A read-only view of consecutive outputs held as two columns, label ids
/// and confidences: the two pointers and a size, as the oracle stores
/// outputs and execution contexts serve them. Each element is read as a
/// LabelOutput value. It owns nothing; whatever it was built from must
/// outlive it. LabelOutputColumns convert to it implicitly, so they pass
/// wherever a view is taken.
class LabelOutputView {
 public:
  /// Yields the outputs as LabelOutput values (a range-for iterator).
  class Iterator {
   public:
    Iterator(const uint16_t* label, const double* confidence)
        : label_(label), confidence_(confidence) {}
    LabelOutput operator*() const { return {*label_, *confidence_}; }
    Iterator& operator++() {
      ++label_;
      ++confidence_;
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return label_ != other.label_;
    }

   private:
    const uint16_t* label_;
    const double* confidence_;
  };

  LabelOutputView() = default;
  LabelOutputView(const uint16_t* labels, const double* confidences,
                  size_t size)
      : labels_(labels), confidences_(confidences), size_(size) {}

  Iterator begin() const { return {labels_, confidences_}; }
  Iterator end() const { return {labels_ + size_, confidences_ + size_}; }
  LabelOutput operator[](size_t i) const {
    return {labels_[i], confidences_[i]};
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  const uint16_t* labels_ = nullptr;
  const double* confidences_ = nullptr;
  size_t size_ = 0;
};

/// Outputs as two columns, the zoo's one output format: label ids as
/// uint16_t and confidences as doubles, 10 bytes an output where a
/// LabelOutput takes 16 (4 of them padding). ModelZoo::ExecuteInto appends
/// to them; reads go through LabelOutputView.
class LabelOutputColumns {
 public:
  void push_back(const LabelOutput& out) {
    labels_.push_back(static_cast<uint16_t>(out.label_id));
    confidences_.push_back(out.confidence);
  }
  void clear() {
    labels_.clear();
    confidences_.clear();
  }

  /// The outputs [first, first + count).
  LabelOutputView Slice(size_t first, size_t count) const {
    return {labels_.data() + first, confidences_.data() + first, count};
  }
  operator LabelOutputView() const { return Slice(0, size()); }

  LabelOutputView::Iterator begin() const { return Slice(0, size()).begin(); }
  LabelOutputView::Iterator end() const { return Slice(0, size()).end(); }
  LabelOutput operator[](size_t i) const {
    return {labels_[i], confidences_[i]};
  }
  size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }

 private:
  std::vector<uint16_t> labels_;
  std::vector<double> confidences_;
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
  LabelOutputColumns Execute(int model_id, const LatentScene& scene) const;
  /// Execute's outputs appended to `dest`, so a caller that keeps one
  /// buffer (the oracle build, a live execution context) allocates only as
  /// it grows. Only the appended outputs are filtered; what `dest` held
  /// stays.
  void ExecuteInto(int model_id, const LatentScene& scene,
                   LabelOutputColumns* dest) const;

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
