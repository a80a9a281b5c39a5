#ifndef AMS_CORE_PREDICTOR_H_
#define AMS_CORE_PREDICTOR_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

namespace ams::core {

/// Maps a predicted Q value to the positive profit used in the cost ratios
/// of Algorithms 1 and 2 (Q/time, Q/mem, Q/(time*mem)).
///
/// Two corrections are folded into one strictly increasing transform:
///  1. Positivity. Trained Q values are legitimately negative for models
///     expected to yield nothing (the Eq. 3 punishment). A raw negative
///     numerator would *favour* expensive models (negative over a big cost
///     is "less bad"), and a hard floor would erase the ordering among
///     negative predictions. softplus(3q)/3 is positive and order-preserving.
///  2. Decompression. The Eq. 3 reward is ln(sum_conf + 1), so Q estimates
///     live on a log scale; a ratio of log-values under-weights expensive
///     many-label models exactly where the value concentrates (keypoint
///     tasks). expm1 inverts the log so the ratio compares (approximately)
///     confidence mass per unit cost, which is what the knapsack greedy of
///     Algorithm 1/2 assumes.
inline double SchedulingProfit(double q) {
  const double x = 3.0 * std::min(q, 10.0);
  const double softplus = std::log1p(std::exp(x)) / 3.0;
  return std::expm1(softplus);
}

/// Interface of the model-value prediction component (§IV): maps the binary
/// labeling state to the predicted value (Q-value) of every action.
///
/// Implementations return `num_models + 1` entries; the last entry is the
/// END action's value. The DRL agent in src/rl implements this; tests use
/// deterministic fakes.
class ModelValuePredictor {
 public:
  virtual ~ModelValuePredictor() = default;

  /// Predicted action values given state features (size = label count).
  virtual std::vector<double> PredictValues(
      const std::vector<float>& state_features) = 0;

  /// Predicted action values for a batch of `count` states, written
  /// row-major into a caller-sized raw buffer (typically util::Arena
  /// storage): row i occupies out[i * num_actions(), (i+1) * num_actions()).
  /// States are passed by pointer so callers batching live per-item feature
  /// vectors do not copy them just to build the argument.
  ///
  /// `set_indices` may be null (no hint for any row) or point at `count`
  /// entries parallel to `states`: a non-null set_indices[i] lists the
  /// nonzero positions of states[i] in ascending order
  /// (LabelingState::SetIndices), letting sparse-aware backends skip the
  /// dense feature scan. Indices are an optimization hint only — rows must
  /// be bitwise identical with and without them. Every core::DecisionPlane
  /// forward, batched or single-row, goes through this entry.
  ///
  /// The default loops the scalar path; implementations backed by a batched
  /// forward pass (rl::Agent) override it with a single zero-allocation
  /// pass whose rows are bitwise identical to the scalar results.
  virtual void PredictValuesBatchTo(
      const std::vector<float>* const* states,
      const std::vector<int>* const* set_indices, size_t count, double* out) {
    (void)set_indices;
    const size_t stride = static_cast<size_t>(num_actions());
    for (size_t i = 0; i < count; ++i) {
      const std::vector<double> row = PredictValues(*states[i]);
      std::copy(row.begin(), row.end(), out + i * stride);
    }
  }

  virtual int num_actions() const = 0;

  /// Observability descriptor of the inference backend, surfaced as an arg
  /// on kForward trace spans. `simd_tier` is the numeric nn::simd::Tier the
  /// kernels dispatch to (-1 when the backend is not nn-based or unknown,
  /// the default).
  struct BackendInfo {
    int simd_tier = -1;
  };
  virtual BackendInfo backend_info() const { return BackendInfo(); }

  /// Independent copy for concurrent use, or nullptr when the predictor
  /// cannot be cloned. Stateful predictors (rl::Agent caches activations)
  /// must implement this to be fanned out by LabelingService; predictors
  /// returning nullptr are shared across workers and must be thread-safe.
  virtual std::unique_ptr<ModelValuePredictor> ClonePredictor() const {
    return nullptr;
  }

  /// Updates this predictor's parameters in place from `source` (a
  /// same-architecture original this one was cloned from). Lets clone pools
  /// track a live source cheaply — rl::Agent copies raw weights instead of
  /// re-cloning through the checkpoint format. Returns false when
  /// unsupported; callers then rebuild the clone to pick up changes.
  virtual bool SyncWeightsFrom(ModelValuePredictor* source) {
    (void)source;
    return false;
  }
};

}  // namespace ams::core

#endif  // AMS_CORE_PREDICTOR_H_
