#ifndef AMS_RL_AGENT_H_
#define AMS_RL_AGENT_H_

#include <memory>
#include <string>

#include "core/predictor.h"
#include "nn/net.h"

namespace ams::rl {

/// A trained DRL agent: a Q-value network plus checkpoint I/O. Implements
/// the framework's ModelValuePredictor interface (§IV).
///
/// Not thread-safe (the net caches activations); Clone() per thread.
class Agent : public core::ModelValuePredictor {
 public:
  Agent(std::unique_ptr<nn::QValueNet> net, nn::NetKind kind);

  std::vector<double> PredictValues(
      const std::vector<float>& state_features) override;

  /// One [n, input_dim] forward pass through the Q-network. Each row is
  /// bitwise identical to the scalar PredictValues result (the net's Gemm
  /// computes rows independently in the same operation order). Set-index
  /// lists, when provided, route the first layer through the sparse-row
  /// fast path. After warm-up (pointer scratch + net activation matrices at
  /// steady capacity) a call performs zero heap allocations, which is what
  /// lets an arena-fed DecisionPlane tick allocation-free.
  void PredictValuesBatchTo(const std::vector<float>* const* states,
                            const std::vector<int>* const* set_indices,
                            size_t count, double* out) override;

  int num_actions() const override { return net_->output_dim(); }
  int feature_dim() const { return net_->input_dim(); }

  /// Reports the runtime-dispatched SIMD tier (a kForward trace-span arg).
  BackendInfo backend_info() const override;

  nn::QValueNet* net() { return net_.get(); }
  nn::NetKind kind() const { return kind_; }

  /// Writes a checkpoint; crashes on I/O failure.
  void Save(const std::string& path) const;

  /// Loads a checkpoint written by Save(); nullptr if missing/corrupt.
  static std::unique_ptr<Agent> Load(const std::string& path);

  std::unique_ptr<Agent> Clone() const;

  std::unique_ptr<core::ModelValuePredictor> ClonePredictor() const override {
    return Clone();
  }

  /// Raw weight copy from a same-architecture agent (no checkpoint
  /// round-trip), so pooled clones can track a live source per batch.
  /// Returns false when the net kinds or the input/output widths differ.
  bool SyncWeightsFrom(core::ModelValuePredictor* source) override;

 private:
  std::unique_ptr<nn::QValueNet> net_;
  nn::NetKind kind_;
  /// Scratch for the batched forwards, reused across calls.
  nn::Matrix batch_q_;
  std::vector<const std::vector<float>*> batch_rows_;
  std::vector<const std::vector<int>*> batch_indices_;
};

}  // namespace ams::rl

#endif  // AMS_RL_AGENT_H_
