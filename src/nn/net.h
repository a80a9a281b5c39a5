#ifndef AMS_NN_NET_H_
#define AMS_NN_NET_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/matrix.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace ams::nn {

/// Abstract Q-value network mapping a state batch to per-action values.
///
/// Forward() caches activations so that Backward() can compute gradients for
/// the same batch; a net instance is therefore NOT thread-safe. Clone() for
/// per-thread use or for target networks.
///
/// A net holds one copy of its weights until it trains: its layers create
/// their gradient buffers only when CollectParams hands them out or
/// Backward first writes them (DenseLayer). CopyWeightsFrom, NumParams,
/// Clone and inference create none.
class QValueNet {
 public:
  virtual ~QValueNet() = default;

  virtual int input_dim() const = 0;
  virtual int output_dim() const = 0;

  /// q becomes [batch, output_dim]; caches intermediates for Backward.
  virtual void Forward(const Matrix& x, Matrix* q) = 0;

  /// Computes parameter gradients for the cached batch given dL/dQ.
  virtual void Backward(const Matrix& grad_q) = 0;

  /// Every layer's weights and bias with their gradient buffers, in
  /// checkpoint order; creates the buffers a layer does not have yet.
  void CollectParams(std::vector<ParamGrad>* out);

  virtual void Save(util::BinaryWriter* w) const = 0;
  virtual bool Load(util::BinaryReader* r) = 0;

  /// A net of the same architecture holding a copy of this net's weights,
  /// bit for bit, and nothing else: no cached activations and no gradient
  /// buffers until the clone itself trains. The layers are built without a
  /// random draw and the weights copied into them.
  virtual std::unique_ptr<QValueNet> Clone() const = 0;

  /// Copies all weights from `src` (same architecture); used to sync target
  /// networks and pooled clones. Creates no gradient buffers on either net.
  void CopyWeightsFrom(QValueNet* src);

  /// Inference-only batched forward over `count` sparse state rows passed
  /// by pointer: q becomes [count, output_dim], bitwise identical to Forward
  /// on the stacked rows. Implementations skip the dense input build and the
  /// activation-caching copies that only Backward needs, and write the
  /// output layer into q itself, so this is the fast path for batched
  /// prediction and a warm call allocates nothing. Clobbers cached
  /// activations — do not call Backward for a batch forwarded this way.
  ///
  /// `indices` may be null or point at `count` entries parallel to `rows`:
  /// a non-null indices[i] lists the nonzero positions of rows[i] in
  /// ascending order, so the first layer skips the dense feature scan
  /// (DenseLayer::ForwardSparseRows).
  virtual void PredictBatch(const std::vector<float>* const* rows,
                            const std::vector<int>* const* indices,
                            size_t count, Matrix* q) = 0;

  /// Convenience single-state forward pass.
  std::vector<float> Predict1(const std::vector<float>& x);

  /// Total parameter count.
  size_t NumParams();

 private:
  /// Appends the net's dense layers in checkpoint order.
  virtual void CollectLayers(std::vector<DenseLayer*>* out) = 0;
};

/// Plain multilayer perceptron with ReLU hidden activations. The paper's
/// architecture is one 256-unit hidden layer: {input=1104, hidden={256},
/// output=31}.
struct MlpConfig {
  int input_dim = 0;
  std::vector<int> hidden_dims;
  int output_dim = 0;
};

class Mlp : public QValueNet {
 public:
  Mlp(const MlpConfig& config, uint64_t seed);

  int input_dim() const override { return config_.input_dim; }
  int output_dim() const override { return config_.output_dim; }

  void Forward(const Matrix& x, Matrix* q) override;
  void PredictBatch(const std::vector<float>* const* rows,
                    const std::vector<int>* const* indices, size_t count,
                    Matrix* q) override;
  void Backward(const Matrix& grad_q) override;
  void Save(util::BinaryWriter* w) const override;
  bool Load(util::BinaryReader* r) override;
  std::unique_ptr<QValueNet> Clone() const override;

 private:
  /// Zero weights, nothing drawn: what Clone and Load fill in.
  explicit Mlp(const MlpConfig& config);
  /// Builds the layers, drawing their weights from `rng` unless it is null.
  void BuildLayers(util::Rng* rng);
  void CollectLayers(std::vector<DenseLayer*>* out) override;

  MlpConfig config_;
  std::vector<DenseLayer> layers_;
  // Cached per-layer tensors from the last Forward.
  Matrix input_;
  std::vector<Matrix> pre_act_;   // layer outputs before ReLU
  std::vector<Matrix> post_act_;  // after ReLU (inputs to the next layer)
  // Separate scratch buffers for dL/d(post-activation) and
  // dL/d(pre-activation): layer backward reads one and writes the other, so
  // they must not alias.
  std::vector<Matrix> grad_post_;
  std::vector<Matrix> grad_pre_;
};

/// Dueling architecture (Wang et al. 2015): shared ReLU trunk, then a scalar
/// state-value head V and an advantage head A; Q = V + A - mean(A).
class DuelingMlp : public QValueNet {
 public:
  /// `config.hidden_dims` defines the shared trunk; the two heads are single
  /// dense layers on the trunk output.
  DuelingMlp(const MlpConfig& config, uint64_t seed);

  int input_dim() const override { return config_.input_dim; }
  int output_dim() const override { return config_.output_dim; }

  void Forward(const Matrix& x, Matrix* q) override;
  void PredictBatch(const std::vector<float>* const* rows,
                    const std::vector<int>* const* indices, size_t count,
                    Matrix* q) override;
  void Backward(const Matrix& grad_q) override;
  void Save(util::BinaryWriter* w) const override;
  bool Load(util::BinaryReader* r) override;
  std::unique_ptr<QValueNet> Clone() const override;

 private:
  /// Zero weights, nothing drawn: what Clone and Load fill in.
  explicit DuelingMlp(const MlpConfig& config);
  /// Builds the trunk and heads, drawing their weights from `rng` unless it
  /// is null.
  void BuildLayers(util::Rng* rng);
  void CollectLayers(std::vector<DenseLayer*>* out) override;
  /// Q = V + A - mean(A) per row, shared by Forward and PredictBatch.
  void CombineHeads(int batch, Matrix* q) const;

  MlpConfig config_;
  std::vector<DenseLayer> trunk_;
  std::unique_ptr<DenseLayer> value_head_;      // trunk_out -> 1
  std::unique_ptr<DenseLayer> advantage_head_;  // trunk_out -> output_dim
  // Cached tensors.
  Matrix input_;
  std::vector<Matrix> pre_act_;
  std::vector<Matrix> post_act_;
  Matrix value_out_;      // [batch, 1]
  Matrix advantage_out_;  // [batch, out]
  std::vector<Matrix> grad_post_;  // dL/d(post-activation), see Mlp
  std::vector<Matrix> grad_pre_;   // dL/d(pre-activation)
  Matrix grad_value_;
  Matrix grad_advantage_;
  Matrix grad_trunk_v_;
  Matrix grad_trunk_a_;
};

/// Architecture tags used in checkpoints.
enum class NetKind : int32_t {
  kMlp = 1,
  kDueling = 2,
};

/// Serializes kind + net so the counterpart LoadNet can reconstruct.
void SaveNet(const QValueNet& net, NetKind kind, util::BinaryWriter* w);

/// Reconstructs a net saved by SaveNet; returns nullptr on malformed input.
std::unique_ptr<QValueNet> LoadNet(util::BinaryReader* r, NetKind* kind_out);

}  // namespace ams::nn

#endif  // AMS_NN_NET_H_
