#ifndef AMS_NN_LAYER_H_
#define AMS_NN_LAYER_H_

#include <cstddef>
#include <vector>

#include "nn/matrix.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace ams::nn {

/// View over one parameter tensor and its gradient, consumed by optimizers.
struct ParamGrad {
  float* param;
  float* grad;
  size_t size;
};

/// Fully connected layer y = x*W + b.
///
/// A layer that has not trained holds its weights and bias and nothing
/// else. Its gradient buffers dW and db, each as large as the tensor it
/// belongs to, are created the first time training needs them: when
/// CollectParams hands them out or when Backward first writes them. Once
/// created they are never reallocated, so the ParamGrad pointers a trainer
/// collected stay valid across Backward calls. Backward() overwrites dW/db
/// for the most recent Forward() batch; the trainer calls optimizer.Step()
/// before the next Backward().
class DenseLayer {
 public:
  /// He-normal initialization: W ~ N(0, 2/in_dim), b = 0. With a null
  /// `rng`, W = 0 and nothing is drawn: the shape a clone or a checkpoint
  /// load then fills in.
  DenseLayer(int in_dim, int out_dim, util::Rng* rng);

  /// y = x*W + b. x is [batch, in_dim]; y becomes [batch, out_dim]. Gemm
  /// (the row-gather kernel over each row's nonzeros), then AddRowVector.
  void Forward(const Matrix& x, Matrix* y) const;

  /// Forward for a batch of sparse rows passed by pointer, skipping the
  /// dense input-matrix build entirely (the scheduling states feeding the
  /// Q-net are near-empty binary vectors, so materializing them dominates
  /// the actual math). Each row is one SparseRowProduct (the row-gather
  /// kernel over the row's nonzero inputs), then AddRowVector adds the
  /// bias, as in Forward. Bitwise identical to Forward on the stacked rows:
  /// each output element starts at +0, adds v*w for the nonzero inputs in
  /// ascending kk order, then adds the bias.
  ///
  /// `rows` points at `count` rows. `indices` may be null (every row is
  /// scanned densely) or point at `count` entries parallel to `rows`; a
  /// non-null indices[i] lists the nonzero positions of rows[i] in
  /// ascending order (LabelingState::SetIndices), letting that row skip the
  /// dense zero scan entirely while keeping the same accumulation order.
  void ForwardSparseRows(const std::vector<float>* const* rows,
                         const std::vector<int>* const* indices, size_t count,
                         Matrix* y) const;

  /// Given the input batch `x` used in Forward and dL/dy, computes dW, db and
  /// (if grad_x != nullptr) dL/dx.
  void Backward(const Matrix& x, const Matrix& grad_y, Matrix* grad_x);

  /// Appends W and b, each with its gradient buffer (created here, zeroed,
  /// if this layer has none yet).
  void CollectParams(std::vector<ParamGrad>* out);

  /// Copies W and b from a layer of the same shape; creates no gradient
  /// buffers.
  void CopyWeightsFrom(const DenseLayer& src);

  void Save(util::BinaryWriter* w) const;
  /// Reads weights saved from a layer of this layer's shape straight into
  /// W and b. Returns false on malformed input, including stored dims or
  /// declared lengths other than this layer's: nets build their layers
  /// from the checkpoint header first, so a layer that disagrees with the
  /// header is corrupt. After a failed load the weights are unspecified.
  bool Load(util::BinaryReader* r);

  int in_dim() const { return w_.rows(); }
  int out_dim() const { return w_.cols(); }

  Matrix& weights() { return w_; }
  std::vector<float>& bias() { return b_; }
  const Matrix& weights() const { return w_; }
  const std::vector<float>& bias() const { return b_; }

 private:
  /// Creates dW and db, zeroed, unless they exist already.
  void EnsureGrads();

  Matrix w_;   // [in_dim, out_dim]
  Matrix dw_;  // empty until training needs it, then w_'s shape
  std::vector<float> b_;
  std::vector<float> db_;  // empty until training needs it, then b_'s size
};

}  // namespace ams::nn

#endif  // AMS_NN_LAYER_H_
