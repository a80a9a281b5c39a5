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

/// Fully connected layer y = x*W + b with cached gradients.
///
/// Backward() overwrites dW/db for the most recent Forward() batch; the
/// trainer calls optimizer.Step() before the next Backward().
class DenseLayer {
 public:
  /// He-normal initialization: W ~ N(0, 2/in_dim), b = 0.
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
  /// `indices` may be empty (every row is scanned densely) or parallel to
  /// `rows`; a non-null indices[i] lists the nonzero positions of rows[i] in
  /// ascending order (LabelingState::SetIndices), letting that row skip the
  /// dense zero scan entirely while keeping the same accumulation order.
  void ForwardSparseRows(const std::vector<const std::vector<float>*>& rows,
                         const std::vector<const std::vector<int>*>& indices,
                         Matrix* y) const;
  void ForwardSparseRows(const std::vector<const std::vector<float>*>& rows,
                         Matrix* y) const {
    ForwardSparseRows(rows, {}, y);
  }

  /// Given the input batch `x` used in Forward and dL/dy, computes dW, db and
  /// (if grad_x != nullptr) dL/dx.
  void Backward(const Matrix& x, const Matrix& grad_y, Matrix* grad_x);

  void CollectParams(std::vector<ParamGrad>* out);

  void Save(util::BinaryWriter* w) const;
  /// Loads weights saved from a layer of this layer's shape. Returns false
  /// on malformed input, including stored dims other than
  /// in_dim() x out_dim(): nets build their layers from the checkpoint
  /// header first, so a layer that disagrees with the header is corrupt.
  bool Load(util::BinaryReader* r);

  int in_dim() const { return w_.rows(); }
  int out_dim() const { return w_.cols(); }

  Matrix& weights() { return w_; }
  std::vector<float>& bias() { return b_; }
  const Matrix& weights() const { return w_; }
  const std::vector<float>& bias() const { return b_; }

 private:
  Matrix w_;   // [in_dim, out_dim]
  Matrix dw_;  // same shape
  std::vector<float> b_;
  std::vector<float> db_;
};

}  // namespace ams::nn

#endif  // AMS_NN_LAYER_H_
