#include "nn/layer.h"

#include <cmath>

#include "util/check.h"

// Compiled with -ffp-contract=off (CMakeLists.txt), like every TU on the
// forward's arithmetic path; the loops themselves live in matrix.cc and the
// nn/simd.h kernels.

namespace ams::nn {

DenseLayer::DenseLayer(int in_dim, int out_dim, util::Rng* rng)
    : w_(rng == nullptr
             ? Matrix(in_dim, out_dim)
             : Matrix::RandomNormal(
                   in_dim, out_dim,
                   std::sqrt(2.0f / static_cast<float>(in_dim)), rng)),
      b_(static_cast<size_t>(out_dim), 0.0f) {
  AMS_CHECK(in_dim > 0 && out_dim > 0);
}

void DenseLayer::EnsureGrads() {
  if (!db_.empty()) return;  // out_dim > 0, so db_ exists once created
  dw_ = Matrix(w_.rows(), w_.cols());
  db_.assign(b_.size(), 0.0f);
}

void DenseLayer::Forward(const Matrix& x, Matrix* y) const {
  AMS_CHECK(x.cols() == w_.rows(), "dense layer input dim mismatch");
  Gemm(x, w_, y);
  AddRowVector(y, b_);
}

void DenseLayer::ForwardSparseRows(const std::vector<float>* const* rows,
                                   const std::vector<int>* const* indices,
                                   size_t count, Matrix* y) const {
  const int in = w_.rows();
  y->Resize(static_cast<int>(count), w_.cols());  // every element written
  for (size_t i = 0; i < count; ++i) {
    const std::vector<float>& x = *rows[i];
    AMS_CHECK(static_cast<int>(x.size()) == in,
              "dense layer input dim mismatch");
    // Known set positions gather only those weight rows; ascending order
    // keeps the accumulation identical to the dense scan (whose zero
    // entries contribute nothing).
    const std::vector<int>* idx = indices == nullptr ? nullptr : indices[i];
    SparseRowProduct(x.data(), idx, w_, y->Row(static_cast<int>(i)));
  }
  AddRowVector(y, b_);
}

void DenseLayer::Backward(const Matrix& x, const Matrix& grad_y, Matrix* grad_x) {
  AMS_CHECK(x.cols() == w_.rows() && grad_y.cols() == w_.cols());
  AMS_CHECK(x.rows() == grad_y.rows());
  // Both outputs keep their shape, so they are written in place.
  EnsureGrads();
  GemmTransA(x, grad_y, &dw_);      // dW = x^T * dY
  ColumnSums(grad_y, &db_);         // db = column sums of dY
  if (grad_x != nullptr) {
    GemmTransB(grad_y, w_, grad_x);  // dX = dY * W^T
  }
}

void DenseLayer::CollectParams(std::vector<ParamGrad>* out) {
  EnsureGrads();
  out->push_back({w_.data(), dw_.data(), static_cast<size_t>(w_.size())});
  out->push_back({b_.data(), db_.data(), b_.size()});
}

void DenseLayer::CopyWeightsFrom(const DenseLayer& src) {
  AMS_CHECK(src.w_.rows() == w_.rows() && src.w_.cols() == w_.cols(),
            "tensor size mismatch");
  std::copy(src.w_.data(), src.w_.data() + src.w_.size(), w_.data());
  std::copy(src.b_.begin(), src.b_.end(), b_.begin());
}

void DenseLayer::Save(util::BinaryWriter* w) const {
  w->WriteI32(w_.rows());
  w->WriteI32(w_.cols());
  w->WriteFloats(w_.data(), static_cast<uint64_t>(w_.size()));
  w->WriteFloats(b_.data(), b_.size());
}

bool DenseLayer::Load(util::BinaryReader* r) {
  const int in_dim = r->ReadI32();
  const int out_dim = r->ReadI32();
  if (!r->ok() || in_dim != w_.rows() || out_dim != w_.cols()) return false;
  return r->ReadFloats(w_.data(), static_cast<uint64_t>(w_.size())) &&
         r->ReadFloats(b_.data(), b_.size());
}

}  // namespace ams::nn
