#include "nn/layer.h"

#include <cmath>

#include "util/check.h"

// Compiled with -ffp-contract=off (CMakeLists.txt), like every TU on the
// forward's arithmetic path; the loops themselves live in matrix.cc and the
// nn/simd.h kernels.

namespace ams::nn {

DenseLayer::DenseLayer(int in_dim, int out_dim, util::Rng* rng)
    : w_(Matrix::RandomNormal(in_dim, out_dim,
                              std::sqrt(2.0f / static_cast<float>(in_dim)), rng)),
      dw_(in_dim, out_dim),
      b_(static_cast<size_t>(out_dim), 0.0f),
      db_(static_cast<size_t>(out_dim), 0.0f) {
  AMS_CHECK(in_dim > 0 && out_dim > 0);
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
  AMS_CHECK(grad_y.cols() == w_.cols());
  AMS_CHECK(x.rows() == grad_y.rows());
  GemmTransA(x, grad_y, &dw_);      // dW = x^T * dY
  ColumnSums(grad_y, &db_);         // db = column sums of dY
  if (grad_x != nullptr) {
    GemmTransB(grad_y, w_, grad_x);  // dX = dY * W^T
  }
}

void DenseLayer::CollectParams(std::vector<ParamGrad>* out) {
  out->push_back({w_.data(), dw_.data(), static_cast<size_t>(w_.size())});
  out->push_back({b_.data(), db_.data(), b_.size()});
}

void DenseLayer::Save(util::BinaryWriter* w) const {
  w->WriteI32(w_.rows());
  w->WriteI32(w_.cols());
  std::vector<float> flat(w_.data(), w_.data() + w_.size());
  w->WriteFloatVector(flat);
  w->WriteFloatVector(b_);
}

bool DenseLayer::Load(util::BinaryReader* r) {
  const int in_dim = r->ReadI32();
  const int out_dim = r->ReadI32();
  if (!r->ok() || in_dim != w_.rows() || out_dim != w_.cols()) return false;
  std::vector<float> flat = r->ReadFloatVector();
  std::vector<float> bias = r->ReadFloatVector();
  if (!r->ok()) return false;
  if (flat.size() !=
      static_cast<uint64_t>(in_dim) * static_cast<uint64_t>(out_dim)) {
    return false;
  }
  if (bias.size() != static_cast<size_t>(out_dim)) return false;
  std::copy(flat.begin(), flat.end(), w_.data());
  dw_.Fill(0.0f);
  b_ = std::move(bias);
  db_.assign(b_.size(), 0.0f);
  return true;
}

}  // namespace ams::nn
