#include "nn/matrix.h"

#include <algorithm>
#include <cstring>

#include "nn/simd.h"
#include "util/check.h"

// Compiled with -ffp-contract=off (CMakeLists.txt): the scalar remainder
// loops here are the bitwise reference for the SIMD tiers, so the compiler
// must not FMA-contract them even when CMAKE_CXX_FLAGS adds -march=native.

namespace ams::nn {

Matrix::Matrix(int rows, int cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f) {
  AMS_CHECK(rows >= 0 && cols >= 0);
}

Matrix Matrix::RandomNormal(int rows, int cols, float stddev, util::Rng* rng) {
  Matrix m(rows, cols);
  for (float& v : m.data_) {
    v = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return m;
}

Matrix Matrix::FromRowVector(const std::vector<float>& v) {
  Matrix m(1, static_cast<int>(v.size()));
  std::copy(v.begin(), v.end(), m.data_.begin());
  return m;
}

void Matrix::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::Resize(int rows, int cols) {
  AMS_CHECK(rows >= 0 && cols >= 0);
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
}

void Matrix::CopyRowFrom(const Matrix& src, int src_row, int dst_row) {
  AMS_DCHECK(src.cols() == cols_);
  std::memcpy(Row(dst_row), src.Row(src_row), sizeof(float) * cols_);
}

void SparseRowProduct(const float* x, const std::vector<int>* support,
                      const Matrix& b, float* out) {
  const int k =
      support != nullptr ? static_cast<int>(support->size()) : b.rows();
  // Compaction scratch, sized to the full input width rather than this
  // row's support, so it grows once per weight shape on each thread and not
  // again as supports widen: a warm forward allocates nothing
  // (serve_tick_alloc_test counts).
  static thread_local std::vector<float> value_scratch;
  static thread_local std::vector<int> row_scratch;
  const size_t need = static_cast<size_t>(std::max(k, b.rows()));
  if (value_scratch.size() < need) {
    value_scratch.resize(need);
    row_scratch.resize(need);
  }
  float* values = value_scratch.data();
  int* rows = row_scratch.data();
  const simd::Kernels& kernels = simd::Active();
  int cnt = 0;
  if (support != nullptr) {
    // Branchless compaction, as in the dense kernel: every candidate is
    // written, only a nonzero one advances the cursor. -0.0 compares equal
    // to 0 and is skipped; NaN is not zero and is kept.
    for (const int kk : *support) {
      const float xv = x[kk];
      values[cnt] = xv;
      rows[cnt] = kk;
      cnt += xv != 0.0f;
    }
  } else {
    cnt = kernels.pack_nonzero(x, k, values, rows);
  }
  kernels.gather_rows(values, rows, cnt, b.data(), out, b.cols());
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* out) {
  AMS_CHECK(a.cols() == b.rows(), "gemm shape mismatch");
  // No Fill(0): the gather kernel builds each output row in fresh
  // accumulators and stores it once (the zero-init contract in the header).
  out->Resize(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    SparseRowProduct(a.Row(i), nullptr, b, out->Row(i));
  }
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  AMS_CHECK(a.rows() == b.rows(), "gemmTA shape mismatch");
  out->Resize(a.cols(), b.cols());
  out->Fill(0.0f);  // accumulating variant — see the zero-init contract
  const int m = a.rows(), k = a.cols(), n = b.cols();
  const simd::Kernels& K = simd::Active();
  for (int r = 0; r < m; ++r) {
    const float* a_row = a.Row(r);
    const float* b_row = b.Row(r);
    for (int i = 0; i < k; ++i) {
      const float ari = a_row[i];
      if (ari == 0.0f) continue;
      K.axpy(ari, b_row, out->Row(i), n);
    }
  }
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  AMS_CHECK(a.cols() == b.cols(), "gemmTB shape mismatch");
  // No Fill(0): every out[i][j] below is computed into a fresh accumulator
  // and stored exactly once, so stale Resize contents cannot leak through
  // (the zero-init contract in the header).
  out->Resize(a.rows(), b.rows());
  const int m = a.rows(), n = a.cols(), p = b.rows();
  const simd::Kernels& K = simd::Active();
  // 8-column panels: transpose 8 rows of b into an n x 8 scratch so one
  // dot8 call produces 8 outputs per pass over a_row. Each lane still sums
  // over c in index order, bitwise identical to the scalar column loop.
  static thread_local util::AlignedVector<float> panel;
  int j = 0;
  for (; j + 8 <= p; j += 8) {
    panel.resize(static_cast<size_t>(n) * 8);
    for (int l = 0; l < 8; ++l) {
      const float* b_row = b.Row(j + l);
      for (int c = 0; c < n; ++c) panel[static_cast<size_t>(c) * 8 + l] = b_row[c];
    }
    for (int i = 0; i < m; ++i) {
      float acc8[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
      K.dot8(a.Row(i), panel.data(), n, acc8);
      float* out_row = out->Row(i);
      for (int l = 0; l < 8; ++l) out_row[j + l] = acc8[l];
    }
  }
  for (; j < p; ++j) {
    const float* b_row = b.Row(j);
    for (int i = 0; i < m; ++i) {
      const float* a_row = a.Row(i);
      float acc = 0.0f;
      for (int c = 0; c < n; ++c) acc += a_row[c] * b_row[c];
      out->Row(i)[j] = acc;
    }
  }
}

void AddRowVector(Matrix* m, const std::vector<float>& bias) {
  AMS_CHECK(static_cast<int>(bias.size()) == m->cols());
  const int cols = m->cols();
  const float* b = bias.data();
  const simd::Kernels& K = simd::Active();
  for (int i = 0; i < m->rows(); ++i) {
    K.add_inplace(b, m->Row(i), cols);
  }
}

void ReluForward(const Matrix& in, Matrix* out) {
  out->Resize(in.rows(), in.cols());
  simd::Active().relu(in.data(), out->data(), in.size());
}

void ReluBackward(const Matrix& pre_act, const Matrix& grad_out, Matrix* grad_in) {
  AMS_CHECK(pre_act.rows() == grad_out.rows() && pre_act.cols() == grad_out.cols());
  grad_in->Resize(pre_act.rows(), pre_act.cols());
  const float* pre = pre_act.data();
  const float* go = grad_out.data();
  float* gi = grad_in->data();
  const int n = pre_act.size();
  for (int i = 0; i < n; ++i) gi[i] = pre[i] > 0.0f ? go[i] : 0.0f;
}

void ColumnSums(const Matrix& m, std::vector<float>* out) {
  out->assign(static_cast<size_t>(m.cols()), 0.0f);
  for (int i = 0; i < m.rows(); ++i) {
    const float* row = m.Row(i);
    for (int j = 0; j < m.cols(); ++j) (*out)[j] += row[j];
  }
}

}  // namespace ams::nn
