#ifndef AMS_NN_MATRIX_H_
#define AMS_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/aligned.h"
#include "util/rng.h"

namespace ams::nn {

/// Dense row-major float32 matrix. The only tensor type the NN substrate
/// needs: batches are rows, features are columns. Storage is 64-byte
/// aligned (util::AlignedVector) so the SIMD kernels in nn/simd.h start
/// from a cache-line-aligned base; rows themselves begin at arbitrary
/// offsets (stride = cols), so kernels still use unaligned loads.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols);

  /// Matrix with entries drawn i.i.d. from N(0, stddev^2).
  static Matrix RandomNormal(int rows, int cols, float stddev, util::Rng* rng);

  /// Builds a 1 x n matrix from a vector (copies).
  static Matrix FromRowVector(const std::vector<float>& v);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }

  float& At(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  float At(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* Row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* Row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every entry to v.
  void Fill(float v);

  /// Resizes (contents unspecified afterwards unless dims unchanged).
  void Resize(int rows, int cols);

  /// Copies row r of `src` into row r of this matrix (same column count).
  void CopyRowFrom(const Matrix& src, int src_row, int dst_row);

 private:
  int rows_ = 0;
  int cols_ = 0;
  util::AlignedVector<float> data_;
};

// Zero-init contract for the three Gemm variants: Resize() leaves contents
// unspecified, so each variant must neutralize stale output storage itself.
// GemmTransA accumulates (+=) into the output and therefore Fill(0)s first.
// Gemm and GemmTransB compute each out[i][j] in a fresh accumulator that
// starts at +0 and store it exactly once, so they deliberately skip the
// fill. All three are safe to call on a Matrix holding arbitrary garbage
// (regression-tested in nn_matrix_test).

/// out = a * b. Shapes: a[m,k], b[k,n], out[m,n]. out may not alias inputs.
/// Each output row is one SparseRowProduct: zero entries of a are skipped
/// and the rest accumulate in ascending k, in registers on the AVX2 tier.
void Gemm(const Matrix& a, const Matrix& b, Matrix* out);

/// One output row of x * b: out[j] accumulates x[kk] * b[kk][j] from +0
/// over the nonzero x[kk] in ascending kk — the row-gather kernel
/// (simd::Kernels::gather_rows) fed with the compacted nonzeros. Skipping
/// zeros keeps an inf/NaN weight row behind a zero input out of the output.
/// `support`, when non-null, lists in ascending order the only positions of
/// x that may be nonzero, so a sparse row skips the scan of its zeros;
/// otherwise all b.rows() positions of x are scanned by the left-pack
/// kernel (simd::Kernels::pack_nonzero; 8 lanes a step on AVX2), which
/// every Gemm row — each hidden row of a forward, each dense training
/// input — runs. out (b.cols() floats) must not alias x or b. The
/// compaction scratch is thread-local and allocation-free once warm.
void SparseRowProduct(const float* x, const std::vector<int>* support,
                      const Matrix& b, float* out);

/// out = a^T * b. Shapes: a[m,k], b[m,n], out[k,n].
void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T. Shapes: a[m,n], b[p,n], out[m,p]. Writes every output
/// element exactly once (no Fill(0) — see the zero-init contract above).
void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out);

/// Adds bias vector (size = m->cols()) to every row of m.
void AddRowVector(Matrix* m, const std::vector<float>& bias);

/// out = max(in, 0). Shapes must match.
void ReluForward(const Matrix& in, Matrix* out);

/// grad_in = grad_out where pre_act > 0, else 0.
void ReluBackward(const Matrix& pre_act, const Matrix& grad_out, Matrix* grad_in);

/// Column-sum of m into out (size m.cols()); used for bias gradients.
void ColumnSums(const Matrix& m, std::vector<float>* out);

}  // namespace ams::nn

#endif  // AMS_NN_MATRIX_H_
