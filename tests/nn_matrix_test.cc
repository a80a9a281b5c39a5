// Unit tests of the matrix kernels against naive reference implementations.

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "nn/matrix.h"
#include "util/rng.h"

namespace ams::nn {
namespace {

Matrix RandomMatrix(int rows, int cols, util::Rng* rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m.At(r, c) = static_cast<float>(rng->Uniform(-2.0, 2.0));
    }
  }
  return m;
}

// Naive O(n^3) reference multiply.
Matrix NaiveGemm(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      out.At(i, j) = acc;
    }
  }
  return out;
}

void ExpectNear(const Matrix& a, const Matrix& b, float tol = 1e-4f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      ASSERT_NEAR(a.At(r, c), b.At(r, c), tol) << "at (" << r << "," << c << ")";
    }
  }
}

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix b = RandomMatrix(k, n, &rng);
  Matrix out;
  Gemm(a, b, &out);
  ExpectNear(out, NaiveGemm(a, b));
}

TEST_P(GemmShapeTest, TransAMatchesNaive) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(static_cast<uint64_t>(m * 31 + k * 17 + n));
  const Matrix a = RandomMatrix(m, k, &rng);  // we compute a^T * b
  const Matrix b = RandomMatrix(m, n, &rng);
  Matrix out;
  GemmTransA(a, b, &out);
  // Reference: transpose a explicitly.
  Matrix at(k, m);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < k; ++c) at.At(c, r) = a.At(r, c);
  }
  ExpectNear(out, NaiveGemm(at, b));
}

TEST_P(GemmShapeTest, TransBMatchesNaive) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(static_cast<uint64_t>(m * 13 + k * 7 + n * 3));
  const Matrix a = RandomMatrix(m, n, &rng);  // we compute a * b^T
  const Matrix b = RandomMatrix(k, n, &rng);
  Matrix out;
  GemmTransB(a, b, &out);
  Matrix bt(n, k);
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < n; ++c) bt.At(c, r) = b.At(r, c);
  }
  ExpectNear(out, NaiveGemm(a, bt));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 7), std::make_tuple(8, 16, 8),
                      std::make_tuple(32, 64, 31), std::make_tuple(3, 100, 2)));

TEST(MatrixTest, GemmWithSparseZeroRowsSkipsCorrectly) {
  // The Gemm kernel has a fast path skipping zero entries (binary states);
  // verify it is semantically transparent.
  util::Rng rng(77);
  Matrix a(4, 50);
  a.Fill(0.0f);
  a.At(1, 3) = 1.0f;
  a.At(2, 49) = 1.0f;
  a.At(2, 0) = 1.0f;
  const Matrix b = RandomMatrix(50, 6, &rng);
  Matrix out;
  Gemm(a, b, &out);
  ExpectNear(out, NaiveGemm(a, b));
  for (int j = 0; j < 6; ++j) {
    EXPECT_FLOAT_EQ(out.At(0, j), 0.0f);
    EXPECT_FLOAT_EQ(out.At(3, j), 0.0f);
  }
}

TEST(MatrixTest, GemmVariantsOverwritePoisonedOutput) {
  // Regression for the zero-init contract (nn/matrix.h): GemmTransA
  // zero-fills before accumulating; Gemm and GemmTransB write every
  // element exactly once. Either way, stale output contents — here NaN
  // poison in a correctly-sized buffer, the shape Resize() won't clear —
  // must never leak into results.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(123);

  const Matrix a = RandomMatrix(5, 9, &rng);
  const Matrix b = RandomMatrix(9, 7, &rng);
  Matrix out(5, 7);
  out.Fill(nan);
  Gemm(a, b, &out);
  ExpectNear(out, NaiveGemm(a, b));

  const Matrix a2 = RandomMatrix(9, 5, &rng);  // a2^T * b2
  const Matrix b2 = RandomMatrix(9, 7, &rng);
  Matrix at(5, 9);
  for (int r = 0; r < 9; ++r) {
    for (int c = 0; c < 5; ++c) at.At(c, r) = a2.At(r, c);
  }
  Matrix out2(5, 7);
  out2.Fill(nan);
  GemmTransA(a2, b2, &out2);
  ExpectNear(out2, NaiveGemm(at, b2));

  const Matrix a3 = RandomMatrix(5, 9, &rng);  // a3 * b3^T
  const Matrix b3 = RandomMatrix(7, 9, &rng);
  Matrix bt(9, 7);
  for (int r = 0; r < 7; ++r) {
    for (int c = 0; c < 9; ++c) bt.At(c, r) = b3.At(r, c);
  }
  Matrix out3(5, 7);
  out3.Fill(nan);
  GemmTransB(a3, b3, &out3);
  ExpectNear(out3, NaiveGemm(a3, bt));
}

TEST(MatrixTest, AddRowVectorBroadcasts) {
  Matrix m(2, 3);
  m.Fill(1.0f);
  AddRowVector(&m, {0.5f, -1.0f, 2.0f});
  EXPECT_FLOAT_EQ(m.At(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 0.0f);
  EXPECT_FLOAT_EQ(m.At(0, 2), 3.0f);
}

TEST(MatrixTest, ReluForwardAndBackward) {
  Matrix in(1, 4);
  in.At(0, 0) = -1.0f;
  in.At(0, 1) = 0.0f;
  in.At(0, 2) = 2.0f;
  in.At(0, 3) = -0.1f;
  Matrix out;
  ReluForward(in, &out);
  EXPECT_FLOAT_EQ(out.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(out.At(0, 2), 2.0f);
  EXPECT_FLOAT_EQ(out.At(0, 3), 0.0f);

  Matrix grad_out(1, 4);
  grad_out.Fill(1.0f);
  Matrix grad_in;
  ReluBackward(in, grad_out, &grad_in);
  EXPECT_FLOAT_EQ(grad_in.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad_in.At(0, 1), 0.0f);  // gradient at exactly 0 is 0
  EXPECT_FLOAT_EQ(grad_in.At(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(grad_in.At(0, 3), 0.0f);
}

TEST(MatrixTest, ColumnSums) {
  Matrix m(3, 2);
  m.At(0, 0) = 1.0f;
  m.At(1, 0) = 2.0f;
  m.At(2, 0) = 3.0f;
  m.At(0, 1) = -1.0f;
  m.At(1, 1) = 0.5f;
  m.At(2, 1) = 0.5f;
  std::vector<float> sums;
  ColumnSums(m, &sums);
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_FLOAT_EQ(sums[0], 6.0f);
  EXPECT_FLOAT_EQ(sums[1], 0.0f);
}

TEST(MatrixTest, FromRowVectorAndCopyRow) {
  const Matrix row = Matrix::FromRowVector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row.cols(), 3);
  Matrix dst(2, 3);
  dst.CopyRowFrom(row, 0, 1);
  EXPECT_FLOAT_EQ(dst.At(1, 2), 3.0f);
  EXPECT_FLOAT_EQ(dst.At(0, 0), 0.0f);
}

TEST(MatrixTest, RandomNormalHasRoughlyCorrectSpread) {
  util::Rng rng(5);
  const Matrix m = Matrix::RandomNormal(100, 100, 0.5f, &rng);
  double sum = 0.0, sum_sq = 0.0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      sum += m.At(r, c);
      sum_sq += static_cast<double>(m.At(r, c)) * m.At(r, c);
    }
  }
  const double n = 10000.0;
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 0.25, 0.02);
}

}  // namespace
}  // namespace ams::nn
