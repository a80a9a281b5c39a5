// Bitwise-parity locks for the dispatched SIMD kernels (nn/simd.h): every
// vectorized fp32 kernel and every op built on one must produce bit-for-bit
// the same results as the always-compiled scalar tier, across even, odd and
// sub-vector-width shapes. On machines with no vector tier the parity tests
// skip (there is nothing to compare) but the dispatch/alignment tests run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/matrix.h"
#include "nn/net.h"
#include "nn/simd.h"
#include "util/rng.h"

namespace ams::nn {
namespace {

// Restores auto dispatch after every test, whatever it forced.
class SimdParityTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ResetForcedTier(); }

  /// The vector tier to pit against scalar, or nullopt to skip.
  static bool VectorTier(simd::Tier* tier) {
    const simd::Tier best = simd::BestSupportedTier();
    if (best == simd::Tier::kScalar) return false;
    *tier = best;
    return true;
  }
};

const std::vector<int>& KernelSizes() {
  // Below, at, and straddling the 4- and 8-lane widths, plus large-ish.
  static const std::vector<int> kSizes = {1,  2,  3,  4,  5,  7,  8,  9,
                                          15, 16, 17, 31, 33, 64, 100};
  return kSizes;
}

void FillRandom(float* p, int n, util::Rng* rng) {
  for (int i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng->Uniform(-2.0, 2.0));
  }
}

void ExpectBitEqual(const float* a, const float* b, size_t n,
                    const std::string& what) {
  ASSERT_EQ(std::memcmp(a, b, n * sizeof(float)), 0) << what;
}

TEST_F(SimdParityTest, AxpyBitwiseMatchesScalar) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  const simd::Kernels& vec = simd::KernelsFor(tier);
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  util::Rng rng(11);
  for (const int n : KernelSizes()) {
    std::vector<float> b(n), out_s(n), out_v(n);
    FillRandom(b.data(), n, &rng);
    FillRandom(out_s.data(), n, &rng);
    out_v = out_s;
    const float v = static_cast<float>(rng.Uniform(-3.0, 3.0));
    sca.axpy(v, b.data(), out_s.data(), n);
    vec.axpy(v, b.data(), out_v.data(), n);
    ExpectBitEqual(out_s.data(), out_v.data(), out_s.size(),
                   "axpy n=" + std::to_string(n));
  }
}

// The row-gather kernel against the scalar tier, and every tier against
// the same sum built from its axpy kernel: zero the row, then one axpy per
// input in order. Buffers are sized exactly (the gathered rows always
// include the last weight row), so a tail that reads or writes past column
// n trips ASan. Output buffers start as NaN, so an element the kernel
// failed to write shows up too; cnt = 0 must store +0 everywhere.
TEST_F(SimdParityTest, GatherRowsBitwiseMatchesScalarAndAxpyChain) {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  simd::Tier vector_tier;
  if (VectorTier(&vector_tier)) tiers.push_back(vector_tier);
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  std::vector<int> widths;
  for (int n = 1; n <= 72; ++n) widths.push_back(n);
  widths.push_back(256);
  // Ordinary, negative, subnormal and large inputs.
  const float kInputs[] = {1.0f, -1.5f, 0.3125f, 1e-40f, -3e-39f, 1e30f,
                           -2.5e29f};
  constexpr int kWeightRows = 9;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(12);
  for (const int n : widths) {
    std::vector<float> w(static_cast<size_t>(kWeightRows) * n);
    FillRandom(w.data(), static_cast<int>(w.size()), &rng);
    for (const int cnt : {0, 1, 4, kWeightRows}) {
      // Ascending rows, always ending at the last weight row.
      std::vector<int> rows =
          rng.SampleWithoutReplacement(kWeightRows - 1, std::max(cnt - 1, 0));
      std::sort(rows.begin(), rows.end());
      if (cnt > 0) rows.push_back(kWeightRows - 1);
      std::vector<float> v(static_cast<size_t>(cnt));
      for (float& x : v) x = kInputs[rng.UniformInt(0, 6)];
      const std::string what =
          "gather_rows n=" + std::to_string(n) + " cnt=" + std::to_string(cnt);
      std::vector<float> want(static_cast<size_t>(n), nan);
      sca.gather_rows(v.data(), rows.data(), cnt, w.data(), want.data(), n);
      for (const simd::Tier tier : tiers) {
        const simd::Kernels& k = simd::KernelsFor(tier);
        std::vector<float> got(static_cast<size_t>(n), nan);
        k.gather_rows(v.data(), rows.data(), cnt, w.data(), got.data(), n);
        ExpectBitEqual(want.data(), got.data(), got.size(),
                       what + " on " + simd::TierName(tier));
        std::vector<float> chain(static_cast<size_t>(n), 0.0f);
        for (size_t t = 0; t < v.size(); ++t) {
          const size_t row = static_cast<size_t>(rows[t]);
          k.axpy(v[t], w.data() + row * n, chain.data(), n);
        }
        ExpectBitEqual(chain.data(), got.data(), got.size(),
                       what + " vs axpy chain on " + simd::TierName(tier));
      }
    }
  }
}

// The left-pack on the scalar entry and on every supported vector tier
// against its definition: the count of x[i] != 0, then those values
// (bitwise) and positions in ascending order. -0.0 is zero and skipped;
// NaN is not and is kept. Rows mix +-0.0, NaN, +-inf and subnormals, and
// include all-zero, all-nonzero and mostly-zero rows of every length from 0
// to 40 (below, at and across the 8-lane steps), 256 (a hidden row) and
// 1,104 (a dense input). Outputs hold exactly k entries, so a store past
// them trips ASan.
TEST_F(SimdParityTest, PackNonzeroMatchesScalarOnEveryTier) {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  for (const simd::Tier tier : {simd::Tier::kAvx2, simd::Tier::kNeon}) {
    if (simd::TierSupported(tier)) tiers.push_back(tier);
  }
  std::vector<int> lengths;
  for (int k = 0; k <= 40; ++k) lengths.push_back(k);
  lengths.push_back(256);
  lengths.push_back(1104);
  const float inf = std::numeric_limits<float>::infinity();
  // Two zeros, then eight nonzeros.
  const float kValues[] = {0.0f,
                           -0.0f,
                           1.0f,
                           -2.5f,
                           std::numeric_limits<float>::quiet_NaN(),
                           inf,
                           -inf,
                           1e-40f,
                           -3e-39f,
                           std::numeric_limits<float>::denorm_min()};
  const char* const kFills[] = {"all zero", "all nonzero", "mixed",
                                "mostly zero"};
  util::Rng rng(61);
  for (const int k : lengths) {
    for (int fill = 0; fill < 4; ++fill) {
      std::vector<float> x(static_cast<size_t>(k));
      for (float& v : x) {
        const bool nonzero = fill == 1   ? true
                             : fill == 2 ? rng.Bernoulli(0.5)
                             : fill == 3 ? rng.Bernoulli(0.1)
                                         : false;
        v = kValues[nonzero ? rng.UniformInt(2, 9) : rng.UniformInt(0, 1)];
      }
      std::vector<float> want_values;
      std::vector<int> want_rows;
      for (int i = 0; i < k; ++i) {
        if (x[static_cast<size_t>(i)] != 0.0f) {
          want_values.push_back(x[static_cast<size_t>(i)]);
          want_rows.push_back(i);
        }
      }
      const int want = static_cast<int>(want_rows.size());
      for (const simd::Tier tier : tiers) {
        const std::string what = std::string("pack_nonzero on ") +
                                 simd::TierName(tier) + ", k=" +
                                 std::to_string(k) + ", " + kFills[fill];
        std::vector<float> values(static_cast<size_t>(k));
        std::vector<int> rows(static_cast<size_t>(k));
        const int got = simd::KernelsFor(tier).pack_nonzero(
            x.data(), k, values.data(), rows.data());
        ASSERT_EQ(got, want) << what;
        if (want > 0) {
          ExpectBitEqual(want_values.data(), values.data(),
                         static_cast<size_t>(want), what + " values");
        }
        ASSERT_TRUE(std::equal(want_rows.begin(), want_rows.end(),
                               rows.begin()))
            << what << " positions";
      }
    }
  }
}

TEST_F(SimdParityTest, AddInplaceBitwiseMatchesScalar) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  const simd::Kernels& vec = simd::KernelsFor(tier);
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  util::Rng rng(13);
  for (const int n : KernelSizes()) {
    std::vector<float> b(n), out_s(n), out_v(n);
    FillRandom(b.data(), n, &rng);
    FillRandom(out_s.data(), n, &rng);
    out_v = out_s;
    sca.add_inplace(b.data(), out_s.data(), n);
    vec.add_inplace(b.data(), out_v.data(), n);
    ExpectBitEqual(out_s.data(), out_v.data(), out_s.size(),
                   "add_inplace n=" + std::to_string(n));
  }
}

TEST_F(SimdParityTest, ReluBitwiseMatchesScalarIncludingEdgeValues) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  const simd::Kernels& vec = simd::KernelsFor(tier);
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  util::Rng rng(14);
  for (const int n : KernelSizes()) {
    std::vector<float> in(n), out_s(n), out_v(n);
    FillRandom(in.data(), n, &rng);
    // Seed the edge cases the scalar x > 0 ? x : 0 form pins down.
    if (n > 0) in[0] = -0.0f;
    if (n > 2) in[2] = 0.0f;
    if (n > 4) in[4] = std::numeric_limits<float>::quiet_NaN();
    sca.relu(in.data(), out_s.data(), n);
    vec.relu(in.data(), out_v.data(), n);
    ExpectBitEqual(out_s.data(), out_v.data(), out_s.size(),
                   "relu n=" + std::to_string(n));
    // In-place form.
    std::vector<float> inplace = in;
    vec.relu(inplace.data(), inplace.data(), n);
    ExpectBitEqual(out_s.data(), inplace.data(), out_s.size(),
                   "relu in-place n=" + std::to_string(n));
  }
}

TEST_F(SimdParityTest, Dot8BitwiseMatchesScalar) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  const simd::Kernels& vec = simd::KernelsFor(tier);
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  util::Rng rng(15);
  for (const int n : KernelSizes()) {
    std::vector<float> a(n), panel(static_cast<size_t>(n) * 8);
    FillRandom(a.data(), n, &rng);
    FillRandom(panel.data(), static_cast<int>(panel.size()), &rng);
    float acc_s[8], acc_v[8];
    FillRandom(acc_s, 8, &rng);
    std::memcpy(acc_v, acc_s, sizeof(acc_s));
    sca.dot8(a.data(), panel.data(), n, acc_s);
    vec.dot8(a.data(), panel.data(), n, acc_v);
    ExpectBitEqual(acc_s, acc_v, 8, "dot8 n=" + std::to_string(n));
  }
}

// --- op-level parity: the matrix/layer entry points under forced tiers -----

Matrix RandomMatrix(int rows, int cols, util::Rng* rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m.At(r, c) = static_cast<float>(rng->Uniform(-2.0, 2.0));
    }
  }
  return m;
}

void ExpectMatrixBitEqual(const Matrix& a, const Matrix& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int r = 0; r < a.rows(); ++r) {
    ExpectBitEqual(a.Row(r), b.Row(r), static_cast<size_t>(a.cols()),
                   what + " row " + std::to_string(r));
  }
}

struct GemmShape {
  int m, k, n;
};

const std::vector<GemmShape>& GemmShapes() {
  // Odd/even/remainder widths around the 8-column vectors, 64-column gather
  // tiles and TransB's 8-column panels.
  static const std::vector<GemmShape> kShapes = {
      {1, 1, 1},    {2, 3, 4},   {3, 7, 9},     {4, 8, 8},
      {5, 16, 7},   {7, 31, 33}, {16, 64, 31},  {9, 100, 24},
      {3, 40, 70},  {2, 30, 256}};
  return kShapes;
}

TEST_F(SimdParityTest, GemmOpsBitwiseMatchScalarTier) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  for (const GemmShape& shape : GemmShapes()) {
    util::Rng rng(static_cast<uint64_t>(shape.m * 977 + shape.k * 31 +
                                        shape.n));
    const Matrix a = RandomMatrix(shape.m, shape.k, &rng);
    const Matrix b = RandomMatrix(shape.k, shape.n, &rng);
    // Sparse variant of a: zeros interleaved, exercising the zero-skip.
    Matrix a_sparse = a;
    for (int r = 0; r < a_sparse.rows(); ++r) {
      for (int c = 0; c < a_sparse.cols(); ++c) {
        if ((r + c) % 3 != 0) a_sparse.At(r, c) = 0.0f;
      }
    }
    const Matrix ta = RandomMatrix(shape.k, shape.m, &rng);  // for TransA
    const Matrix tb = RandomMatrix(shape.n, shape.k, &rng);  // for TransB

    Matrix out_s, out_sparse_s, out_ta_s, out_tb_s;
    simd::ForceTier(simd::Tier::kScalar);
    Gemm(a, b, &out_s);
    Gemm(a_sparse, b, &out_sparse_s);
    GemmTransA(ta, b, &out_ta_s);
    GemmTransB(a, tb, &out_tb_s);

    Matrix out_v, out_sparse_v, out_ta_v, out_tb_v;
    simd::ForceTier(tier);
    Gemm(a, b, &out_v);
    Gemm(a_sparse, b, &out_sparse_v);
    GemmTransA(ta, b, &out_ta_v);
    GemmTransB(a, tb, &out_tb_v);

    const std::string shape_str = std::to_string(shape.m) + "x" +
                                  std::to_string(shape.k) + "x" +
                                  std::to_string(shape.n);
    ExpectMatrixBitEqual(out_s, out_v, "Gemm " + shape_str);
    ExpectMatrixBitEqual(out_sparse_s, out_sparse_v,
                         "Gemm sparse " + shape_str);
    ExpectMatrixBitEqual(out_ta_s, out_ta_v, "GemmTransA " + shape_str);
    ExpectMatrixBitEqual(out_tb_s, out_tb_v, "GemmTransB " + shape_str);
  }
}

TEST_F(SimdParityTest, AddRowVectorAndReluBitwiseMatchScalarTier) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  util::Rng rng(21);
  for (const int cols : {1, 3, 8, 13, 31, 64}) {
    const Matrix base = RandomMatrix(5, cols, &rng);
    std::vector<float> bias(static_cast<size_t>(cols));
    FillRandom(bias.data(), cols, &rng);

    simd::ForceTier(simd::Tier::kScalar);
    Matrix add_s = base;
    AddRowVector(&add_s, bias);
    Matrix relu_s;
    ReluForward(base, &relu_s);

    simd::ForceTier(tier);
    Matrix add_v = base;
    AddRowVector(&add_v, bias);
    Matrix relu_v;
    ReluForward(base, &relu_v);

    ExpectMatrixBitEqual(add_s, add_v,
                         "AddRowVector cols=" + std::to_string(cols));
    ExpectMatrixBitEqual(relu_s, relu_v,
                         "ReluForward cols=" + std::to_string(cols));
  }
}

TEST_F(SimdParityTest, ForwardSparseRowsBitwiseMatchesScalarTier) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  util::Rng rng(31);
  DenseLayer layer(40, 23, &rng);
  // Sparse binary rows (the scheduling states) and one dense row.
  std::vector<std::vector<float>> rows(4, std::vector<float>(40, 0.0f));
  std::vector<std::vector<int>> idx(4);
  for (int r = 0; r < 3; ++r) {
    for (const int i : rng.SampleWithoutReplacement(40, 2 + 3 * r)) {
      rows[static_cast<size_t>(r)][static_cast<size_t>(i)] = 1.0f;
    }
    for (int i = 0; i < 40; ++i) {
      if (rows[static_cast<size_t>(r)][static_cast<size_t>(i)] != 0.0f) {
        idx[static_cast<size_t>(r)].push_back(i);
      }
    }
  }
  FillRandom(rows[3].data(), 40, &rng);
  for (int i = 0; i < 40; ++i) idx[3].push_back(i);

  std::vector<const std::vector<float>*> row_ptrs;
  std::vector<const std::vector<int>*> idx_ptrs;
  for (int r = 0; r < 4; ++r) {
    row_ptrs.push_back(&rows[static_cast<size_t>(r)]);
    idx_ptrs.push_back(&idx[static_cast<size_t>(r)]);
  }

  Matrix dense_s, sparse_s;
  simd::ForceTier(simd::Tier::kScalar);
  layer.ForwardSparseRows(row_ptrs.data(), nullptr, 4, &dense_s);
  layer.ForwardSparseRows(row_ptrs.data(), idx_ptrs.data(), 4, &sparse_s);

  Matrix dense_v, sparse_v;
  simd::ForceTier(tier);
  layer.ForwardSparseRows(row_ptrs.data(), nullptr, 4, &dense_v);
  layer.ForwardSparseRows(row_ptrs.data(), idx_ptrs.data(), 4, &sparse_v);

  ExpectMatrixBitEqual(dense_s, dense_v, "ForwardSparseRows dense-scan");
  ExpectMatrixBitEqual(sparse_s, sparse_v, "ForwardSparseRows indexed");
  // The index hint itself must be transparent, whatever the tier.
  ExpectMatrixBitEqual(dense_v, sparse_v, "indexed vs dense on vector tier");
}

// Zero inputs are skipped, not multiplied: a weight row behind a zero (or
// -0.0) input may hold +-inf or NaN without reaching the output, on every
// tier and through both forward layers — Gemm's dense rows and
// ForwardSparseRows with and without index hints, including a hint that
// lists a zero entry. Outputs must be finite and equal to the same layer
// with those rows clean.
TEST_F(SimdParityTest, ZeroInputsHidePoisonedWeightRows) {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  simd::Tier vector_tier;
  if (VectorTier(&vector_tier)) tiers.push_back(vector_tier);
  constexpr int kIn = 24;
  constexpr int kOut = 31;
  const std::vector<int> kPoisoned = {0, 5, 11, 23};
  util::Rng rng(51);
  DenseLayer clean(kIn, kOut, &rng);
  FillRandom(clean.bias().data(), kOut, &rng);
  DenseLayer poisoned = clean;
  const float kPoison[] = {std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN()};
  for (size_t p = 0; p < kPoisoned.size(); ++p) {
    float* row = poisoned.weights().Row(kPoisoned[p]);
    for (int j = 0; j < kOut; ++j) row[j] = kPoison[(p + j) % 3];
  }

  // Three sparse rows over the clean positions; row 1 holds -0.0 at a
  // poisoned position, and its index hint lists that position too.
  std::vector<std::vector<float>> rows(3, std::vector<float>(kIn, 0.0f));
  std::vector<std::vector<int>> idx(3);
  for (int r = 0; r < 3; ++r) {
    for (int i = 0; i < kIn; ++i) {
      const bool poison = std::find(kPoisoned.begin(), kPoisoned.end(), i) !=
                          kPoisoned.end();
      if (!poison && (i + r) % 3 != 0) {
        rows[static_cast<size_t>(r)][static_cast<size_t>(i)] =
            r == 2 ? static_cast<float>(rng.Uniform(-2.0, 2.0)) : 1.0f;
      }
      if (rows[static_cast<size_t>(r)][static_cast<size_t>(i)] != 0.0f ||
          (r == 1 && i == 11)) {
        idx[static_cast<size_t>(r)].push_back(i);
      }
    }
  }
  rows[1][11] = -0.0f;
  Matrix x(3, kIn);
  std::vector<const std::vector<float>*> row_ptrs;
  std::vector<const std::vector<int>*> idx_ptrs;
  for (int r = 0; r < 3; ++r) {
    std::copy(rows[static_cast<size_t>(r)].begin(),
              rows[static_cast<size_t>(r)].end(), x.Row(r));
    row_ptrs.push_back(&rows[static_cast<size_t>(r)]);
    idx_ptrs.push_back(&idx[static_cast<size_t>(r)]);
  }

  for (const simd::Tier tier : tiers) {
    simd::ForceTier(tier);
    const std::string on = std::string(" on ") + simd::TierName(tier);
    Matrix want, got;
    Gemm(x, clean.weights(), &want);
    Gemm(x, poisoned.weights(), &got);
    ExpectMatrixBitEqual(want, got, "Gemm" + on);
    clean.ForwardSparseRows(row_ptrs.data(), nullptr, 3, &want);
    for (const bool hinted : {false, true}) {
      poisoned.ForwardSparseRows(row_ptrs.data(),
                                 hinted ? idx_ptrs.data() : nullptr, 3, &got);
      ExpectMatrixBitEqual(want, got,
                           std::string("ForwardSparseRows") +
                               (hinted ? " indexed" : " dense") + on);
      for (int r = 0; r < got.rows(); ++r) {
        for (int j = 0; j < got.cols(); ++j) {
          ASSERT_TRUE(std::isfinite(got.At(r, j))) << "row " << r << on;
        }
      }
    }
  }
}

TEST_F(SimdParityTest, PredictBatchBitwiseMatchesScalarTierEndToEnd) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  MlpConfig config;
  config.input_dim = 60;
  config.hidden_dims = {24};
  config.output_dim = 11;
  Mlp mlp(config, /*seed=*/7);
  DuelingMlp dueling(config, /*seed=*/8);

  util::Rng rng(41);
  std::vector<std::vector<float>> rows(5, std::vector<float>(60, 0.0f));
  for (auto& row : rows) {
    for (const int i : rng.SampleWithoutReplacement(60, 6)) {
      row[static_cast<size_t>(i)] = 1.0f;
    }
  }
  std::vector<const std::vector<float>*> row_ptrs;
  for (const auto& row : rows) row_ptrs.push_back(&row);

  Matrix mlp_s, duel_s;
  simd::ForceTier(simd::Tier::kScalar);
  mlp.PredictBatch(row_ptrs.data(), nullptr, row_ptrs.size(), &mlp_s);
  dueling.PredictBatch(row_ptrs.data(), nullptr, row_ptrs.size(), &duel_s);

  Matrix mlp_v, duel_v;
  simd::ForceTier(tier);
  mlp.PredictBatch(row_ptrs.data(), nullptr, row_ptrs.size(), &mlp_v);
  dueling.PredictBatch(row_ptrs.data(), nullptr, row_ptrs.size(), &duel_v);

  ExpectMatrixBitEqual(mlp_s, mlp_v, "Mlp::PredictBatch");
  ExpectMatrixBitEqual(duel_s, duel_v, "DuelingMlp::PredictBatch");
}

// --- dispatch plumbing ------------------------------------------------------

TEST(SimdDispatchTest, ScalarTierAlwaysSupported) {
  EXPECT_TRUE(simd::TierSupported(simd::Tier::kScalar));
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  // The active tier must be one this machine supports.
  EXPECT_TRUE(simd::TierSupported(simd::ActiveTier()));
  // Exactly one architecture-specific tier can be compiled in.
  EXPECT_FALSE(simd::internal::Avx2KernelsOrNull() != nullptr &&
               simd::internal::NeonKernelsOrNull() != nullptr);
}

TEST(SimdDispatchTest, ForceTierSwitchesActiveKernels) {
  simd::ForceTier(simd::Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  EXPECT_EQ(&simd::Active(), &simd::KernelsFor(simd::Tier::kScalar));
  simd::ResetForcedTier();
  EXPECT_TRUE(simd::TierSupported(simd::ActiveTier()));
}

TEST(SimdDispatchTest, MatrixStorageIs64ByteAligned) {
  for (const int cols : {1, 7, 16, 33}) {
    Matrix m(3, cols);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(0)) % 64, 0u)
        << "cols=" << cols;
  }
}

}  // namespace
}  // namespace ams::nn
