// AVX2 kernel tier. This translation unit is compiled with
// -mavx2 -mno-fma -ffp-contract=off (see CMakeLists.txt) on x86 and is an
// empty stub elsewhere; the #if below keys on __AVX2__ so the file is inert
// whenever those flags are absent. -mno-fma matters: with FMA available the
// compiler may contract the separate mul+add intrinsics below into fused
// ops, which would round once instead of twice and break the bitwise parity
// contract with the scalar kernels.

#include "nn/simd.h"

#if defined(__AVX2__)

#include <array>
#include <cstddef>
#include <cstdint>
#include <immintrin.h>

namespace ams::nn::simd::internal {

namespace {

// Rows start at arbitrary offsets (row stride = cols), so all loads are
// unaligned even though Matrix buffers are 64-byte aligned.

void Avx2Axpy(float v, const float* b, float* out, int n) {
  const __m256 vv = _mm256_set1_ps(v);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 prod = _mm256_mul_ps(vv, _mm256_loadu_ps(b + j));
    _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), prod));
  }
  for (; j < n; ++j) out[j] += v * b[j];
}

// For each 8-bit mask of nonzero lanes, the lanes to move to the front, in
// ascending order, one per nibble from the lowest; the nibbles past the
// mask's popcount are 0. 1 KB rather than 8 KB of expanded indices.
constexpr std::array<uint32_t, 256> MakeLeftPackTable() {
  std::array<uint32_t, 256> table{};
  for (unsigned mask = 0; mask < 256; ++mask) {
    uint32_t packed = 0;
    unsigned out = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if ((mask >> lane) & 1) packed |= lane << (4 * out++);
    }
    table[mask] = packed;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kLeftPack = MakeLeftPackTable();

// Left-packs 8 lanes a step: a _CMP_NEQ_UQ compare (true for NaN and any
// nonzero; -0.0 == 0.0 is false) gives the lane mask, its table entry
// shifted per lane gives the permutation (permutevar8x32 reads each index's
// low 3 bits), and the permuted values and positions are stored whole at
// the cursor. The cursor never passes the block's start, so the stores end
// at or before kk + 8 <= k; the lanes past the popcount are overwritten by
// the next step or lie beyond the count. The tail runs the scalar loop.
int Avx2PackNonzero(const float* x, int k, float* values, int* rows) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256i nibbles = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
  const __m256i step = _mm256_set1_epi32(8);
  __m256i positions = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  int cnt = 0;
  int kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256 v = _mm256_loadu_ps(x + kk);
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_NEQ_UQ)));
    const __m256i perm = _mm256_srlv_epi32(
        _mm256_set1_epi32(static_cast<int>(kLeftPack[mask])), nibbles);
    _mm256_storeu_ps(values + cnt, _mm256_permutevar8x32_ps(v, perm));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rows + cnt),
                        _mm256_permutevar8x32_epi32(positions, perm));
    cnt += __builtin_popcount(mask);
    positions = _mm256_add_epi32(positions, step);
  }
  for (; kk < k; ++kk) {
    const float xv = x[kk];
    values[cnt] = xv;
    rows[cnt] = kk;
    cnt += xv != 0.0f;
  }
  return cnt;
}

// Leading-lanes mask: lane l is active iff l < m, for m in [1, 8].
__m256i LeadingLanes(int m) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(m),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// One output tile of kVecs 8-column vectors. The accumulators stay in
// registers across the whole reduction (at most 8 of the 16 ymm registers)
// and are stored once. With kMaskLast the tile's last vector is read and
// written through `last`, so a tile can end mid-vector without touching
// memory past column n — not even the weights after the final row.
template <int kVecs, bool kMaskLast>
inline void GatherTile(const float* v, const int* rows, int cnt,
                       const float* w, size_t stride, float* out,
                       __m256i last) {
  __m256 acc[kVecs];
#pragma GCC unroll 8
  for (int q = 0; q < kVecs; ++q) acc[q] = _mm256_setzero_ps();
  for (int t = 0; t < cnt; ++t) {
    const __m256 vt = _mm256_set1_ps(v[t]);
    const float* w_row = w + static_cast<size_t>(rows[t]) * stride;
#pragma GCC unroll 8
    for (int q = 0; q < kVecs; ++q) {
      const __m256 wq = kMaskLast && q == kVecs - 1
                            ? _mm256_maskload_ps(w_row + 8 * q, last)
                            : _mm256_loadu_ps(w_row + 8 * q);
      acc[q] = _mm256_add_ps(acc[q], _mm256_mul_ps(vt, wq));
    }
  }
#pragma GCC unroll 8
  for (int q = 0; q < kVecs; ++q) {
    if (kMaskLast && q == kVecs - 1) {
      _mm256_maskstore_ps(out + 8 * q, last, acc[q]);
    } else {
      _mm256_storeu_ps(out + 8 * q, acc[q]);
    }
  }
}

using GatherTileFn = void (*)(const float*, const int*, int, const float*,
                             size_t, float*, __m256i);

// The masked tile for a remainder of (index + 1) vectors.
constexpr GatherTileFn kRemainderTiles[8] = {
    GatherTile<1, true>, GatherTile<2, true>, GatherTile<3, true>,
    GatherTile<4, true>, GatherTile<5, true>, GatherTile<6, true>,
    GatherTile<7, true>, GatherTile<8, true>,
};

void Avx2GatherRows(const float* v, const int* rows, int cnt, const float* w,
                    float* out, int n) {
  const size_t stride = static_cast<size_t>(n);
  int j = 0;
  for (; j + 64 <= n; j += 64) {
    GatherTile<8, false>(v, rows, cnt, w + j, stride, out + j,
                         _mm256_setzero_si256());
  }
  const int rest = n - j;
  if (rest == 0) return;
  const int vecs = (rest + 7) / 8;
  kRemainderTiles[vecs - 1](v, rows, cnt, w + j, stride, out + j,
                            LeadingLanes(rest - 8 * (vecs - 1)));
}

void Avx2AddInplace(const float* b, float* out, int n) {
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(
        out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) out[j] += b[j];
}

void Avx2Relu(const float* in, float* out, int n) {
  // maxps(x, 0) returns the SECOND operand when x is NaN or the compare
  // ties (-0.0 vs +0.0), which is exactly the scalar `x > 0 ? x : 0`.
  const __m256 zero = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(out + j, _mm256_max_ps(_mm256_loadu_ps(in + j), zero));
  }
  for (; j < n; ++j) out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void Avx2Dot8(const float* a, const float* bt8, int n, float* acc8) {
  // One vector register holds the 8 accumulators; lane l sums
  // a[c] * bt8[c*8+l] over c in index order — the same per-lane sequence as
  // the scalar kernel, so the result is bitwise identical.
  __m256 acc = _mm256_loadu_ps(acc8);
  for (int c = 0; c < n; ++c) {
    const __m256 panel = _mm256_loadu_ps(bt8 + static_cast<size_t>(c) * 8);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(a[c]), panel));
  }
  _mm256_storeu_ps(acc8, acc);
}

const Kernels kAvx2Kernels = {
    Avx2Axpy, Avx2PackNonzero, Avx2GatherRows, Avx2AddInplace, Avx2Relu,
    Avx2Dot8,
};

}  // namespace

const Kernels* Avx2KernelsOrNull() { return &kAvx2Kernels; }

}  // namespace ams::nn::simd::internal

#else  // !__AVX2__

namespace ams::nn::simd::internal {
const Kernels* Avx2KernelsOrNull() { return nullptr; }
}  // namespace ams::nn::simd::internal

#endif  // __AVX2__
