// NEON kernel tier (aarch64 baseline — no runtime probe needed). Compiled
// with -ffp-contract=off and written with separate vmul/vadd intrinsics
// (never vmla/vfma, which fuse) so results stay bitwise identical to the
// scalar kernels. An empty stub on other architectures.

#include "nn/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>
#include <cstddef>

namespace ams::nn::simd::internal {

namespace {

void NeonAxpy(float v, const float* b, float* out, int n) {
  const float32x4_t vv = vdupq_n_f32(v);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t prod = vmulq_f32(vv, vld1q_f32(b + j));
    vst1q_f32(out + j, vaddq_f32(vld1q_f32(out + j), prod));
  }
  for (; j < n; ++j) out[j] += v * b[j];
}

// Zeroes the row, then one NeonAxpy per input: the scalar tier's sequence
// with vector columns. A register tile like the AVX2 tier's should come
// together with an aarch64 bench_qforward run that shows it pays.
void NeonGatherRows(const float* v, const int* rows, int cnt, const float* w,
                    float* out, int n) {
  for (int j = 0; j < n; ++j) out[j] = 0.0f;
  for (int t = 0; t < cnt; ++t) {
    NeonAxpy(v[t], w + static_cast<size_t>(rows[t]) * n, out, n);
  }
}

void NeonAddInplace(const float* b, float* out, int n) {
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(out + j, vaddq_f32(vld1q_f32(out + j), vld1q_f32(b + j)));
  }
  for (; j < n; ++j) out[j] += b[j];
}

void NeonRelu(const float* in, float* out, int n) {
  // Compare-and-select (not vmaxq, whose NaN behavior differs): x > 0 picks
  // x, else +0.0 — identical to the scalar ternary for -0.0 and NaN.
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t x = vld1q_f32(in + j);
    const uint32x4_t pos = vcgtq_f32(x, zero);
    vst1q_f32(out + j, vbslq_f32(pos, x, zero));
  }
  for (; j < n; ++j) out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void NeonDot8(const float* a, const float* bt8, int n, float* acc8) {
  float32x4_t lo = vld1q_f32(acc8);
  float32x4_t hi = vld1q_f32(acc8 + 4);
  for (int c = 0; c < n; ++c) {
    const float32x4_t ac = vdupq_n_f32(a[c]);
    const float* panel = bt8 + static_cast<size_t>(c) * 8;
    lo = vaddq_f32(lo, vmulq_f32(ac, vld1q_f32(panel)));
    hi = vaddq_f32(hi, vmulq_f32(ac, vld1q_f32(panel + 4)));
  }
  vst1q_f32(acc8, lo);
  vst1q_f32(acc8 + 4, hi);
}

const Kernels kNeonKernels = {
    NeonAxpy, NeonGatherRows, NeonAddInplace, NeonRelu, NeonDot8,
};

}  // namespace

const Kernels* NeonKernelsOrNull() { return &kNeonKernels; }

}  // namespace ams::nn::simd::internal

#else  // !__aarch64__

namespace ams::nn::simd::internal {
const Kernels* NeonKernelsOrNull() { return nullptr; }
}  // namespace ams::nn::simd::internal

#endif  // __aarch64__
