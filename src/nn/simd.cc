#include "nn/simd.h"

#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <string>

#include "util/check.h"

// This file (like every kernel file) is compiled with -ffp-contract=off so
// that even a build with -march=native in CMAKE_CXX_FLAGS cannot fuse the
// separate mul+add below into an FMA — bitwise parity across tiers depends
// on it.

namespace ams::nn::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the semantics every vector tier must
// reproduce bitwise (fp32) — they are also the portable fallback.

void ScalarAxpy(float v, const float* b, float* out, int n) {
  for (int j = 0; j < n; ++j) out[j] += v * b[j];
}

void ScalarGatherRows(const float* v, const int* rows, int cnt,
                      const float* w, float* out, int n) {
  // t outer, j inner: one contiguous pass over the output row per input.
  // Walking j outer instead (one accumulator per column) strides across
  // the weight rows and slows the reference tier, which bench_qforward
  // uses as its normalizer.
  for (int j = 0; j < n; ++j) out[j] = 0.0f;
  for (int t = 0; t < cnt; ++t) {
    ScalarAxpy(v[t], w + static_cast<size_t>(rows[t]) * n, out, n);
  }
}

void ScalarAddInplace(const float* b, float* out, int n) {
  for (int j = 0; j < n; ++j) out[j] += b[j];
}

void ScalarRelu(const float* in, float* out, int n) {
  for (int j = 0; j < n; ++j) out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void ScalarDot8(const float* a, const float* bt8, int n, float* acc8) {
  for (int c = 0; c < n; ++c) {
    const float ac = a[c];
    const float* panel = bt8 + static_cast<size_t>(c) * 8;
    for (int l = 0; l < 8; ++l) acc8[l] += ac * panel[l];
  }
}

const Kernels kScalarKernels = {
    ScalarAxpy, ScalarGatherRows, ScalarAddInplace, ScalarRelu, ScalarDot8,
};

// ---------------------------------------------------------------------------
// Dispatch. Resolved once (thread-safe via static init); ForceTier is a
// single-threaded test hook.

struct DispatchState {
  Tier tier;
  const Kernels* kernels;
};

DispatchState Resolve(Tier tier) { return {tier, &KernelsFor(tier)}; }

std::string LowerEnv(const char* value) {
  std::string s(value);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

DispatchState ResolveFromEnv() {
  const char* env = std::getenv("AMS_SIMD");
  if (env == nullptr || *env == '\0') return Resolve(BestSupportedTier());
  const std::string value = LowerEnv(env);
  if (value == "off" || value == "scalar" || value == "0") {
    return Resolve(Tier::kScalar);
  }
  if (value == "on" || value == "auto" || value == "1") {
    return Resolve(BestSupportedTier());
  }
  if (value == "avx2") return Resolve(Tier::kAvx2);  // KernelsFor aborts if unsupported
  if (value == "neon") return Resolve(Tier::kNeon);
  AMS_CHECK(false, "unrecognized AMS_SIMD value '" + std::string(env) +
                       "' (expected off|on|auto|scalar|avx2|neon)");
  return Resolve(Tier::kScalar);  // unreachable
}

DispatchState& State() {
  static DispatchState state = ResolveFromEnv();
  return state;
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
    case Tier::kNeon: return "neon";
  }
  return "unknown";
}

bool TierSupported(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return internal::Avx2KernelsOrNull() != nullptr &&
             __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Tier::kNeon:
      return internal::NeonKernelsOrNull() != nullptr;
  }
  return false;
}

Tier BestSupportedTier() {
  if (TierSupported(Tier::kAvx2)) return Tier::kAvx2;
  if (TierSupported(Tier::kNeon)) return Tier::kNeon;
  return Tier::kScalar;
}

const Kernels& KernelsFor(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return kScalarKernels;
    case Tier::kAvx2: {
      AMS_CHECK(TierSupported(Tier::kAvx2),
                "AVX2 kernels requested but unsupported on this machine");
      return *internal::Avx2KernelsOrNull();
    }
    case Tier::kNeon: {
      AMS_CHECK(TierSupported(Tier::kNeon),
                "NEON kernels requested but unsupported on this machine");
      return *internal::NeonKernelsOrNull();
    }
  }
  AMS_CHECK(false, "unknown kernel tier");
  return kScalarKernels;  // unreachable
}

Tier ActiveTier() { return State().tier; }

const Kernels& Active() { return *State().kernels; }

void ForceTier(Tier tier) { State() = Resolve(tier); }

void ResetForcedTier() { State() = ResolveFromEnv(); }

}  // namespace ams::nn::simd
