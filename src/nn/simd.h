#ifndef AMS_NN_SIMD_H_
#define AMS_NN_SIMD_H_

namespace ams::nn::simd {

/// Instruction-set tiers the inference kernels can run at. The scalar tier
/// is always compiled; the vector tiers are compiled on their architecture
/// and picked at runtime, so one Release binary runs (fast) everywhere.
enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,  // x86-64, runtime-detected via CPUID
  kNeon = 2,  // aarch64 baseline
};

/// The vectorizable inner loops of the nn substrate, as a function-pointer
/// table resolved once at startup. Every fp32 kernel is elementwise
/// equivalent to its scalar counterpart — vector lanes map to output
/// columns, each lane performs the same mul-then-add sequence in the same
/// order, and no tier may use FMA contraction — so switching tiers never
/// changes results bitwise.
struct Kernels {
  /// out[j] += v * b[j] for j in [0, n). Callers skip v == 0 themselves
  /// (the scalar kernels' sparse zero-skip; adding 0 * b[j] would differ
  /// for inf/NaN inputs).
  void (*axpy)(float v, const float* b, float* out, int n);
  /// Row gather, the forward's workhorse: for j in [0, n),
  ///   out[j] = ((+0 + v[0]*w[rows[0]][j]) + v[1]*w[rows[1]][j]) + ...
  /// over t in [0, cnt), so cnt == 0 stores +0. w is row-major with row
  /// stride n. Every tier rounds each element in that order, the same
  /// sequence as zeroing the row and then one axpy per input (nn_simd_test
  /// checks both). Callers pass only the nonzero inputs in ascending row
  /// order, so an inf/NaN weight row behind a zero input never reaches the
  /// output. The AVX2 tier holds each output tile in registers for the
  /// whole reduction and stores it once, masking its tail so it never reads
  /// or writes past column n. out must not alias the inputs.
  void (*gather_rows)(const float* v, const int* rows, int cnt,
                      const float* w, float* out, int n);
  /// out[j] += b[j].
  void (*add_inplace)(const float* b, float* out, int n);
  /// out[j] = in[j] > 0 ? in[j] : 0, with scalar-identical -0.0/NaN
  /// behavior (both map to +0.0). in == out is allowed.
  void (*relu)(const float* in, float* out, int n);
  /// acc8[l] += sum_c a[c] * bt8[c*8 + l] for l in [0, 8): eight
  /// dot-products against the columns of an n x 8 panel, each lane
  /// accumulating sequentially over c in index order.
  void (*dot8)(const float* a, const float* bt8, int n, float* acc8);
};

/// Human-readable tier name ("scalar", "avx2", "neon").
const char* TierName(Tier tier);

/// Whether this binary both compiled the tier and runs on hardware that
/// supports it.
bool TierSupported(Tier tier);

/// Highest supported tier on this machine.
Tier BestSupportedTier();

/// The tier Active() dispatches to. Resolved once from the AMS_SIMD
/// environment variable: unset/"on"/"auto" pick BestSupportedTier(),
/// "off"/"scalar" force the scalar kernels (kill switch), "avx2"/"neon"
/// force a specific tier and abort if it is unsupported.
Tier ActiveTier();

/// Kernel table for an explicit tier; aborts if unsupported.
const Kernels& KernelsFor(Tier tier);

/// The active kernel table. Hot loops hoist this reference once per call.
const Kernels& Active();

/// Test/bench hook: overrides the active tier (aborts if unsupported).
/// Not thread-safe — call before spawning workers.
void ForceTier(Tier tier);
/// Undoes ForceTier, returning to the AMS_SIMD/auto resolution.
void ResetForcedTier();

namespace internal {
/// Defined in simd_kernels_avx2.cc / simd_kernels_neon.cc; null when the
/// tier was not compiled into this binary.
const Kernels* Avx2KernelsOrNull();
const Kernels* NeonKernelsOrNull();
}  // namespace internal

}  // namespace ams::nn::simd

#endif  // AMS_NN_SIMD_H_
