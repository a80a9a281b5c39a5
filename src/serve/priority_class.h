#ifndef AMS_SERVE_PRIORITY_CLASS_H_
#define AMS_SERVE_PRIORITY_CLASS_H_

namespace ams::serve {

/// Multi-tenant service band of one serving request. Lower value = more
/// important. The admission queue keeps one EDF band per class, arbitrates
/// between classes with weighted round-robin at 8:4:1, and sheds batch work
/// before interactive work (see AdmissionQueue).
enum class PriorityClass {
  /// Latency-sensitive user-facing traffic (paid tier, dashboards).
  kInteractive = 0,
  /// The default band: everything without an explicit contract.
  kStandard = 1,
  /// Throughput traffic that tolerates delay (backfills, re-labeling).
  kBatch = 2,
};

inline constexpr int kNumPriorityClasses = 3;

const char* PriorityClassName(PriorityClass cls);

/// Parses "interactive" / "standard" / "batch"; false on anything else
/// (`*out` untouched).
bool PriorityClassFromName(const char* name, PriorityClass* out);

}  // namespace ams::serve

#endif  // AMS_SERVE_PRIORITY_CLASS_H_
