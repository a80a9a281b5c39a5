#ifndef AMS_SCHED_POLICY_REGISTRY_H_
#define AMS_SCHED_POLICY_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/policy_picker.h"
#include "sched/rule_based.h"

namespace ams::sched {

/// Everything a policy constructor may need. Callers fill only the fields
/// their policy uses.
struct PolicyOptions {
  /// Randomness for "random" / "rule_based".
  uint64_t seed = 1;
  /// Items fully executed at each chunk head for "explore_exploit".
  int explore_items = 2;
  /// Rule set for "rule_based"; empty means DefaultRules().
  std::vector<ExecutionRule> rules = {};
};

/// What a policy requires of its caller. Entry points query this instead of
/// hard-coding policy names (e.g. to know whether an agent must be trained
/// before the policy can run).
struct PolicyTraits {
  /// Reads Q from the session predictor (q_greedy): the session needs
  /// WithPredictor.
  bool needs_predictor = false;
  /// Requires items with chunk ids, i.e. a correlated stream
  /// (explore_exploit).
  bool needs_chunked_stream = false;
};

/// The fixed table of scheduling policies by name: the single place where
/// every entry point (LabelingService, ams_label, benches) resolves one.
///
///   explore_exploit, no_policy, optimal, q_greedy, random, rule_based
///
/// Algorithm 1 is not a policy: it runs as a kSerial LabelingService session
/// configured WithPredictor alone, on the kernel's decision-plane picker.
class PolicyRegistry {
 public:
  static bool Contains(const std::string& name);

  /// Traits of a policy; crashes on an unknown name.
  static PolicyTraits Traits(const std::string& name);

  /// All names, sorted.
  static std::vector<std::string> Names();

  /// The names as one comma-separated string (for error messages).
  static std::string JoinedNames();

  /// Builds one worker's policy; crashes with the known names on an unknown
  /// one.
  static std::unique_ptr<PolicyPicker> Create(const std::string& name,
                                              const PolicyOptions& options);
};

}  // namespace ams::sched

#endif  // AMS_SCHED_POLICY_REGISTRY_H_
