#ifndef AMS_SCHED_POLICY_REGISTRY_H_
#define AMS_SCHED_POLICY_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "sched/policy.h"
#include "sched/rule_based.h"

namespace ams::sched {

/// Everything a registered policy constructor may need. Callers fill only
/// the fields their policy uses; constructors crash with a clear message on
/// a missing requirement (e.g. "q_greedy" without a predictor).
struct PolicyOptions {
  /// Q-value source for "q_greedy". Must outlive the policy. Not cloned
  /// here: clone per thread before constructing when the predictor is
  /// stateful (rl::Agent is).
  core::ModelValuePredictor* predictor = nullptr;
  /// Randomness for "random" / "rule_based".
  uint64_t seed = 1;
  /// Items fully executed at each chunk head for "explore_exploit".
  int explore_items = 2;
  /// Rule set for "rule_based"; empty means DefaultRules().
  std::vector<ExecutionRule> rules;
};

/// Constructs one policy instance from options.
using NamedPolicyFactory =
    std::function<std::unique_ptr<SchedulingPolicy>(const PolicyOptions&)>;

/// What a registered policy requires of its caller. Entry points query this
/// instead of hard-coding policy names (e.g. to know whether an agent must
/// be trained before the policy can run).
struct PolicyTraits {
  /// Requires PolicyOptions::predictor (q_greedy).
  bool needs_predictor = false;
  /// Requires items with chunk ids, i.e. a correlated stream
  /// (explore_exploit).
  bool needs_chunked_stream = false;
};

/// String-keyed factory of scheduling policies: the single place where every
/// entry point (LabelingService, ams_label, benches) resolves a policy name.
/// The built-ins are registered up front:
///
///   random, no_policy, optimal, q_greedy, rule_based, explore_exploit
///
/// Algorithm 1 is not a policy: it runs as a kSerial LabelingService session
/// configured WithPredictor, on the kernel's decision-plane picker.
///
/// Thread-safe. Extensions Register() additional names at startup.
class PolicyRegistry {
 public:
  /// The process-wide registry with the built-ins pre-registered.
  static PolicyRegistry& Global();

  PolicyRegistry();

  /// Registers a new policy; crashes if the name is already taken.
  void Register(const std::string& name, NamedPolicyFactory factory,
                PolicyTraits traits = {});

  bool Contains(const std::string& name) const;

  /// Traits of a registered policy; crashes on an unknown name.
  PolicyTraits Traits(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  /// The registered names as one comma-separated string (for error
  /// messages).
  std::string JoinedNames() const;

  /// Creates a policy; crashes with the known names on an unknown one.
  std::unique_ptr<SchedulingPolicy> Create(const std::string& name,
                                           const PolicyOptions& options) const;

  /// Creates a policy, or returns nullptr on an unknown name.
  std::unique_ptr<SchedulingPolicy> TryCreate(
      const std::string& name, const PolicyOptions& options) const;

 private:
  struct Entry {
    NamedPolicyFactory factory;
    PolicyTraits traits;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace ams::sched

#endif  // AMS_SCHED_POLICY_REGISTRY_H_
