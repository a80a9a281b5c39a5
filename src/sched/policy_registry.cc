#include "sched/policy_registry.h"

#include "sched/basic_policies.h"
#include "sched/explore_exploit.h"
#include "util/check.h"

namespace ams::sched {

namespace {

struct Entry {
  const char* name;
  PolicyTraits traits;
  std::unique_ptr<PolicyPicker> (*build)(const PolicyOptions& options);
};

// Sorted by name, the order Names() promises.
const Entry kPolicies[] = {
    {"explore_exploit",
     {/*needs_predictor=*/false, /*needs_chunked_stream=*/true},
     [](const PolicyOptions& options) -> std::unique_ptr<PolicyPicker> {
       return std::make_unique<ExploreExploitPolicy>(options.explore_items);
     }},
    {"no_policy", {},
     [](const PolicyOptions&) -> std::unique_ptr<PolicyPicker> {
       return std::make_unique<NoPolicy>();
     }},
    {"optimal", {},
     [](const PolicyOptions&) -> std::unique_ptr<PolicyPicker> {
       return std::make_unique<OptimalPolicy>();
     }},
    {"q_greedy",
     {/*needs_predictor=*/true, /*needs_chunked_stream=*/false},
     [](const PolicyOptions&) -> std::unique_ptr<PolicyPicker> {
       return std::make_unique<QGreedyPolicy>();
     }},
    {"random", {},
     [](const PolicyOptions& options) -> std::unique_ptr<PolicyPicker> {
       return std::make_unique<RandomPolicy>(options.seed);
     }},
    {"rule_based", {},
     [](const PolicyOptions& options) -> std::unique_ptr<PolicyPicker> {
       return std::make_unique<RuleBasedPolicy>(
           options.rules.empty() ? DefaultRules() : options.rules,
           options.seed);
     }},
};

const Entry* Find(const std::string& name) {
  for (const Entry& entry : kPolicies) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

const Entry& Require(const std::string& name) {
  const Entry* entry = Find(name);
  AMS_CHECK(entry != nullptr, "unknown policy '" + name +
                                  "'; known: " +
                                  PolicyRegistry::JoinedNames());
  return *entry;
}

}  // namespace

bool PolicyRegistry::Contains(const std::string& name) {
  return Find(name) != nullptr;
}

PolicyTraits PolicyRegistry::Traits(const std::string& name) {
  return Require(name).traits;
}

std::vector<std::string> PolicyRegistry::Names() {
  std::vector<std::string> names;
  for (const Entry& entry : kPolicies) names.push_back(entry.name);
  return names;
}

std::string PolicyRegistry::JoinedNames() {
  std::string joined;
  for (const Entry& entry : kPolicies) {
    if (!joined.empty()) joined += ", ";
    joined += entry.name;
  }
  return joined;
}

std::unique_ptr<PolicyPicker> PolicyRegistry::Create(
    const std::string& name, const PolicyOptions& options) {
  return Require(name).build(options);
}

}  // namespace ams::sched
