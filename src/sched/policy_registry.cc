#include "sched/policy_registry.h"

#include <utility>

#include "sched/basic_policies.h"
#include "sched/explore_exploit.h"
#include "util/check.h"

namespace ams::sched {

namespace {

core::ModelValuePredictor* RequirePredictor(const PolicyOptions& options,
                                            const char* name) {
  AMS_CHECK(options.predictor != nullptr,
            std::string("policy '") + name +
                "' needs PolicyOptions::predictor");
  return options.predictor;
}

constexpr PolicyTraits kPredictorDriven = {/*needs_predictor=*/true,
                                           /*needs_chunked_stream=*/false};
constexpr PolicyTraits kChunked = {/*needs_predictor=*/false,
                                   /*needs_chunked_stream=*/true};

}  // namespace

PolicyRegistry& PolicyRegistry::Global() {
  static PolicyRegistry* registry = new PolicyRegistry();
  return *registry;
}

PolicyRegistry::PolicyRegistry() {
  Register("random", [](const PolicyOptions& options) {
    return std::make_unique<RandomPolicy>(options.seed);
  });
  Register("no_policy", [](const PolicyOptions&) {
    return std::make_unique<NoPolicy>();
  });
  Register("optimal", [](const PolicyOptions&) {
    return std::make_unique<OptimalPolicy>();
  });
  Register(
      "q_greedy",
      [](const PolicyOptions& options) {
        return std::make_unique<QGreedyPolicy>(
            RequirePredictor(options, "q_greedy"));
      },
      kPredictorDriven);
  Register("rule_based", [](const PolicyOptions& options) {
    return std::make_unique<RuleBasedPolicy>(
        options.rules.empty() ? DefaultRules() : options.rules, options.seed);
  });
  Register(
      "explore_exploit",
      [](const PolicyOptions& options) {
        return std::make_unique<ExploreExploitPolicy>(options.explore_items);
      },
      kChunked);
}

void PolicyRegistry::Register(const std::string& name,
                              NamedPolicyFactory factory,
                              PolicyTraits traits) {
  AMS_CHECK(factory != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  const bool inserted =
      entries_.emplace(name, Entry{std::move(factory), traits}).second;
  AMS_CHECK(inserted, "policy '" + name + "' is already registered");
}

bool PolicyRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(name) != 0;
}

PolicyTraits PolicyRegistry::Traits(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  AMS_CHECK(it != entries_.end(), "unknown policy '" + name + "'");
  return it->second.traits;
}

std::vector<std::string> PolicyRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::string PolicyRegistry::JoinedNames() const {
  std::string joined;
  for (const std::string& name : Names()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

std::unique_ptr<SchedulingPolicy> PolicyRegistry::Create(
    const std::string& name, const PolicyOptions& options) const {
  std::unique_ptr<SchedulingPolicy> policy = TryCreate(name, options);
  if (policy == nullptr) {
    AMS_CHECK(false,
              "unknown policy '" + name + "'; known: " + JoinedNames());
  }
  return policy;
}

std::unique_ptr<SchedulingPolicy> PolicyRegistry::TryCreate(
    const std::string& name, const PolicyOptions& options) const {
  NamedPolicyFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) return nullptr;
    factory = it->second.factory;
  }
  return factory(options);
}

}  // namespace ams::sched
