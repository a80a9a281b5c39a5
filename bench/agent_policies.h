#ifndef AMS_BENCH_AGENT_POLICIES_H_
#define AMS_BENCH_AGENT_POLICIES_H_

#include <memory>

#include "eval/recall_curve.h"
#include "rl/agent.h"
#include "sched/basic_policies.h"

namespace ams::bench {

/// Q-greedy policy owning a private agent clone (nets cache activations and
/// are not thread-safe, so evaluation threads each get their own copy).
struct OwnedQGreedy : sched::QGreedyPolicy {
  explicit OwnedQGreedy(std::unique_ptr<rl::Agent> a)
      : sched::QGreedyPolicy(a.get()), agent(std::move(a)) {}
  std::unique_ptr<rl::Agent> agent;
};

inline eval::PolicyFactory QGreedyFactory(rl::Agent* agent) {
  return [agent] { return std::make_unique<OwnedQGreedy>(agent->Clone()); };
}

}  // namespace ams::bench

#endif  // AMS_BENCH_AGENT_POLICIES_H_
