#ifndef AMS_SCHED_POLICY_PICKER_H_
#define AMS_SCHED_POLICY_PICKER_H_

#include <cstddef>
#include <vector>

#include "core/decision_plane.h"
#include "core/schedule_kernel.h"
#include "data/oracle.h"
#include "zoo/model_zoo.h"

namespace ams::sched {

/// One item as a registry policy sees it: what the item is, and the state
/// the policy keeps for it. A resident item record owns one and re-arms it
/// for every item, so items in flight side by side on one worker (an
/// ItemStepper's) never share per-item state.
struct PolicyItem {
  // Set by the record.
  const zoo::ModelZoo* zoo = nullptr;
  /// The stored outputs of the item; null for a live scene.
  const data::Oracle* oracle = nullptr;
  int item = -1;
  /// Chunk id for correlated streams; -1 for i.i.d. items.
  int chunk_id = -1;
  /// The record's kQ decision row over the session predictor (q_greedy);
  /// null when the session has none.
  core::DecisionPlane::Slot* slot = nullptr;

  // Set by PolicyPicker::Arm.
  /// random: the item's model permutation; optimal: the models worth
  /// running, best first. Walked from `next`, the first entry not started.
  std::vector<int> order;
  size_t next = 0;
  /// rule_based: the execution weight of every task, and the rules fired.
  std::vector<double> task_weight;
  std::vector<bool> fired;
  /// explore_exploit: the chunk's per-model "paid off" flags (owned by the
  /// policy), and whether this item explores.
  std::vector<bool>* valuable = nullptr;
  bool exploring = false;
};

/// A registry policy as the scheduling kernel runs it: one object per
/// session worker, holding what carries across items (a seeded rng, chunk
/// knowledge), while what it keeps for one item lives in a PolicyItem. The
/// core::ModelPicker a record installs calls Pick only when the kernel is
/// idle: every registry policy schedules serially.
class PolicyPicker {
 public:
  virtual ~PolicyPicker() = default;

  /// Sets `item` up for a new item. Called on every arm, before the record
  /// skips an item that needs no scheduling.
  virtual void Arm(PolicyItem* item) { (void)item; }

  /// An unstarted model whose planned time fits the remaining time (the
  /// rule Algorithm 1 reads and the kernel checks), or -1 to stop.
  virtual int Pick(const core::PickContext& pick, PolicyItem* item) = 0;

  /// A finished execution with O'(m, d): the adaptive policies (rule_based,
  /// explore_exploit) react here.
  virtual void OnExecuted(const core::ExecutionRecord& record,
                          PolicyItem* item) {
    (void)record;
    (void)item;
  }

  /// True when an item's schedule depends on the items the worker labeled
  /// before it, so it changes when an ItemStepper interleaves items.
  virtual bool depends_on_item_order() const { return false; }
};

}  // namespace ams::sched

#endif  // AMS_SCHED_POLICY_PICKER_H_
