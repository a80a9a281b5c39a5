#include "sched/basic_policies.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace ams::sched {

namespace {

// Walks item->order from item->next to the first unstarted model that fits;
// models that no longer fit are skipped, not dropped.
int WalkOrder(const core::PickContext& pick, PolicyItem* item) {
  const double remaining = pick.remaining_time();
  for (size_t i = item->next; i < item->order.size(); ++i) {
    const int m = item->order[i];
    if ((*pick.started)[static_cast<size_t>(m)]) continue;
    if (pick.planned_time[m] <= remaining) {
      if (i == item->next) ++item->next;
      return m;
    }
  }
  return -1;
}

}  // namespace

RandomPolicy::RandomPolicy(uint64_t seed) : rng_(seed) {}

void RandomPolicy::Arm(PolicyItem* item) {
  item->order.resize(static_cast<size_t>(item->zoo->num_models()));
  std::iota(item->order.begin(), item->order.end(), 0);
  rng_.Shuffle(&item->order);
  item->next = 0;
}

int RandomPolicy::Pick(const core::PickContext& pick, PolicyItem* item) {
  return WalkOrder(pick, item);
}

int NoPolicy::Pick(const core::PickContext& pick, PolicyItem* item) {
  (void)item;
  const double remaining = pick.remaining_time();
  for (int k = 0; k < pick.num_unstarted; ++k) {
    const int m = pick.unstarted[k];
    if (pick.planned_time[m] <= remaining) return m;
  }
  return -1;
}

void OptimalPolicy::Arm(PolicyItem* item) {
  AMS_CHECK(item->oracle != nullptr,
            "OptimalPolicy is an oracle baseline and needs stored outputs");
  const data::Oracle& oracle = *item->oracle;
  const int id = item->item;
  item->order.clear();
  for (int m = 0; m < oracle.num_models(); ++m) {
    if (oracle.ModelSoloValue(id, m) > 0.0) item->order.push_back(m);
  }
  std::sort(item->order.begin(), item->order.end(), [&](int a, int b) {
    return oracle.ModelSoloValue(id, a) > oracle.ModelSoloValue(id, b);
  });
  item->next = 0;
}

int OptimalPolicy::Pick(const core::PickContext& pick, PolicyItem* item) {
  return WalkOrder(pick, item);
}

void QGreedyPolicy::Arm(PolicyItem* item) {
  AMS_CHECK(item->slot != nullptr &&
                item->slot->plane()->row_kind() == core::DecisionRow::kQ,
            "q_greedy reads Q from the session predictor; configure "
            "WithPredictor");
}

int QGreedyPolicy::Pick(const core::PickContext& pick, PolicyItem* item) {
  core::DecisionPlane::RowView q = item->slot->Row(*pick.state);
  const double remaining = pick.remaining_time();
  int best = -1;
  double best_q = 0.0;
  for (int k = 0; k < pick.num_unstarted; ++k) {
    const int m = pick.unstarted[k];
    if (pick.planned_time[m] > remaining) continue;
    const double qm = q[m];
    if (best == -1 || qm > best_q) {
      best = m;
      best_q = qm;
    }
  }
  return best;
}

}  // namespace ams::sched
