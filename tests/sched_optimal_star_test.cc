// Tests of the optimal* relaxed bounds (§V-C): they must upper-bound every
// feasible policy and behave monotonically in the budget.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "sched/basic_policies.h"
#include "sched/optimal_star.h"

namespace ams::sched {
namespace {

class OptimalStarTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::Voc2012(), zoo_->labels(), 60, 23));
    oracle_ = new data::Oracle(zoo_, dataset_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }
  // An oracle-backed session under `constraints`; `factory` picks a serial
  // policy, and without one the session packs randomly (seed 1).
  static core::LabelingService Session(
      const core::ScheduleConstraints& constraints,
      const core::LabelingService::PolicyFactory& factory = nullptr) {
    core::LabelingServiceBuilder builder(zoo_);
    builder.WithOracle(oracle_).WithConstraints(constraints);
    if (factory != nullptr) {
      builder.WithMode(core::ExecutionMode::kSerial).WithPolicyFactory(factory);
    } else {
      builder.WithMode(core::ExecutionMode::kParallelRandom).WithSeed(1);
    }
    return builder.Build();
  }
  static double Value(core::LabelingService* session, int item) {
    return session->Submit(core::WorkItem::Stored(item)).schedule.value;
  }
  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* OptimalStarTest::zoo_ = nullptr;
data::Dataset* OptimalStarTest::dataset_ = nullptr;
data::Oracle* OptimalStarTest::oracle_ = nullptr;

TEST_F(OptimalStarTest, MonotoneInBudgetAndSaturates) {
  for (int item = 0; item < 20; ++item) {
    double prev = 0.0;
    for (double budget : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
      const double value = OptimalStarValueDeadline(*oracle_, item, budget);
      EXPECT_GE(value, prev - 1e-9);
      prev = value;
    }
    // With the whole "no policy" budget the bound recalls everything.
    const double full =
        OptimalStarValueDeadline(*oracle_, item, oracle_->TotalTime(item));
    EXPECT_NEAR(full, oracle_->TrueTotalValue(item), 1e-6);
    EXPECT_DOUBLE_EQ(OptimalStarValueDeadline(*oracle_, item, 0.0), 0.0);
  }
}

TEST_F(OptimalStarTest, DominatesRandomAndTracksOptimalClosely) {
  // SV-C: optimal* is the paper's reference upper bound. For submodular f a
  // ratio greedy with a fractional tail is not a *certified* bound (the
  // paper itself hedges with "in most cases"), so the hard assertion is
  // dominance over random per item, plus closeness to the value-ordered
  // optimal policy (>= 85% per item, >= 100% on average).
  const std::vector<double> deadlines = {0.3, 0.8, 1.5, 3.0};
  std::vector<core::LabelingService> random, optimal;
  for (const double deadline : deadlines) {
    core::ScheduleConstraints constraints;
    constraints.time_budget_s = deadline;
    random.push_back(Session(
        constraints, [] { return std::make_unique<RandomPolicy>(3); }));
    optimal.push_back(Session(
        constraints, [] { return std::make_unique<OptimalPolicy>(); }));
  }
  double bound_sum = 0.0, optimal_sum = 0.0;
  for (int item = 0; item < oracle_->num_items(); ++item) {
    for (size_t d = 0; d < deadlines.size(); ++d) {
      const double deadline = deadlines[d];
      const double bound = OptimalStarValueDeadline(*oracle_, item, deadline);
      EXPECT_GE(bound + 1e-9, Value(&random[d], item));
      const double exact = Value(&optimal[d], item);
      EXPECT_GE(bound + 1e-9, exact * 0.85)
          << "item " << item << " deadline " << deadline;
      bound_sum += bound;
      optimal_sum += exact;
    }
  }
  EXPECT_GE(bound_sum + 1e-9, optimal_sum);
}

TEST_F(OptimalStarTest, MemoryBoundDominatesParallelRuns) {
  for (int item = 0; item < 20; ++item) {
    for (double mem_gb : {8.0, 16.0}) {
      for (double deadline : {0.5, 1.0, 2.0}) {
        const double bound = OptimalStarValueDeadlineMemory(
            *oracle_, item, deadline, mem_gb * 1024.0);
        core::ScheduleConstraints constraints;
        constraints.time_budget_s = deadline;
        constraints.memory_budget_mb = mem_gb * 1024.0;
        core::LabelingService packing = Session(constraints);
        // Same caveat as above: a heuristic reference, so assert near-
        // dominance per item rather than a certified bound.
        EXPECT_GE(bound + 1e-9, Value(&packing, item) * 0.9)
            << "item " << item << " mem " << mem_gb << " dl " << deadline;
      }
    }
  }
}

TEST_F(OptimalStarTest, MemoryBoundLooserThanOrEqualToUnlimitedMemory) {
  // With memory >= the biggest model * 30, the area constraint reduces to
  // the deadline-only bound scaled by parallelism; at minimum it must be at
  // least the serial deadline bound.
  for (int item = 0; item < 20; ++item) {
    const double serial = OptimalStarValueDeadline(*oracle_, item, 1.0);
    const double parallel =
        OptimalStarValueDeadlineMemory(*oracle_, item, 1.0, 1e9);
    EXPECT_GE(parallel + 1e-9, serial);
  }
}

}  // namespace
}  // namespace ams::sched
