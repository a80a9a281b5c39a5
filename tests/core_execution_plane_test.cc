// Tests of the execution-plane seams: batched vs scalar Q-prediction
// (bitwise parity on rl::Agent, and SubmitBatch decision rows served by the
// inference forward), lean vs full kernel mode (identical
// value/makespan/recall), the session's pooled predictor clones, and the
// resident item records that Submit and ItemStepper re-arm per item
// (bitwise equal to a fresh kernel per item).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/decision_plane.h"
#include "core/labeling_service.h"
#include "core/value.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "eval/deadline_sweep.h"
#include "eval/memory_sweep.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "sched/basic_policies.h"
#include "sched/policy_registry.h"
#include "util/rng.h"

namespace ams::core {
namespace {

std::unique_ptr<rl::Agent> MakeAgent(const zoo::ModelZoo& zoo,
                                     nn::NetKind kind, uint64_t seed) {
  nn::MlpConfig config;
  config.input_dim = zoo.labels().total_labels();
  config.hidden_dims = {64};
  config.output_dim = zoo.num_models() + 1;
  std::unique_ptr<nn::QValueNet> net;
  if (kind == nn::NetKind::kDueling) {
    net = std::make_unique<nn::DuelingMlp>(config, seed);
  } else {
    net = std::make_unique<nn::Mlp>(config, seed);
  }
  return std::make_unique<rl::Agent>(std::move(net), kind);
}

// Thread-safe predictor that counts how its predictions are served; clones
// share the counters, so per-worker clones still report into one place.
class CountingPredictor : public ModelValuePredictor {
 public:
  CountingPredictor(int num_actions, std::atomic<long>* scalar_calls,
                    std::atomic<long>* batch_calls)
      : q_(static_cast<size_t>(num_actions), 1.0),
        scalar_calls_(scalar_calls),
        batch_calls_(batch_calls) {
    q_.back() = -1.0;  // END never outranks a model
  }
  std::vector<double> PredictValues(const std::vector<float>&) override {
    ++*scalar_calls_;
    return q_;
  }
  void PredictValuesBatchTo(const std::vector<float>* const*,
                            const std::vector<int>* const*, size_t count,
                            double* out) override {
    ++*batch_calls_;
    for (size_t i = 0; i < count; ++i) {
      std::copy(q_.begin(), q_.end(), out + i * q_.size());
    }
  }
  int num_actions() const override { return static_cast<int>(q_.size()); }
  std::unique_ptr<ModelValuePredictor> ClonePredictor() const override {
    return std::make_unique<CountingPredictor>(*this);
  }

 private:
  std::vector<double> q_;
  std::atomic<long>* scalar_calls_;
  std::atomic<long>* batch_calls_;
};

class ExecutionPlaneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MirFlickr25(), zoo_->labels(), 48, 31));
    oracle_ = new data::Oracle(zoo_, dataset_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }

  static std::vector<WorkItem> StoredItems(int count) {
    std::vector<WorkItem> items;
    for (int i = 0; i < count; ++i) items.push_back(WorkItem::Stored(i));
    return items;
  }

  static ScheduleConstraints ParallelConstraints() {
    ScheduleConstraints constraints;
    constraints.time_budget_s = 1.0;
    constraints.memory_budget_mb = 8000.0;
    return constraints;
  }

  // The outcome fields every kernel mode must agree on.
  static void ExpectSameOutcome(const LabelOutcome& a, const LabelOutcome& b) {
    EXPECT_EQ(a.recall, b.recall);
    EXPECT_EQ(a.schedule.value, b.schedule.value);
    EXPECT_EQ(a.schedule.makespan_s, b.schedule.makespan_s);
    EXPECT_EQ(a.schedule.peak_mem_mb, b.schedule.peak_mem_mb);
    EXPECT_EQ(a.schedule.num_executions, b.schedule.num_executions);
  }

  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* ExecutionPlaneTest::zoo_ = nullptr;
data::Dataset* ExecutionPlaneTest::dataset_ = nullptr;
data::Oracle* ExecutionPlaneTest::oracle_ = nullptr;

// --- batched prediction ----------------------------------------------------

TEST_F(ExecutionPlaneTest, AgentBatchedPredictionIsBitwiseIdentical) {
  for (nn::NetKind kind : {nn::NetKind::kMlp, nn::NetKind::kDueling}) {
    std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, kind, 7);
    // Real mid-schedule states of varying density, plus the all-zero state.
    std::vector<std::vector<float>> states;
    for (int item = 0; item < 8; ++item) {
      LabelingState state(zoo_->labels().total_labels(), zoo_->num_models());
      for (int m = 0; m < 4 * item; ++m) {
        state.Apply(m % zoo_->num_models(), oracle_->Output(item, m % 30));
      }
      states.push_back(state.Features());
    }
    std::vector<const std::vector<float>*> ptrs;
    for (const auto& s : states) ptrs.push_back(&s);

    const size_t stride = static_cast<size_t>(agent->num_actions());
    std::vector<double> batched(states.size() * stride);
    agent->PredictValuesBatchTo(ptrs.data(), /*set_indices=*/nullptr,
                                ptrs.size(), batched.data());
    for (size_t i = 0; i < states.size(); ++i) {
      const std::vector<double> scalar = agent->PredictValues(states[i]);
      ASSERT_EQ(scalar.size(), stride);
      for (size_t j = 0; j < stride; ++j) {
        // Exact equality: the batched forward must be bit-for-bit the
        // scalar forward, or batched scheduling could diverge.
        EXPECT_EQ(batched[i * stride + j], scalar[j])
            << "kind=" << static_cast<int>(kind) << " state " << i
            << " action " << j;
      }
    }
  }
}

TEST_F(ExecutionPlaneTest, BatchedSessionsCoalesceAllPredictions) {
  std::atomic<long> scalar_calls{0}, batch_calls{0};
  CountingPredictor predictor(zoo_->num_models() + 1, &scalar_calls,
                              &batch_calls);
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithOracle(oracle_)
                                .WithPredictor(&predictor)
                                .WithMode(ExecutionMode::kParallel)
                                .WithConstraints(ParallelConstraints())
                                .WithWorkers(1)
                                .Build();
  service.SubmitBatch(StoredItems(24));
  EXPECT_EQ(scalar_calls.load(), 0)
      << "SubmitBatch decision rows must come from the inference forward "
         "(PredictValuesBatchTo), never the training forward PredictValues";
  EXPECT_GT(batch_calls.load(), 0);
}

// --- lean kernel mode ------------------------------------------------------

TEST_F(ExecutionPlaneTest, LeanKernelMatchesFullForPredictorSessions) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 13);
  const std::vector<WorkItem> items = StoredItems(32);
  std::vector<LabelOutcome> full, lean;
  for (KernelMode mode : {KernelMode::kFull, KernelMode::kLean}) {
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithPredictor(agent.get())
                                  .WithMode(ExecutionMode::kParallel)
                                  .WithConstraints(ParallelConstraints())
                                  .WithKernelMode(mode)
                                  .WithWorkers(2)
                                  .Build();
    (mode == KernelMode::kLean ? lean : full) = service.SubmitBatch(items);
  }
  ASSERT_EQ(full.size(), lean.size());
  for (size_t i = 0; i < full.size(); ++i) {
    ExpectSameOutcome(full[i], lean[i]);
    // Lean skips materialization only.
    EXPECT_TRUE(lean[i].schedule.executions.empty());
    EXPECT_TRUE(lean[i].schedule.recalled_labels.empty());
    EXPECT_EQ(static_cast<int>(full[i].schedule.executions.size()),
              full[i].schedule.num_executions);
  }
}

TEST_F(ExecutionPlaneTest, LeanKernelMatchesFullForPolicySessions) {
  const std::vector<WorkItem> items = StoredItems(32);
  ScheduleConstraints constraints;
  constraints.time_budget_s = 0.8;
  std::vector<LabelOutcome> full, lean;
  for (KernelMode mode : {KernelMode::kFull, KernelMode::kLean}) {
    // The oracle-ordered policy exercises the lean-mode hook path: the
    // policies still receive every execution's fresh labels via OnExecuted.
    LabelingService service =
        LabelingServiceBuilder(zoo_)
            .WithOracle(oracle_)
            .WithMode(ExecutionMode::kSerial)
            .WithPolicyFactory(
                [] { return std::make_unique<sched::OptimalPolicy>(); })
            .WithConstraints(constraints)
            .WithKernelMode(mode)
            .WithWorkers(2)
            .Build();
    (mode == KernelMode::kLean ? lean : full) = service.SubmitBatch(items);
  }
  for (size_t i = 0; i < full.size(); ++i) ExpectSameOutcome(full[i], lean[i]);
}

TEST_F(ExecutionPlaneTest, DeadlineSweepLeanPathMatchesFullRecall) {
  std::vector<int> items;
  for (int i = 0; i < 24; ++i) items.push_back(i);
  const std::vector<double> deadlines = {0.25, 0.5, 1.0, 2.0};
  // Every worker's policy gets seed 19, in the sweep and in the replica.
  const auto factory = [] {
    return std::make_unique<sched::RandomPolicy>(19);
  };
  // The sweep runs on the lean kernel path internally.
  const eval::DeadlineSweep sweep = eval::ComputeDeadlineSweep(
      eval::PolicySpec{"random", {/*seed=*/19}}, *oracle_, items, deadlines,
      /*num_threads=*/2);
  // Full-path replica of the sweep's sessions.
  for (size_t d = 0; d < deadlines.size(); ++d) {
    ScheduleConstraints constraints;
    constraints.time_budget_s = deadlines[d];
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithMode(ExecutionMode::kSerial)
                                  .WithPolicyFactory(factory)
                                  .WithConstraints(constraints)
                                  .WithKernelMode(KernelMode::kFull)
                                  .WithWorkers(2)
                                  .Build();
    const std::vector<LabelOutcome> outcomes =
        service.SubmitBatch(StoredItems(static_cast<int>(items.size())));
    double sum = 0.0;
    for (const LabelOutcome& outcome : outcomes) sum += outcome.recall;
    EXPECT_EQ(sweep.avg_recall[d], sum / static_cast<double>(items.size()))
        << "deadline " << deadlines[d];
  }
}

TEST_F(ExecutionPlaneTest, MemorySweepLeanPathMatchesFullRecall) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 17);
  std::vector<int> items;
  for (int i = 0; i < 24; ++i) items.push_back(i);
  const std::vector<double> deadlines = {0.5, 1.0};
  const double mem_budget = 8000.0;
  // The sweep runs lean internally.
  const eval::MemorySweep sweep =
      eval::ComputeMemorySweep(agent.get(), *oracle_, items, mem_budget,
                               deadlines, /*seed=*/3, /*num_threads=*/2);
  for (size_t d = 0; d < deadlines.size(); ++d) {
    ScheduleConstraints constraints;
    constraints.time_budget_s = deadlines[d];
    constraints.memory_budget_mb = mem_budget;
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithPredictor(agent.get())
                                  .WithMode(ExecutionMode::kParallel)
                                  .WithConstraints(constraints)
                                  .WithKernelMode(KernelMode::kFull)
                                  .WithWorkers(2)
                                  .Build();
    const std::vector<LabelOutcome> outcomes =
        service.SubmitBatch(StoredItems(static_cast<int>(items.size())));
    double sum = 0.0;
    for (const LabelOutcome& outcome : outcomes) sum += outcome.recall;
    EXPECT_EQ(sweep.avg_recall[d], sum / static_cast<double>(items.size()))
        << "deadline " << deadlines[d];
  }
}

// --- predictor pool --------------------------------------------------------

TEST_F(ExecutionPlaneTest, PooledWorkerClonesTrackLiveWeights) {
  // The session pools per-worker clones across batches; mutating the source
  // predictor between batches (training step, checkpoint reload) must still
  // be picked up, as if the clones were rebuilt per batch.
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 41);
  std::unique_ptr<rl::Agent> other = MakeAgent(*zoo_, nn::NetKind::kMlp, 43);
  const std::vector<WorkItem> items = StoredItems(16);
  auto build = [&](rl::Agent* predictor) {
    return LabelingServiceBuilder(zoo_)
        .WithOracle(oracle_)
        .WithPredictor(predictor)
        .WithMode(ExecutionMode::kParallel)
        .WithConstraints(ParallelConstraints())
        .WithWorkers(2)
        .Build();
  };
  LabelingService service = build(agent.get());
  service.SubmitBatch(items);  // clones created with agent's initial weights
  agent->net()->CopyWeightsFrom(other->net());
  const std::vector<LabelOutcome> after = service.SubmitBatch(items);
  LabelingService fresh = build(other.get());
  const std::vector<LabelOutcome> expected = fresh.SubmitBatch(items);
  for (size_t i = 0; i < items.size(); ++i) {
    ExpectSameOutcome(expected[i], after[i]);
  }
}

// --- resident item records ------------------------------------------------

TEST_F(ExecutionPlaneTest, SubmitRecordMovesWithItsSession) {
  // Submit's resident record lives in the session state, so it moves with
  // the session and must keep no pointer into the session it was built in:
  // labeling after the original is freed (heap, so ASan sees any read of
  // it) matches a session that never moved.
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 23);
  const auto build = [&] {
    return LabelingServiceBuilder(zoo_)
        .WithOracle(oracle_)
        .WithPredictor(agent.get())
        .WithMode(ExecutionMode::kParallel)
        .WithConstraints(ParallelConstraints())
        .WithRecallTarget(0.5)
        .WithWorkers(1)
        .Build();
  };
  LabelingService reference = build();
  auto original = std::make_unique<LabelingService>(build());
  ExpectSameOutcome(reference.Submit(WorkItem::Stored(0)),
                    original->Submit(WorkItem::Stored(0)));
  LabelingService moved = std::move(*original);
  original.reset();
  for (int i = 1; i < 16; ++i) {
    ExpectSameOutcome(reference.Submit(WorkItem::Stored(i)),
                      moved.Submit(WorkItem::Stored(i)));
  }
}

// An untrained net plus a per-action offset: the offsets keep greedy from
// stopping at the net's flat all-zero row, and the net keeps every row
// state-dependent, so a row served for the wrong label set changes picks.
// set_offset() stands in for a predictor updated between Submit calls (a
// training loop deciding from the session's own predictor).
class OffsetPredictor : public ModelValuePredictor {
 public:
  OffsetPredictor(std::unique_ptr<ModelValuePredictor> net,
                  std::vector<double> offset)
      : net_(std::move(net)), offset_(std::move(offset)) {}

  void set_offset(std::vector<double> offset) { offset_ = std::move(offset); }

  std::vector<double> PredictValues(const std::vector<float>& x) override {
    std::vector<double> q = net_->PredictValues(x);
    for (size_t a = 0; a < q.size(); ++a) q[a] += offset_[a];
    return q;
  }
  void PredictValuesBatchTo(const std::vector<float>* const* states,
                            const std::vector<int>* const* set_indices,
                            size_t count, double* out) override {
    net_->PredictValuesBatchTo(states, set_indices, count, out);
    for (size_t i = 0; i < count; ++i) {
      for (size_t a = 0; a < offset_.size(); ++a) {
        out[i * offset_.size() + a] += offset_[a];
      }
    }
  }
  int num_actions() const override { return net_->num_actions(); }
  std::unique_ptr<ModelValuePredictor> ClonePredictor() const override {
    return std::make_unique<OffsetPredictor>(net_->ClonePredictor(), offset_);
  }

 private:
  std::unique_ptr<ModelValuePredictor> net_;
  std::vector<double> offset_;
};

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

bool SameOutputs(const std::vector<zoo::LabelOutput>& a,
                 const std::vector<zoo::LabelOutput>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const zoo::LabelOutput& x, const zoo::LabelOutput& y) {
                      return x.label_id == y.label_id &&
                             Bits(x.confidence) == Bits(y.confidence);
                    });
}

// Empty when `got` is `want` bit for bit; otherwise names the first
// difference.
std::string OutcomeDifference(const LabelOutcome& want,
                              const LabelOutcome& got) {
  const ScheduleResult& w = want.schedule;
  const ScheduleResult& g = got.schedule;
  if (Bits(got.recall) != Bits(want.recall)) return "recall";
  if (g.num_executions != w.num_executions) return "execution count";
  if (Bits(g.value) != Bits(w.value)) return "value";
  if (Bits(g.makespan_s) != Bits(w.makespan_s)) return "makespan";
  if (Bits(g.peak_mem_mb) != Bits(w.peak_mem_mb)) return "peak memory";
  if (g.executions.size() != w.executions.size()) return "execution records";
  for (size_t k = 0; k < w.executions.size(); ++k) {
    const ExecutionRecord& a = w.executions[k];
    const ExecutionRecord& b = g.executions[k];
    if (b.model_id != a.model_id || Bits(b.start_s) != Bits(a.start_s) ||
        Bits(b.finish_s) != Bits(a.finish_s) || Bits(b.gain) != Bits(a.gain) ||
        !SameOutputs(a.fresh, b.fresh)) {
      return "execution " + std::to_string(k);
    }
  }
  if (!SameOutputs(w.recalled_labels, g.recalled_labels)) {
    return "recalled labels";
  }
  return "";
}

struct RecordScenario {
  const char* name;
  ExecutionMode mode;
  double time_budget_s;
  double memory_budget_mb;
};

constexpr double kRecordTarget = 0.6;
constexpr uint64_t kRecordSeed = 5;

// One item through a fresh kernel: a new context and picker (over a new
// one-slot decision plane), recall from ValueAccumulator::AddModel, and the
// label sets the item passed through.
struct FreshRun {
  LabelOutcome outcome;
  bool skipped = false;            // recall target met before any execution
  bool stopped_by_target = false;  // the target hook stopped the kernel
  std::vector<std::vector<int>> label_sets;  // empty set, then per event
};

FreshRun RunFresh(const RecordScenario& scenario, KernelMode kernel_mode,
                  ModelValuePredictor* predictor, const data::Oracle* oracle,
                  const WorkItem& item, uint64_t stream_id) {
  FreshRun run;
  run.label_sets.emplace_back();
  std::unique_ptr<ExecutionContext> exec;
  std::optional<ValueAccumulator> acc;
  if (item.item >= 0) {
    exec = std::make_unique<ReplayExecutionContext>(oracle, item.item);
    acc.emplace(oracle, item.item);
    if (RecallTargetReached(acc->Recall(), kRecordTarget)) {
      run.skipped = true;
      run.outcome.recall = acc->Recall();
      return run;
    }
  } else {
    exec = std::make_unique<LiveExecutionContext>(&oracle->zoo(), item.scene);
  }
  std::optional<DecisionPlane> plane;
  if (scenario.mode != ExecutionMode::kParallelRandom) {
    plane.emplace(predictor, scenario.mode == ExecutionMode::kGreedy
                                 ? DecisionRow::kQ
                                 : DecisionRow::kSchedulingProfit);
  }
  ModelPicker picker;
  switch (scenario.mode) {
    case ExecutionMode::kGreedy:
      picker = MakeGreedyPicker(plane->NewSlot());
      break;
    case ExecutionMode::kSerial:
      picker = MakeDeadlinePicker(plane->NewSlot());
      break;
    case ExecutionMode::kParallel:
      picker = MakeDeadlineMemoryPicker(plane->NewSlot());
      break;
    case ExecutionMode::kParallelRandom:
      picker = MakeRandomPackingPicker(
          util::HashCombine(kRecordSeed, 0x9A7Au + stream_id));
      break;
  }
  KernelHooks hooks;
  hooks.on_executed = [&](const ExecutionRecord& record,
                          const LabelingState& state) {
    run.label_sets.push_back(state.SetIndices());
    if (!acc.has_value()) return false;
    const double gain = acc->AddModel(record.model_id);
    EXPECT_EQ(Bits(record.gain), Bits(gain))
        << "the kernel's gain must be ValueAccumulator::AddModel's";
    const bool stop = RecallTargetReached(acc->Recall(), kRecordTarget);
    run.stopped_by_target |= stop;
    return stop;
  };
  ScheduleConstraints constraints;
  constraints.time_budget_s = scenario.time_budget_s;
  constraints.memory_budget_mb = scenario.memory_budget_mb;
  run.outcome.schedule =
      RunScheduleKernel(*exec, constraints, picker, hooks, kernel_mode);
  if (acc.has_value()) run.outcome.recall = acc->Recall();
  return run;
}

// True when `next` passes through `prev`'s final label count with another
// label set: the case where a slot left valid across items would serve
// `prev`'s row to `next`.
bool ReachesCountWithOtherSet(const FreshRun& prev, const FreshRun& next) {
  const std::vector<int>& last = prev.label_sets.back();
  if (last.empty()) return false;
  return std::any_of(next.label_sets.begin(), next.label_sets.end(),
                     [&](const std::vector<int>& set) {
                       return set.size() == last.size() && set != last;
                     });
}

// Drives `items` through `stepper` with at most `max_resident` in flight, so
// records are re-armed in varying order; outcomes come back in item order.
std::vector<LabelOutcome> StepThrough(LabelingService::ItemStepper* stepper,
                                      const std::vector<WorkItem>& items,
                                      const std::vector<uint64_t>& stream_ids,
                                      int max_resident) {
  std::vector<LabelOutcome> outcomes(items.size());
  std::vector<size_t> index_of_ticket;
  std::vector<LabelingService::ItemStepper::Completion> done;
  size_t next = 0;
  size_t finished = 0;
  for (int tick = 0; finished < items.size(); ++tick) {
    if (tick > 100000) {
      ADD_FAILURE() << "stepper did not drain";
      break;
    }
    while (next < items.size() && stepper->resident() < max_resident) {
      const uint64_t ticket = stepper->Admit(items[next], stream_ids[next]);
      if (ticket >= index_of_ticket.size()) index_of_ticket.resize(ticket + 1);
      index_of_ticket[ticket] = next++;
    }
    done.clear();
    stepper->Tick(&done);
    for (LabelingService::ItemStepper::Completion& completion : done) {
      outcomes[index_of_ticket[completion.ticket]] =
          std::move(completion.outcome);
      ++finished;
    }
  }
  return outcomes;
}

// Every item that Submit and a stepper label on re-armed resident records
// must be bit for bit the item run through a fresh kernel. The sequence
// covers what a re-arm has to reset: stored and live items, items the
// recall target stops early or skips, consecutive items reaching the same
// label count with other label sets, and, for Submit, a predictor changed
// between items. Each item's first pick queries the empty state, so with a
// frozen predictor a slot still valid from the last item can only hold the
// empty-state row, which is right; after a predictor change that row is
// stale, and only the re-arm's slot invalidation keeps it from being read.
TEST_F(ExecutionPlaneTest, ReArmedRecordsMatchFreshKernels) {
  const double inf = std::numeric_limits<double>::infinity();
  const RecordScenario scenarios[] = {
      {"greedy", ExecutionMode::kGreedy, inf, inf},
      {"algorithm1", ExecutionMode::kSerial, 0.8, inf},
      {"algorithm2", ExecutionMode::kParallel, 1.0, 8000.0},
      {"random_packing", ExecutionMode::kParallelRandom, 1.0, 8000.0},
  };
  nn::MlpConfig config;
  config.input_dim = zoo_->labels().total_labels();
  config.hidden_dims = {16};
  config.output_dim = zoo_->num_models() + 1;
  util::Rng rng(0x5E7u);
  // Two predictor versions. Under `stopping`, END outranks every model at
  // the empty state, so greedy stops before its first execution and leaves
  // its slot valid at label count 0.
  std::vector<double> offset(static_cast<size_t>(config.output_dim));
  std::vector<double> stopping(offset.size());
  for (double& o : offset) o = rng.Uniform(-0.1, 0.1);
  for (double& o : stopping) o = rng.Uniform(-0.1, 0.1);
  offset.back() = 0.05;
  stopping.back() = 5.0;
  OffsetPredictor predictor(
      std::make_unique<rl::Agent>(std::make_unique<nn::Mlp>(config, 9),
                                  nn::NetKind::kMlp),
      offset);

  // An mscoco corpus with items that carry no value at all (5 of 64), to
  // exercise the admission skip. Stored items with every fourth slot a live
  // scene; stream ids as Submit assigns them (stored: the item id; live:
  // the live sequence number).
  const data::Dataset dataset = data::Dataset::Generate(
      data::DatasetProfile::MsCoco(), zoo_->labels(), 64, 41);
  const data::Oracle oracle(zoo_, &dataset);
  std::vector<WorkItem> items;
  std::vector<uint64_t> stream_ids;
  uint64_t live_sequence = 0;
  for (int i = 0; i < dataset.size(); ++i) {
    if (i % 4 == 3) {
      items.push_back(WorkItem::Live(&dataset.item(i).scene));
      stream_ids.push_back(live_sequence++);
    } else {
      items.push_back(WorkItem::Stored(i));
      stream_ids.push_back(static_cast<uint64_t>(i));
    }
  }

  int skipped = 0;
  int stopped = 0;
  int same_count_pairs = 0;
  for (const RecordScenario& scenario : scenarios) {
    for (KernelMode kernel_mode : {KernelMode::kLean, KernelMode::kFull}) {
      const std::string path =
          std::string(scenario.name) +
          (kernel_mode == KernelMode::kLean ? " lean" : " full");
      ScheduleConstraints constraints;
      constraints.time_budget_s = scenario.time_budget_s;
      constraints.memory_budget_mb = scenario.memory_budget_mb;
      LabelingServiceBuilder builder(zoo_);
      builder.WithOracle(&oracle)
          .WithMode(scenario.mode)
          .WithConstraints(constraints)
          .WithKernelMode(kernel_mode)
          .WithWorkers(1)
          .WithSeed(kRecordSeed)
          .WithRecallTarget(kRecordTarget);
      if (scenario.mode != ExecutionMode::kParallelRandom) {
        builder.WithPredictor(&predictor);
      }
      LabelingService session = builder.Build();

      predictor.set_offset(offset);
      std::vector<FreshRun> fresh;
      for (size_t i = 0; i < items.size(); ++i) {
        fresh.push_back(RunFresh(scenario, kernel_mode, &predictor, &oracle,
                                 items[i], stream_ids[i]));
      }
      // Submit labels every item on the session's one resident record: once
      // with a frozen predictor, then with the predictor switched between
      // versions from item to item (live stream ids continue the session's
      // sequence).
      for (size_t i = 0; i < items.size(); ++i) {
        const LabelOutcome outcome = session.Submit(items[i]);
        const std::string diff = OutcomeDifference(fresh[i].outcome, outcome);
        EXPECT_TRUE(diff.empty())
            << path << ", Submit, item " << i << ": " << diff;
      }
      for (size_t i = 0; i < items.size(); ++i) {
        predictor.set_offset(i % 2 == 0 ? stopping : offset);
        const uint64_t stream_id =
            items[i].item >= 0 ? stream_ids[i] : stream_ids[i] + live_sequence;
        const FreshRun want = RunFresh(scenario, kernel_mode, &predictor,
                                       &oracle, items[i], stream_id);
        const std::string diff =
            OutcomeDifference(want.outcome, session.Submit(items[i]));
        EXPECT_TRUE(diff.empty()) << path << ", Submit after a predictor "
                                  << "change, item " << i << ": " << diff;
      }
      predictor.set_offset(offset);
      // A stepper re-arms a handful of records in completion order.
      std::unique_ptr<LabelingService::ItemStepper> stepper =
          session.NewItemStepper(0);
      const std::vector<LabelOutcome> stepped =
          StepThrough(stepper.get(), items, stream_ids, /*max_resident=*/3);
      for (size_t i = 0; i < items.size(); ++i) {
        const std::string diff =
            OutcomeDifference(fresh[i].outcome, stepped[i]);
        EXPECT_TRUE(diff.empty())
            << path << ", stepper, item " << i << ": " << diff;
      }

      // Skipped items leave the record untouched, so Submit's record goes
      // from one scheduled item to the next.
      const FreshRun* prev = nullptr;
      for (const FreshRun& run : fresh) {
        skipped += run.skipped;
        stopped += run.stopped_by_target;
        if (run.skipped) continue;
        if (prev != nullptr && ReachesCountWithOtherSet(*prev, run)) {
          ++same_count_pairs;
        }
        prev = &run;
      }
    }
  }
  // The sequence exercises everything a re-arm must clear.
  EXPECT_GT(skipped, 0) << "no item was skipped for having no value";
  EXPECT_GT(stopped, 0) << "the recall target never stopped an item early";
  EXPECT_GT(same_count_pairs, 0)
      << "no consecutive items reached the same label count with different "
         "label sets";
}

// Every registry policy whose outcomes do not depend on item order labels
// an item bit for bit alike on the three drivers: Submit, a one-worker
// SubmitBatch and an ItemStepper admitting items in submission order (the
// order random draws its permutations in, skipped items included). The
// sequence has items the recall target skips or stops early and, for the
// policies that need no stored outputs, live scenes.
TEST_F(ExecutionPlaneTest, PolicyDriversAgreeBitForBit) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 23);
  const data::Dataset dataset = data::Dataset::Generate(
      data::DatasetProfile::MsCoco(), zoo_->labels(), 64, 41);
  const data::Oracle oracle(zoo_, &dataset);
  ScheduleConstraints constraints;
  constraints.time_budget_s = 0.8;
  sched::PolicyOptions options;
  options.seed = kRecordSeed;

  int skipped = 0;
  for (const char* policy : {"no_policy", "optimal", "q_greedy", "random"}) {
    const bool live_ok = std::string(policy) != "optimal";
    std::vector<WorkItem> items;
    std::vector<uint64_t> stream_ids;
    for (int i = 0; i < dataset.size(); ++i) {
      items.push_back(live_ok && i % 4 == 3
                          ? WorkItem::Live(&dataset.item(i).scene)
                          : WorkItem::Stored(i));
      stream_ids.push_back(static_cast<uint64_t>(i));
    }
    for (KernelMode kernel_mode : {KernelMode::kLean, KernelMode::kFull}) {
      const std::string path =
          std::string(policy) +
          (kernel_mode == KernelMode::kLean ? " lean" : " full");
      LabelingServiceBuilder builder(zoo_);
      builder.WithOracle(&oracle)
          .WithMode(ExecutionMode::kSerial)
          .WithPolicy(policy, options)
          .WithConstraints(constraints)
          .WithKernelMode(kernel_mode)
          .WithWorkers(1)
          .WithRecallTarget(kRecordTarget);
      if (sched::PolicyRegistry::Traits(policy).needs_predictor) {
        builder.WithPredictor(agent.get());
      }
      LabelingService session = builder.Build();

      std::vector<LabelOutcome> submitted;
      for (const WorkItem& item : items) {
        submitted.push_back(session.Submit(item));
      }
      const std::vector<LabelOutcome> batched = session.SubmitBatch(items);
      std::unique_ptr<LabelingService::ItemStepper> stepper =
          session.NewItemStepper(0);
      const std::vector<LabelOutcome> stepped =
          StepThrough(stepper.get(), items, stream_ids, /*max_resident=*/3);
      for (size_t i = 0; i < items.size(); ++i) {
        const std::string batch_diff =
            OutcomeDifference(submitted[i], batched[i]);
        EXPECT_TRUE(batch_diff.empty())
            << path << ", SubmitBatch, item " << i << ": " << batch_diff;
        const std::string step_diff =
            OutcomeDifference(submitted[i], stepped[i]);
        EXPECT_TRUE(step_diff.empty())
            << path << ", stepper, item " << i << ": " << step_diff;
        if (items[i].item >= 0 && submitted[i].schedule.num_executions == 0) {
          ++skipped;
        }
      }
    }
  }
  EXPECT_GT(skipped, 0) << "no item was skipped for having no value";
}

}  // namespace
}  // namespace ams::core
