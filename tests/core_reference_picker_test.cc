// Locks the production pickers against literal transcriptions of greedy,
// Algorithm 1 and Algorithm 2. The reference pickers below query the
// predictor, SchedulingProfit, ExecutionContext::model and PlannedTime on
// every pick, exactly as the formulas read; production instead reads
// decision rows computed once per label state and per-item pick tables.
// Every production path — Submit, SubmitBatch, an ItemStepper serving each
// item twice (the second pass from memoized rows) and the serving runtime —
// must reproduce the reference schedule bit for bit: the same models with
// the same start and finish instants, the same value and makespan.
//
// A second group pins why greedy planes keep raw Q: SchedulingProfit clamps
// q >= 10 and rounds very negative q to 0, so a greedy picker reading
// profits would tie models that Q separates.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "obs/trace.h"
#include "rl/agent.h"
#include "serve/server_runtime.h"
#include "util/clock.h"
#include "util/rng.h"

namespace ams::core {
namespace {

constexpr int kItems = 512;
constexpr int kResident = 32;
constexpr double kOffset = 0.1;
constexpr double kEndOffset = 0.05;

// --- reference pickers: the pre-decision-row formulas, verbatim ------------

int ReferenceGreedyPick(ModelValuePredictor* predictor,
                        const PickContext& pick) {
  if (!pick.idle) return -1;
  const std::vector<double> q =
      predictor->PredictValues(pick.state->Features());
  const int end_action = pick.exec->num_models();
  int best = -1;
  double best_q = q[static_cast<size_t>(end_action)];
  for (int m = 0; m < pick.exec->num_models(); ++m) {
    if ((*pick.started)[static_cast<size_t>(m)]) continue;
    if (best == -1 || q[static_cast<size_t>(m)] > best_q) {
      best = m;
      best_q = q[static_cast<size_t>(m)];
    }
  }
  if (best == -1 || q[static_cast<size_t>(end_action)] >= best_q) return -1;
  return best;
}

int ReferenceDeadlinePick(ModelValuePredictor* predictor,
                          const PickContext& pick) {
  if (!pick.idle) return -1;
  const std::vector<double> q =
      predictor->PredictValues(pick.state->Features());
  int best = -1;
  double best_ratio = 0.0;
  for (int m = 0; m < pick.exec->num_models(); ++m) {
    if ((*pick.started)[static_cast<size_t>(m)]) continue;
    const double planned = pick.exec->PlannedTime(m);
    if (planned > pick.remaining_time()) continue;
    const double ratio = SchedulingProfit(q[static_cast<size_t>(m)]) /
                         pick.exec->model(m).time_s;
    if (best == -1 || ratio > best_ratio) {
      best = m;
      best_ratio = ratio;
    }
  }
  return best;
}

int ReferenceDeadlineMemoryPick(ModelValuePredictor* predictor,
                                const PickContext& pick) {
  const std::vector<double> q =
      predictor->PredictValues(pick.state->Features());
  int best = -1;
  double best_score = 0.0;
  for (int m = 0; m < pick.exec->num_models(); ++m) {
    if ((*pick.started)[static_cast<size_t>(m)]) continue;
    const zoo::ModelSpec& spec = pick.exec->model(m);
    if (spec.mem_mb > pick.mem_free) continue;
    if (pick.now + pick.exec->PlannedTime(m) > pick.deadline) continue;
    const double profit = SchedulingProfit(q[static_cast<size_t>(m)]);
    const double score = pick.idle ? profit / (spec.time_s * spec.mem_mb)
                                   : profit / spec.mem_mb;
    if (best == -1 || score > best_score) {
      best = m;
      best_score = score;
    }
  }
  return best;
}

ModelPicker ReferencePicker(ExecutionMode mode,
                            ModelValuePredictor* predictor) {
  switch (mode) {
    case ExecutionMode::kGreedy:
      return [predictor](const PickContext& pick) {
        return ReferenceGreedyPick(predictor, pick);
      };
    case ExecutionMode::kSerial:
      return [predictor](const PickContext& pick) {
        return ReferenceDeadlinePick(predictor, pick);
      };
    case ExecutionMode::kParallel:
      return [predictor](const PickContext& pick) {
        return ReferenceDeadlineMemoryPick(predictor, pick);
      };
    case ExecutionMode::kParallelRandom:
      break;
  }
  ADD_FAILURE() << "no reference picker for this mode";
  return nullptr;
}

// --- comparison --------------------------------------------------------------

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Empty when `got` is the reference schedule bit for bit; otherwise names
// the first difference.
std::string FirstDifference(const ScheduleResult& want,
                            const ScheduleResult& got) {
  if (got.executions.size() != want.executions.size()) {
    return "executed " + std::to_string(got.executions.size()) +
           " models, reference " + std::to_string(want.executions.size());
  }
  for (size_t k = 0; k < want.executions.size(); ++k) {
    const ExecutionRecord& w = want.executions[k];
    const ExecutionRecord& g = got.executions[k];
    if (g.model_id != w.model_id || Bits(g.start_s) != Bits(w.start_s) ||
        Bits(g.finish_s) != Bits(w.finish_s)) {
      return "execution " + std::to_string(k) + ": model " +
             std::to_string(g.model_id) + " [" + std::to_string(g.start_s) +
             ", " + std::to_string(g.finish_s) + "], reference model " +
             std::to_string(w.model_id) + " [" + std::to_string(w.start_s) +
             ", " + std::to_string(w.finish_s) + "]";
    }
  }
  if (Bits(got.value) != Bits(want.value)) return "value differs";
  if (Bits(got.makespan_s) != Bits(want.makespan_s)) {
    return "makespan differs";
  }
  return "";
}

void ExpectMatchesReference(const std::vector<ScheduleResult>& reference,
                            const std::vector<LabelOutcome>& outcomes,
                            const std::string& path) {
  ASSERT_EQ(outcomes.size(), reference.size()) << path;
  int differing = 0;
  std::string first;
  for (size_t i = 0; i < reference.size(); ++i) {
    const std::string diff =
        FirstDifference(reference[i], outcomes[i].schedule);
    if (diff.empty()) continue;
    if (differing++ == 0) first = "item " + std::to_string(i) + ": " + diff;
  }
  EXPECT_EQ(differing, 0) << path << " differs from the reference picker on "
                          << differing << " items; first: " << first;
}

// --- fixture -----------------------------------------------------------------

// An untrained net plus a fixed per-action offset. The net's Q row is flat
// at the all-zero state (zero biases), which would stop greedy before its
// first pick and leave Algorithms 1 and 2 ranking by cost alone; the
// offsets break those ties while the net keeps every row state-dependent.
// Both forward entry points delegate to the net, so the production planes
// still run the agent's batched inference path.
class OffsetAgent : public ModelValuePredictor {
 public:
  OffsetAgent(std::unique_ptr<ModelValuePredictor> net,
              std::vector<double> offset)
      : net_(std::move(net)), offset_(std::move(offset)) {}

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
    return std::make_unique<OffsetAgent>(net_->ClonePredictor(), offset_);
  }

 private:
  std::unique_ptr<ModelValuePredictor> net_;
  std::vector<double> offset_;
};

struct Scenario {
  const char* name;
  ExecutionMode mode;
  double time_budget_s;
  double memory_budget_mb;
};

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  return info.param.name;
}

class ReferencePickerTest : public ::testing::TestWithParam<Scenario> {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MsCoco(), zoo_->labels(), kItems, 41));
    oracle_ = new data::Oracle(zoo_, dataset_);
    // An untrained paper-shaped MLP (narrow, to keep the reference's
    // per-pick forwards cheap): its Q values spread around zero, so
    // every picker meets positive and negative values and near ties.
    nn::MlpConfig config;
    config.input_dim = zoo_->labels().total_labels();
    config.hidden_dims = {16};
    config.output_dim = zoo_->num_models() + 1;
    util::Rng rng(0x0FF5E7u);
    std::vector<double> offset(static_cast<size_t>(config.output_dim));
    for (double& o : offset) o = rng.Uniform(-kOffset, kOffset);
    offset.back() = kEndOffset;
    agent_ = new OffsetAgent(
        std::make_unique<rl::Agent>(std::make_unique<nn::Mlp>(config, 5),
                                    nn::NetKind::kMlp),
        std::move(offset));
  }
  static void TearDownTestSuite() {
    delete agent_;
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }

  static ScheduleConstraints Constraints() {
    ScheduleConstraints constraints;
    constraints.time_budget_s = GetParam().time_budget_s;
    constraints.memory_budget_mb = GetParam().memory_budget_mb;
    return constraints;
  }

  static LabelingService Session() {
    return LabelingServiceBuilder(zoo_)
        .WithOracle(oracle_)
        .WithPredictor(agent_)
        .WithMode(GetParam().mode)
        .WithConstraints(Constraints())
        .WithKernelMode(KernelMode::kFull)
        .WithWorkers(2)
        .Build();
  }

  static std::vector<WorkItem> StoredItems() {
    std::vector<WorkItem> items;
    for (int i = 0; i < kItems; ++i) items.push_back(WorkItem::Stored(i));
    return items;
  }

  static std::vector<ScheduleResult> ReferenceSchedules() {
    const ModelPicker picker = ReferencePicker(GetParam().mode, agent_);
    std::vector<ScheduleResult> schedules;
    for (int i = 0; i < kItems; ++i) {
      const ReplayExecutionContext exec(oracle_, i);
      schedules.push_back(RunScheduleKernel(exec, Constraints(), picker, {},
                                            KernelMode::kFull));
    }
    return schedules;
  }

  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
  static OffsetAgent* agent_;
};

zoo::ModelZoo* ReferencePickerTest::zoo_ = nullptr;
data::Dataset* ReferencePickerTest::dataset_ = nullptr;
data::Oracle* ReferencePickerTest::oracle_ = nullptr;
OffsetAgent* ReferencePickerTest::agent_ = nullptr;

// One stepper pass over every item, at most kResident in flight. Returns
// outcomes in item order and adds the pass's forward rows and memo hits.
std::vector<LabelOutcome> StepperPass(LabelingService::ItemStepper* stepper,
                                      long* forward_rows, long* memo_hits) {
  std::vector<LabelOutcome> outcomes(static_cast<size_t>(kItems));
  std::vector<int> item_of_ticket;
  std::vector<LabelingService::ItemStepper::Completion> done;
  int next = 0;
  int finished = 0;
  while (finished < kItems) {
    while (next < kItems && stepper->resident() < kResident) {
      const uint64_t ticket =
          stepper->Admit(WorkItem::Stored(next), static_cast<uint64_t>(next));
      if (ticket >= item_of_ticket.size()) item_of_ticket.resize(ticket + 1);
      item_of_ticket[ticket] = next++;
    }
    done.clear();
    stepper->Tick(&done);
    const LabelingService::ItemStepper::TickStats& stats =
        stepper->last_tick_stats();
    *forward_rows += stats.forward_rows;
    *memo_hits += stats.memo_hits;
    for (LabelingService::ItemStepper::Completion& completion : done) {
      outcomes[static_cast<size_t>(item_of_ticket[completion.ticket])] =
          std::move(completion.outcome);
      ++finished;
    }
  }
  return outcomes;
}

TEST_P(ReferencePickerTest, EveryPathMatchesTheLiteralPicker) {
  const std::vector<ScheduleResult> reference = ReferenceSchedules();
  // Guard against a vacuous comparison: on average the reference must
  // schedule more than one model per item.
  long executions = 0;
  for (const ScheduleResult& schedule : reference) {
    executions += schedule.num_executions;
  }
  ASSERT_GT(executions, kItems);
  const std::vector<WorkItem> items = StoredItems();

  {
    LabelingService session = Session();
    std::vector<LabelOutcome> submitted;
    for (const WorkItem& item : items) submitted.push_back(session.Submit(item));
    ExpectMatchesReference(reference, submitted, "Submit");
    ExpectMatchesReference(reference, session.SubmitBatch(items),
                           "SubmitBatch");
  }
  {
    LabelingService session = Session();
    // Serve every item twice through one stepper: the second pass meets
    // only label states the first pass memoized, so its rows are copies.
    std::unique_ptr<LabelingService::ItemStepper> stepper =
        session.NewItemStepper(0);
    obs::Tracer tracer;
    stepper->AttachTracer(&tracer, tracer.EnsureLane(0, 0),
                          &util::Clock::Monotonic());
    long rows = 0, hits = 0;
    ExpectMatchesReference(reference, StepperPass(stepper.get(), &rows, &hits),
                           "ItemStepper (first pass)");
    EXPECT_GT(rows, 0);
    rows = 0;
    hits = 0;
    ExpectMatchesReference(reference, StepperPass(stepper.get(), &rows, &hits),
                           "ItemStepper (memoized pass)");
    EXPECT_EQ(rows, 0) << "the second pass should be served from the memo";
    EXPECT_GT(hits, 0);
  }
  {
    // The serving runtime: two workers, each refreshing its resident items
    // through its own stepper's DecisionPlane::Prefetch.
    LabelingService session = Session();
    std::vector<LabelOutcome> served;
    {
      serve::ServeOptions options;
      options.workers = 2;
      serve::ServerRuntime runtime(&session, options);
      std::vector<std::future<serve::ServeResult>> futures;
      for (const WorkItem& item : items) {
        futures.push_back(runtime.Enqueue(item));
      }
      for (auto& future : futures) {
        serve::ServeResult result = future.get();
        ASSERT_TRUE(result.ok());
        served.push_back(std::move(result.outcome));
      }
    }
    ExpectMatchesReference(reference, served, "ServerRuntime");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, ReferencePickerTest,
    ::testing::Values(
        Scenario{"Greedy", ExecutionMode::kGreedy,
                 std::numeric_limits<double>::infinity(),
                 std::numeric_limits<double>::infinity()},
        Scenario{"Alg1_1s", ExecutionMode::kSerial, 1.0,
                 std::numeric_limits<double>::infinity()},
        Scenario{"Alg1_500ms", ExecutionMode::kSerial, 0.5,
                 std::numeric_limits<double>::infinity()},
        Scenario{"Alg1_300ms", ExecutionMode::kSerial, 0.3,
                 std::numeric_limits<double>::infinity()},
        Scenario{"Alg2_1s_8GB", ExecutionMode::kParallel, 1.0, 8000.0},
        Scenario{"Alg2_500ms_4GB", ExecutionMode::kParallel, 0.5, 4000.0},
        Scenario{"Alg2_300ms_2GB", ExecutionMode::kParallel, 0.3, 2000.0}),
    ScenarioName);

// --- greedy keeps raw Q ------------------------------------------------------

// Constant Q row for every state; stateless, so clones are trivial.
class FixedQPredictor : public ModelValuePredictor {
 public:
  explicit FixedQPredictor(std::vector<double> q) : q_(std::move(q)) {}
  std::vector<double> PredictValues(const std::vector<float>&) override {
    return q_;
  }
  int num_actions() const override { return static_cast<int>(q_.size()); }
  std::unique_ptr<ModelValuePredictor> ClonePredictor() const override {
    return std::make_unique<FixedQPredictor>(q_);
  }

 private:
  std::vector<double> q_;
};

class GreedyRawQTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MsCoco(), zoo_->labels(), 16, 43));
    oracle_ = new data::Oracle(zoo_, dataset_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }

  // Q row: `others` for every model, the listed overrides, `end` for END.
  static std::vector<double> QRow(double others,
                                  const std::vector<std::pair<int, double>>& q,
                                  double end) {
    std::vector<double> row(static_cast<size_t>(zoo_->num_models() + 1),
                            others);
    for (const auto& [model, value] : q) row[static_cast<size_t>(model)] = value;
    row.back() = end;
    return row;
  }

  // Greedy must run exactly `expected`, in order, on every item and through
  // every path — and agree with the literal reference picker.
  static void ExpectGreedyRuns(const std::vector<double>& q,
                               const std::vector<int>& expected) {
    FixedQPredictor predictor(q);
    const ModelPicker reference_picker =
        ReferencePicker(ExecutionMode::kGreedy, &predictor);
    const int items = dataset_->size();
    std::vector<ScheduleResult> reference;
    for (int i = 0; i < items; ++i) {
      const ReplayExecutionContext exec(oracle_, i);
      reference.push_back(
          RunScheduleKernel(exec, {}, reference_picker, {}, KernelMode::kFull));
      std::vector<int> ran;
      for (const ExecutionRecord& record : reference.back().executions) {
        ran.push_back(record.model_id);
      }
      ASSERT_EQ(ran, expected) << "reference greedy on item " << i;
    }

    std::vector<WorkItem> work;
    for (int i = 0; i < items; ++i) work.push_back(WorkItem::Stored(i));
    LabelingService session = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithPredictor(&predictor)
                                  .WithMode(ExecutionMode::kGreedy)
                                  .WithWorkers(2)
                                  .Build();
    std::vector<LabelOutcome> submitted;
    for (const WorkItem& item : work) submitted.push_back(session.Submit(item));
    ExpectMatchesReference(reference, submitted, "Submit");
    ExpectMatchesReference(reference, session.SubmitBatch(work), "SubmitBatch");
  }

  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* GreedyRawQTest::zoo_ = nullptr;
data::Dataset* GreedyRawQTest::dataset_ = nullptr;
data::Oracle* GreedyRawQTest::oracle_ = nullptr;

TEST_F(GreedyRawQTest, SeparatesQValuesAboveTheProfitClamp) {
  // SchedulingProfit clamps q at 10: models 3 and 7 and END all map to one
  // profit, so a greedy picker reading profits would run nothing (END ties
  // the best model). On Q, both models beat END and run, larger Q first.
  const std::vector<double> q = QRow(-1.0, {{3, 11.0}, {7, 12.0}}, 10.5);
  ASSERT_EQ(SchedulingProfit(11.0), SchedulingProfit(12.0));
  ASSERT_EQ(SchedulingProfit(10.5), SchedulingProfit(12.0));
  ExpectGreedyRuns(q, {7, 3});
}

TEST_F(GreedyRawQTest, SeparatesQValuesBelowExpUnderflow) {
  // exp(3q) underflows for these q, so every one of them has profit exactly
  // 0; on Q, model 5 alone beats END.
  const std::vector<double> q = QRow(-400.0, {{5, -300.0}}, -350.0);
  ASSERT_EQ(SchedulingProfit(-300.0), 0.0);
  ASSERT_EQ(SchedulingProfit(-350.0), 0.0);
  ASSERT_EQ(SchedulingProfit(-400.0), 0.0);
  ExpectGreedyRuns(q, {5});
}

}  // namespace
}  // namespace ams::core
