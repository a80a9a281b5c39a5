#ifndef AMS_CORE_SCHEDULE_KERNEL_H_
#define AMS_CORE_SCHEDULE_KERNEL_H_

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/decision_plane.h"
#include "core/labeling_state.h"
#include "data/oracle.h"
#include "zoo/latent_scene.h"
#include "zoo/model_zoo.h"

namespace ams::core {

/// Per-item resource constraints (Eq. 2's "constraints on S").
struct ScheduleConstraints {
  /// Deadline per item in seconds (Algorithm 1 / 2). Infinity = unlimited.
  double time_budget_s = std::numeric_limits<double>::infinity();
  /// GPU memory budget in MB for parallel execution (Algorithm 2 only).
  double memory_budget_mb = std::numeric_limits<double>::infinity();

  /// Crashes with a clear message on NaN or negative budgets (a negative or
  /// NaN budget would otherwise silently schedule nothing).
  void Validate() const;
};

/// One scheduled model execution.
struct ExecutionRecord {
  int model_id = -1;
  double start_s = 0.0;
  double finish_s = 0.0;
  /// O'(m, d): newly emitted valuable labels.
  std::vector<zoo::LabelOutput> fresh;
  /// f(S ∪ {m}, d) − f(S, d): the value this execution added, summed over
  /// its outputs in ValueAccumulator::AddModel's order, so a running sum of
  /// gains is bitwise ValueAccumulator::Value() and recall needs no second
  /// walk over the outputs. Maintained in both kernel modes.
  double gain = 0.0;
};

/// Outcome of scheduling one item.
struct ScheduleResult {
  /// Executions in finish order (serial schedules: also start order).
  /// Empty in lean kernel mode; use num_executions for the count.
  std::vector<ExecutionRecord> executions;
  /// Number of executions, maintained in both kernel modes.
  int num_executions = 0;
  /// Serial total time (Algorithm 1) or parallel makespan (Algorithm 2).
  double makespan_s = 0.0;
  /// f(S, d): sum over recalled labels of the best confidence obtained.
  double value = 0.0;
  /// Union of valuable labels with their best confidences. Empty in lean
  /// kernel mode (the map is never exported there).
  std::vector<zoo::LabelOutput> recalled_labels;
  /// Peak simultaneous memory use, for asserting the constraint held.
  double peak_mem_mb = 0.0;
};

/// Execution substrate of the scheduling kernel: where model outputs and
/// execution times come from. Two implementations cover the repo's two
/// information patterns — live inference on a scene (production) and replay
/// of stored oracle outputs (offline evaluation, §VI-A).
class ExecutionContext {
 public:
  virtual ~ExecutionContext() = default;

  virtual const zoo::ModelZoo& zoo() const = 0;
  int num_models() const { return zoo().num_models(); }
  const zoo::ModelSpec& model(int m) const { return zoo().model(m); }

  /// Planning-time estimates used by feasibility checks ("does m still fit
  /// the budget"), one per model id in a row that stays valid for the
  /// context's lifetime, so the kernel resolves it once per item. Live
  /// scheduling only knows the spec's mean time; replay knows the realized
  /// draw. Pickers never score with it: Algorithms 1 and 2 divide by the
  /// zoo's mean time, so a replayed schedule ranks models as a live one
  /// would.
  virtual const double* PlannedTimes() const = 0;
  double PlannedTime(int model) const { return PlannedTimes()[model]; }

  /// Realized duration charged when the model actually runs.
  virtual double RealizedTime(int model) const = 0;

  /// Runs the model and returns a view of its valuable outputs (what
  /// ModelZoo::Execute keeps): replay serves the oracle's stored outputs
  /// directly (no copies), live contexts an internal buffer that stays valid
  /// until the next Execute call.
  virtual zoo::LabelOutputView Execute(int model) const = 0;
};

/// Live inference on one scene via ModelZoo::Execute. Never peeks at outputs
/// of models it did not select, matching a production deployment.
class LiveExecutionContext : public ExecutionContext {
 public:
  LiveExecutionContext(const zoo::ModelZoo* zoo, const zoo::LatentScene* scene);

  const zoo::ModelZoo& zoo() const override { return *zoo_; }
  /// The zoo's per-model mean times.
  const double* PlannedTimes() const override;
  double RealizedTime(int model) const override;
  zoo::LabelOutputView Execute(int model) const override;

  /// Moves the context to another scene (same contract as the constructor).
  void Rebind(const zoo::LatentScene* scene);

 private:
  const zoo::ModelZoo* zoo_;
  const zoo::LatentScene* scene_;
  /// Holds the last Execute result so outputs can be served as a view (the
  /// kernel consumes them before the next execution); reused, so it grows
  /// only while outputs get longer.
  mutable std::vector<zoo::LabelOutput> last_outputs_;
};

/// Replay of one stored item: outputs and times come from the oracle, so
/// planned and realized times coincide and Execute serves a view of the
/// oracle's stored outputs without any intermediate copy.
class ReplayExecutionContext : public ExecutionContext {
 public:
  ReplayExecutionContext(const data::Oracle* oracle, int item);

  const zoo::ModelZoo& zoo() const override { return oracle_->zoo(); }
  /// The oracle's stored execution-time row for the item.
  const double* PlannedTimes() const override;
  double RealizedTime(int model) const override;
  zoo::LabelOutputView Execute(int model) const override;

  /// Moves the context to another stored item (checked like the
  /// constructor).
  void Rebind(int item);

  const data::Oracle& oracle() const { return *oracle_; }
  int item() const { return item_; }

 private:
  const data::Oracle* oracle_;
  int item_;
};

/// A scheduling decision point: everything a picker may inspect.
struct PickContext {
  const ExecutionContext* exec = nullptr;
  const LabelingState* state = nullptr;
  /// Models already started (a superset of state->model_executed(): models
  /// in flight count as started but not yet executed).
  const std::vector<bool>* started = nullptr;
  /// The complement of `started` as an ascending id list: the production
  /// pickers scan only these, and ascending order keeps their tie-break on
  /// the lowest model id.
  const int* unstarted = nullptr;
  int num_unstarted = 0;
  /// Per-item tables the kernel resolves once per item, so a pick loop
  /// reads contiguous rows instead of making a virtual zoo() or PlannedTime
  /// call and a bounds check per model per pick: `num_models` ==
  /// exec->num_models(), `planned_time[m]` == exec->PlannedTime(m),
  /// `mean_time[m]` == exec->model(m).time_s and `mem_mb[m]` ==
  /// exec->model(m).mem_mb.
  int num_models = 0;
  const double* planned_time = nullptr;
  const double* mean_time = nullptr;
  const double* mem_mb = nullptr;
  double now = 0.0;
  /// Absolute deadline (infinity when unconstrained).
  double deadline = std::numeric_limits<double>::infinity();
  double mem_free = std::numeric_limits<double>::infinity();
  /// True when no model is currently running.
  bool idle = true;

  double remaining_time() const { return deadline - now; }
};

/// Returns the next model to start *now*, or -1 to start nothing (the kernel
/// then advances to the next finish event, or stops once nothing is
/// running). Serial strategies return a model only when `idle`. The model
/// must be unstarted, its planned time must fit the remaining time and its
/// memory the free memory: the kernel checks all three.
using ModelPicker = std::function<int(const PickContext&)>;

/// Optional kernel hooks.
struct KernelHooks {
  /// Called after each finish event is applied to the labeling state.
  /// Returning true stops the kernel from starting further models; work
  /// already in flight still drains (its outputs count, exactly as in
  /// Algorithm 2's final window).
  ///
  /// In lean kernel mode the record passed here is a reused scratch, valid
  /// only for the call; its fields are set as in full mode.
  std::function<bool(const ExecutionRecord&, const LabelingState&)>
      on_executed;
};

/// How much the kernel materializes per run.
enum class KernelMode {
  /// Full ScheduleResult: per-execution records (model, times, fresh labels
  /// and gain) and the recalled-label union. The default.
  kFull,
  /// Lean: accumulates only makespan, value, execution count and peak
  /// memory — no per-execution records, no recalled-label map. The offline
  /// recall-only paths (deadline/memory sweeps) run here.
  kLean,
};

/// The shared scheduling kernel in resumable form: construct it, then Step()
/// until false. Each Step (a) asks the picker for models to start at the
/// current instant, (b) advances to the earliest finish event and walks the
/// finished model's outputs once, setting state bits, collecting O'(m, d)
/// and crediting both f(S, d) and the execution's gain, and (c) reports
/// completion once nothing runs and nothing new starts. Memory is charged
/// at start and released at finish; executions past the deadline are never
/// started but started work always drains. Pickers see the unstarted models
/// as an ascending list and the zoo's time and memory as contiguous rows.
///
/// Single-shot callers use the RunScheduleKernel wrapper below;
/// LabelingService's resident item records keep one kernel each and
/// Rearm() it per item, so the per-item tables are allocated once per
/// record and reset by clearing only what the last item touched.
/// LabelingService::ItemStepper interleaves Step() calls of many in-flight
/// kernels and refreshes a shared DecisionPlane once per tick.
class ScheduleKernel {
 public:
  ScheduleKernel(const ExecutionContext* exec,
                 const ScheduleConstraints& constraints, ModelPicker picker,
                 KernelHooks hooks = {}, KernelMode mode = KernelMode::kFull);

  /// Re-arms the kernel for the next item on `exec`, a context over the
  /// same zoo: re-resolves the planned-time row and resets the labeling
  /// state, the best-confidence entries the last item touched, the started
  /// flags and unstarted list, the running list, the clocks, the stop flags
  /// and the result, without allocating. A non-null `picker` replaces the
  /// kernel's picker (random packing's per-item picker); null keeps the
  /// current one. Constraints, hooks and mode stay.
  void Rearm(const ExecutionContext* exec, ModelPicker picker = nullptr);

  /// Advances past the next finish event. Returns false once the schedule is
  /// complete (and on every later call).
  bool Step();

  bool done() const { return done_; }
  /// True while the picker may still be consulted (not stopped, not done) —
  /// i.e. the next Step will open with a pick round.
  bool picking() const { return !done_ && !stopped_; }
  const LabelingState& state() const { return state_; }

  /// The accumulated result; call once done() (checked).
  ScheduleResult TakeResult();

 private:
  void StartModels();

  const ExecutionContext* exec_;
  const zoo::ModelZoo* zoo_;
  // PickContext tables, resolved once per item (see PickContext).
  int num_models_;
  const double* planned_time_;
  const double* mean_time_;
  const double* mem_mb_;
  ScheduleConstraints constraints_;
  ModelPicker picker_;
  KernelHooks hooks_;
  KernelMode mode_;

  struct Running {
    int model_id;
    double start_s;
    double finish_s;
    double mem_mb;
  };

  LabelingState state_;
  ScheduleResult result_;
  std::vector<Running> running_;
  std::vector<bool> started_;
  std::vector<int> unstarted_;  // ascending complement of started_
  double mem_free_;
  double mem_used_ = 0.0;
  double now_ = 0.0;
  bool stopped_ = false;
  bool done_ = false;
  bool result_taken_ = false;
  // Lean-mode scratch reused across events (no per-event allocations).
  ExecutionRecord scratch_record_;
  // Best-confidence union of valuable labels, for f(S, d): flat table
  // indexed by label id (0 = never credited; valuable confidences are
  // strictly positive) plus the first-touch list of credited labels, which
  // is also what Rearm clears. Both are sized at construction, so value
  // accounting never allocates per event — part of the zero-allocation
  // steady-state tick contract.
  std::vector<double> best_conf_;
  std::vector<int> touched_labels_;
};

/// Runs one schedule start to finish (the single-shot form of the kernel).
ScheduleResult RunScheduleKernel(const ExecutionContext& exec,
                                 const ScheduleConstraints& constraints,
                                 const ModelPicker& picker,
                                 const KernelHooks& hooks = {},
                                 KernelMode mode = KernelMode::kFull);

/// Q-value greedy picker (§V intro): when idle, starts the unexecuted model
/// with maximal predicted Q; stops once END has the highest value. The slot
/// must come from a DecisionRow::kQ plane; drawing rows through a shared
/// DecisionPlane is what lets an ItemStepper batch them.
ModelPicker MakeGreedyPicker(DecisionPlane::Slot* slot);

/// Algorithm 1 picker: when idle, starts the model maximizing
/// SchedulingProfit(Q) / mean time among the unstarted models whose planned
/// time still fits the deadline. Scores use the zoo's mean time, all a live
/// scheduler knows before a model runs; feasibility uses the execution
/// context's planned time, which is the realized draw under replay and the
/// mean time on live items. The slot must come from a
/// DecisionRow::kSchedulingProfit plane; a pick transforms a model's Q into
/// its profit only once the model fits, and stores it back into the row for
/// every later pick at that label state.
ModelPicker MakeDeadlinePicker(DecisionPlane::Slot* slot);

/// Algorithm 2 picker: when idle, anchors the window with the feasible model
/// maximizing SchedulingProfit(Q) / (mean time * mem); otherwise fills
/// remaining memory with the feasible model maximizing SchedulingProfit(Q) /
/// mem. Feasibility reads the planned time, as Algorithm 1's does. Fills are
/// bounded by the global deadline rather than the literal anchor window (see
/// DESIGN note in the implementation: the literal filter degenerates to
/// serial execution when the value-density anchor is a short model). The
/// slot must come from a DecisionRow::kSchedulingProfit plane, whose profits
/// are computed as Algorithm 1's are: on first read, for fitting models only.
ModelPicker MakeDeadlineMemoryPicker(DecisionPlane::Slot* slot);

/// Random feasible packing baseline (§VI-G): reshuffles the model order at
/// every event round and packs feasible models in that order.
ModelPicker MakeRandomPackingPicker(uint64_t seed);

}  // namespace ams::core

#endif  // AMS_CORE_SCHEDULE_KERNEL_H_
