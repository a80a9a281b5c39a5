#include "core/schedule_kernel.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "util/check.h"
#include "util/rng.h"

namespace ams::core {

void ScheduleConstraints::Validate() const {
  AMS_CHECK(!std::isnan(time_budget_s) && time_budget_s >= 0.0,
            "ScheduleConstraints: time budget must be a non-negative number");
  AMS_CHECK(!std::isnan(memory_budget_mb) && memory_budget_mb >= 0.0,
            "ScheduleConstraints: memory budget must be a non-negative number");
}

LiveExecutionContext::LiveExecutionContext(const zoo::ModelZoo* zoo,
                                           const zoo::LatentScene* scene)
    : zoo_(zoo), scene_(scene) {
  AMS_CHECK(zoo != nullptr && scene != nullptr);
}

void LiveExecutionContext::Rebind(const zoo::LatentScene* scene) {
  AMS_CHECK(scene != nullptr);
  scene_ = scene;
}

const double* LiveExecutionContext::PlannedTimes() const {
  return zoo_->mean_times().data();
}

double LiveExecutionContext::RealizedTime(int model) const {
  return zoo_->SampleExecutionTime(model, *scene_);
}

zoo::LabelOutputView LiveExecutionContext::Execute(int model) const {
  last_outputs_.clear();
  zoo_->ExecuteInto(model, *scene_, &last_outputs_);
  return last_outputs_;
}

ReplayExecutionContext::ReplayExecutionContext(const data::Oracle* oracle,
                                               int item)
    : oracle_(oracle), item_(item) {
  AMS_CHECK(oracle != nullptr);
  Rebind(item);
}

void ReplayExecutionContext::Rebind(int item) {
  AMS_CHECK(item >= 0 && item < oracle_->num_items());
  item_ = item;
}

const double* ReplayExecutionContext::PlannedTimes() const {
  return oracle_->ExecutionTimes(item_);
}

double ReplayExecutionContext::RealizedTime(int model) const {
  return oracle_->ExecutionTime(item_, model);
}

zoo::LabelOutputView ReplayExecutionContext::Execute(int model) const {
  return oracle_->Output(item_, model);
}

ScheduleKernel::ScheduleKernel(const ExecutionContext* exec,
                               const ScheduleConstraints& constraints,
                               ModelPicker picker, KernelHooks hooks,
                               KernelMode mode)
    : exec_(exec),
      zoo_(&exec->zoo()),
      num_models_(exec->num_models()),
      planned_time_(exec->PlannedTimes()),
      mean_time_(zoo_->mean_times().data()),
      mem_mb_(zoo_->mem_mbs().data()),
      constraints_(constraints),
      picker_(std::move(picker)),
      hooks_(std::move(hooks)),
      mode_(mode),
      state_(zoo_->labels().total_labels(), num_models_),
      started_(static_cast<size_t>(num_models_), false),
      unstarted_(static_cast<size_t>(num_models_)),
      mem_free_(constraints.memory_budget_mb),
      best_conf_(static_cast<size_t>(zoo_->labels().total_labels()), 0.0) {
  constraints_.Validate();
  AMS_CHECK(picker_ != nullptr);
  std::iota(unstarted_.begin(), unstarted_.end(), 0);
  // Worst-case capacities up front so steady-state Steps never allocate.
  touched_labels_.reserve(best_conf_.size());
  running_.reserve(static_cast<size_t>(num_models_));
  scratch_record_.fresh.reserve(best_conf_.size());
}

void ScheduleKernel::Rearm(const ExecutionContext* exec, ModelPicker picker) {
  AMS_CHECK(exec != nullptr && &exec->zoo() == zoo_,
            "a kernel is re-armed only on a context over its own zoo");
  exec_ = exec;
  planned_time_ = exec->PlannedTimes();
  if (picker != nullptr) picker_ = std::move(picker);
  state_.Reset();
  for (const int label : touched_labels_) {
    best_conf_[static_cast<size_t>(label)] = 0.0;
  }
  touched_labels_.clear();
  std::fill(started_.begin(), started_.end(), false);
  unstarted_.resize(static_cast<size_t>(num_models_));
  std::iota(unstarted_.begin(), unstarted_.end(), 0);
  running_.clear();
  mem_free_ = constraints_.memory_budget_mb;
  mem_used_ = 0.0;
  now_ = 0.0;
  stopped_ = false;
  done_ = false;
  result_taken_ = false;
  result_ = ScheduleResult();
}

void ScheduleKernel::StartModels() {
  PickContext pick;
  pick.exec = exec_;
  pick.state = &state_;
  pick.started = &started_;
  pick.num_models = num_models_;
  pick.planned_time = planned_time_;
  pick.mean_time = mean_time_;
  pick.mem_mb = mem_mb_;
  pick.deadline = constraints_.time_budget_s;
  while (!stopped_) {
    pick.unstarted = unstarted_.data();
    pick.num_unstarted = static_cast<int>(unstarted_.size());
    pick.now = now_;
    pick.mem_free = mem_free_;
    pick.idle = running_.empty();
    const int m = picker_(pick);
    if (m < 0) break;
    AMS_CHECK(m < num_models_ && !started_[static_cast<size_t>(m)],
              "picker returned an already-started model");
    // The one budget check, whatever the picker: a started model must fit
    // the time left (planned, with slack for rounding) and the free memory.
    AMS_CHECK(planned_time_[m] <= pick.remaining_time() + 1e-9,
              "picker returned a model exceeding the remaining time");
    AMS_CHECK(mem_mb_[m] <= mem_free_,
              "picker returned a model exceeding the free memory");
    started_[static_cast<size_t>(m)] = true;
    unstarted_.erase(
        std::lower_bound(unstarted_.begin(), unstarted_.end(), m));
    const double mem = mem_mb_[m];
    running_.push_back({m, now_, now_ + exec_->RealizedTime(m), mem});
    mem_free_ -= mem;
    mem_used_ += mem;
    result_.peak_mem_mb = std::max(result_.peak_mem_mb, mem_used_);
  }
}

bool ScheduleKernel::Step() {
  if (done_) return false;

  // (a) Start everything the picker wants at this instant.
  StartModels();
  if (running_.empty()) {
    done_ = true;
    return false;
  }

  // (b) Advance to the earliest finish event and apply its outputs.
  size_t next = 0;
  for (size_t i = 1; i < running_.size(); ++i) {
    if (running_[i].finish_s < running_[next].finish_s) next = i;
  }
  const Running done_run = running_[next];
  running_.erase(running_.begin() + static_cast<long>(next));
  now_ = done_run.finish_s;
  mem_free_ += done_run.mem_mb;
  mem_used_ -= done_run.mem_mb;

  const zoo::LabelOutputView outputs = exec_->Execute(done_run.model_id);

  // Full mode appends the record it fills; lean reuses one scratch record,
  // so no event allocates once the fresh buffer has grown.
  ExecutionRecord* record = &scratch_record_;
  if (mode_ == KernelMode::kFull) {
    result_.executions.emplace_back();
    record = &result_.executions.back();
  }
  record->model_id = done_run.model_id;
  record->start_s = done_run.start_s;
  record->finish_s = done_run.finish_s;
  record->fresh.clear();

  // One walk over the (valuable) outputs. An output beating its label's
  // best confidence credits the difference twice, in the two association
  // orders that must both stay bit-identical: per label into f(S, d), and
  // per execution into the gain (ValueAccumulator::AddModel's order).
  // best == 0 means never credited (confidences are > 0), so the first
  // credit is exactly a fresh label: it sets the state bit, joins O'(m, d)
  // and is recorded in the touched list.
  state_.MarkExecuted(done_run.model_id);
  double gain = 0.0;
  for (const zoo::LabelOutput out : outputs) {
    double& best = best_conf_[static_cast<size_t>(out.label_id)];
    if (out.confidence > best) {
      if (best == 0.0) {
        touched_labels_.push_back(out.label_id);
        state_.SetLabel(out.label_id);
        record->fresh.push_back(out);
      }
      const double delta = out.confidence - best;
      result_.value += delta;
      gain += delta;
      best = out.confidence;
    }
  }
  record->gain = gain;
  result_.makespan_s = std::max(result_.makespan_s, done_run.finish_s);
  ++result_.num_executions;

  if (hooks_.on_executed && hooks_.on_executed(*record, state_)) {
    stopped_ = true;
  }
  if (now_ >= constraints_.time_budget_s) stopped_ = true;

  if (running_.empty() && stopped_) done_ = true;
  return !done_;
}

ScheduleResult ScheduleKernel::TakeResult() {
  AMS_CHECK(done_, "TakeResult before the schedule completed");
  AMS_CHECK(!result_taken_, "TakeResult called twice");
  result_taken_ = true;
  if (mode_ == KernelMode::kFull) {
    // Ascending label order, matching the sorted-map export this replaces.
    std::sort(touched_labels_.begin(), touched_labels_.end());
    result_.recalled_labels.reserve(touched_labels_.size());
    for (const int label : touched_labels_) {
      result_.recalled_labels.push_back(
          {label, best_conf_[static_cast<size_t>(label)]});
    }
  }
  return std::move(result_);
}

ScheduleResult RunScheduleKernel(const ExecutionContext& exec,
                                 const ScheduleConstraints& constraints,
                                 const ModelPicker& picker,
                                 const KernelHooks& hooks, KernelMode mode) {
  ScheduleKernel kernel(&exec, constraints, picker, hooks, mode);
  while (kernel.Step()) {
  }
  return kernel.TakeResult();
}

namespace {

// The pick loops below visit only unstarted models, in ascending id order
// (so ties keep the lowest id), and read the per-item PickContext rows and a
// decision row computed once per label state. Algorithms 1 and 2 read a
// model's profit only once it passes the budget checks, so the row's
// SchedulingProfit transform runs only for models a pick scores, and once
// per label state: a later pick at the same state reads the stored profit.

int GreedyPick(DecisionPlane::Slot* slot, const PickContext& pick) {
  if (!pick.idle) return -1;
  DecisionPlane::RowView q = slot->Row(*pick.state);
  const int end_action = pick.num_models;
  int best = -1;
  double best_q = q[end_action];
  for (int k = 0; k < pick.num_unstarted; ++k) {
    const int m = pick.unstarted[k];
    const double qm = q[m];
    if (best == -1 || qm > best_q) {
      best = m;
      best_q = qm;
    }
  }
  // Stop when END outranks every remaining model.
  if (best == -1 || q[end_action] >= best_q) return -1;
  return best;
}

int DeadlinePick(DecisionPlane::Slot* slot, const PickContext& pick) {
  if (!pick.idle) return -1;
  DecisionPlane::RowView profit = slot->Row(*pick.state);
  // Locals, as in DeadlineMemoryPick below.
  const int* unstarted = pick.unstarted;
  const double* planned_time = pick.planned_time;
  const double* mean_time = pick.mean_time;
  const double remaining = pick.remaining_time();
  // Algorithm 1 lines 3-4: among models whose planned time still fits the
  // budget, pick the one maximizing SchedulingProfit(Q) / mean time. The
  // score never reads the planned time: under replay that is the item's
  // realized draw, which a live scheduler cannot know before the model runs.
  int best = -1;
  double best_ratio = 0.0;
  for (int k = 0; k < pick.num_unstarted; ++k) {
    const int m = unstarted[k];
    if (planned_time[m] > remaining) continue;
    const double ratio = profit[m] / mean_time[m];
    if (best == -1 || ratio > best_ratio) {
      best = m;
      best_ratio = ratio;
    }
  }
  return best;
}

int DeadlineMemoryPick(DecisionPlane::Slot* slot, const PickContext& pick) {
  DecisionPlane::RowView profit = slot->Row(*pick.state);
  // Locals: otherwise the profits the loop stores back and the transform's
  // libm calls force the context to be reloaded for every model.
  const int* unstarted = pick.unstarted;
  const double* mem_mb = pick.mem_mb;
  const double* planned_time = pick.planned_time;
  const double* mean_time = pick.mean_time;
  const double mem_free = pick.mem_free;
  const double now = pick.now;
  const double deadline = pick.deadline;
  const bool idle = pick.idle;
  int best = -1;
  double best_score = 0.0;
  for (int k = 0; k < pick.num_unstarted; ++k) {
    const int m = unstarted[k];
    const double mem = mem_mb[m];
    if (mem > mem_free) continue;
    if (now + planned_time[m] > deadline) continue;
    // Algorithm 2 line 4 (idle: anchor by profit / (time * mem)) or lines
    // 7-12 (fill remaining memory by profit / mem). Fills are bounded by the
    // global deadline rather than the literal anchor window: taken literally
    // the filter degenerates to near-serial execution whenever the
    // value-density anchor is a short model.
    const double p = profit[m];
    const double score = idle ? p / (mean_time[m] * mem) : p / mem;
    if (best == -1 || score > best_score) {
      best = m;
      best_score = score;
    }
  }
  return best;
}

void CheckRowKind(const DecisionPlane::Slot* slot, DecisionRow row) {
  AMS_CHECK(slot != nullptr);
  AMS_CHECK(slot->plane()->row_kind() == row,
            "picker slot comes from a plane with the wrong decision row "
            "(greedy reads Q, Algorithms 1 and 2 read SchedulingProfit)");
}

}  // namespace

ModelPicker MakeGreedyPicker(DecisionPlane::Slot* slot) {
  CheckRowKind(slot, DecisionRow::kQ);
  return [slot](const PickContext& pick) { return GreedyPick(slot, pick); };
}

ModelPicker MakeDeadlinePicker(DecisionPlane::Slot* slot) {
  CheckRowKind(slot, DecisionRow::kSchedulingProfit);
  return [slot](const PickContext& pick) { return DeadlinePick(slot, pick); };
}

ModelPicker MakeDeadlineMemoryPicker(DecisionPlane::Slot* slot) {
  CheckRowKind(slot, DecisionRow::kSchedulingProfit);
  return [slot](const PickContext& pick) {
    return DeadlineMemoryPick(slot, pick);
  };
}

ModelPicker MakeRandomPackingPicker(uint64_t seed) {
  struct PackState {
    util::Rng rng;
    std::vector<int> order;
    int shuffled_at = -1;
    explicit PackState(uint64_t s) : rng(s) {}
  };
  auto pack = std::make_shared<PackState>(seed);
  return [pack](const PickContext& pick) -> int {
    // One shuffle per event round (the state advances exactly once per
    // finish event), then pack feasible models in that order.
    if (pack->shuffled_at != pick.state->num_executed()) {
      const int n = pick.num_models;
      pack->order.resize(static_cast<size_t>(n));
      for (int m = 0; m < n; ++m) pack->order[static_cast<size_t>(m)] = m;
      pack->rng.Shuffle(&pack->order);
      pack->shuffled_at = pick.state->num_executed();
    }
    for (int m : pack->order) {
      if ((*pick.started)[static_cast<size_t>(m)]) continue;
      if (pick.mem_mb[m] > pick.mem_free) continue;
      if (pick.now + pick.planned_time[m] > pick.deadline) continue;
      return m;
    }
    return -1;
  };
}

}  // namespace ams::core
