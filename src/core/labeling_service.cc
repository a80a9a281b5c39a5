#include "core/labeling_service.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "core/value.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ams::core {

namespace {

// The decision row a predictor session's picker reads: greedy compares raw
// Q against END and q_greedy ranks by raw Q, while Algorithms 1 and 2 rank
// models by SchedulingProfit(Q).
DecisionRow DecisionRowFor(ExecutionMode mode, bool has_policy) {
  return mode == ExecutionMode::kGreedy || has_policy
             ? DecisionRow::kQ
             : DecisionRow::kSchedulingProfit;
}

}  // namespace

/// Per-worker predictor clones, created on first use and reused for the
/// session's lifetime. Cloning an rl::Agent allocates a net of the same
/// shape and copies every weight into it, one copy of the weights (1.1 MB
/// for the paper's net) and no gradient buffers; paying that once per
/// worker instead of once per batch is what lets short batches scale.
/// Every acquisition re-syncs the clone from the live source (a raw weight
/// copy in place, or a fresh clone when the predictor cannot sync), so a
/// predictor mutated between batches — a training loop, a checkpoint
/// reload — is always picked up, exactly as if the clone were rebuilt per
/// batch.
struct LabelingService::PredictorPool {
  std::mutex mu;
  std::vector<std::unique_ptr<ModelValuePredictor>> clones;  // by worker

  /// Returns the worker's up-to-date clone, or nullptr when the predictor
  /// does not support cloning (the caller then shares the original, which
  /// must be thread-safe — same contract as before the pool existed).
  ModelValuePredictor* GetOrCreate(int worker,
                                   ModelValuePredictor* predictor) {
    std::lock_guard<std::mutex> lock(mu);
    if (static_cast<size_t>(worker) >= clones.size()) {
      clones.resize(static_cast<size_t>(worker) + 1);
    }
    std::unique_ptr<ModelValuePredictor>& slot =
        clones[static_cast<size_t>(worker)];
    if (slot == nullptr || !slot->SyncWeightsFrom(predictor)) {
      slot = predictor->ClonePredictor();
    }
    return slot.get();
  }
};

/// One resident item record. RunOne keeps one per decision state and an
/// ItemStepper one per slot of its resident set; Arm() re-binds it to each
/// new item, so the kernel's tables, the execution contexts, the per-item
/// policy state and the installed picker are built once per record and
/// never per item. A record keeps no pointer to its session (sessions are
/// movable); every call that needs the configuration takes it.
class LabelingService::ResidentItem {
 public:
  /// `plane` is the stepper's shared plane; when it is null a record over a
  /// `predictor` builds a private single-slot plane (RunOne). A policy
  /// session's record installs a picker over `policy`, the worker's policy
  /// object, and its own per-item state; q_greedy reads the slot. Other
  /// predictor sessions install the mode's slot picker, and random packing
  /// builds its picker per item.
  ResidentItem(const Config& config, ModelValuePredictor* predictor,
               DecisionPlane* plane, sched::PolicyPicker* policy)
      : policy_(policy) {
    hooks_.on_executed = [this](const ExecutionRecord& record,
                                const LabelingState&) {
      return OnExecuted(record);
    };
    if (predictor != nullptr) {
      if (plane == nullptr) {
        private_plane_ = std::make_unique<DecisionPlane>(
            predictor, DecisionRowFor(config.mode, policy != nullptr));
        plane = private_plane_.get();
      }
      slot_ = plane->NewSlot();
    }
    if (policy != nullptr) {
      policy_item_.zoo = config.zoo;
      policy_item_.slot = slot_;
      picker_ = [this](const PickContext& pick) {
        return pick.idle ? policy_->Pick(pick, &policy_item_) : -1;
      };
      return;
    }
    if (slot_ == nullptr) return;
    switch (config.mode) {
      case ExecutionMode::kGreedy:
        picker_ = MakeGreedyPicker(slot_);
        break;
      case ExecutionMode::kSerial:
        picker_ = MakeDeadlinePicker(slot_);
        break;
      case ExecutionMode::kParallel:
        picker_ = MakeDeadlineMemoryPicker(slot_);
        break;
      case ExecutionMode::kParallelRandom:
        AMS_CHECK(false, "random packing takes no predictor");
    }
  }

  ResidentItem(const ResidentItem&) = delete;
  ResidentItem& operator=(const ResidentItem&) = delete;

  /// Re-arms the record for `item`: rebinds the execution context, resets
  /// the recall tally, sets the policy up for the item (or builds random
  /// packing's picker, seeded by `stream_id`), invalidates the slot and
  /// re-arms the kernel. Returns false when the item's recall target is met
  /// before any execution (e.g. an item with no valuable labels): nothing
  /// to schedule, and recall() is final.
  bool Arm(const Config& config, const WorkItem& item, uint64_t stream_id) {
    stored_ = item.item >= 0;
    AMS_CHECK(stored_ || item.scene != nullptr,
              "WorkItem needs a scene or a stored item id");
    AMS_CHECK(!stored_ || config.oracle != nullptr,
              "stored items need an oracle-backed session (WithOracle)");
    const ExecutionContext* exec = nullptr;
    if (stored_) {
      if (replay_.has_value()) {
        replay_->Rebind(item.item);
      } else {
        replay_.emplace(config.oracle, item.item);
      }
      exec = &*replay_;
      value_ = 0.0;
      total_value_ = config.oracle->TrueTotalValue(item.item);
      recall_target_ = config.recall_target;
    } else {
      if (live_.has_value()) {
        live_->Rebind(item.scene);
      } else {
        live_.emplace(config.zoo, item.scene);
      }
      exec = &*live_;
    }

    // Random packing's per-item picker; every other picker stays installed.
    // The policy is set up before the skip below, so a seeded policy draws
    // for every item, scheduled or not.
    ModelPicker picker;
    if (policy_ != nullptr) {
      policy_item_.oracle = stored_ ? config.oracle : nullptr;
      policy_item_.item = item.item;
      policy_item_.chunk_id = item.chunk_id;
      policy_->Arm(&policy_item_);
    } else if (config.mode == ExecutionMode::kParallelRandom) {
      picker = MakeRandomPackingPicker(
          util::HashCombine(config.seed, 0x9A7Au + stream_id));
    }

    // Items whose target is met before any execution (e.g. no valuable
    // labels at all) schedule nothing.
    if (stored_ && RecallTargetReached(recall(), recall_target_)) {
      return false;
    }
    if (slot_ != nullptr) slot_->Invalidate();
    if (kernel_.has_value()) {
      kernel_->Rearm(exec, std::move(picker));
    } else {
      kernel_.emplace(exec, config.constraints,
                      picker != nullptr ? std::move(picker) : picker_, hooks_,
                      config.kernel_mode);
    }
    return true;
  }

  ScheduleKernel& kernel() { return *kernel_; }
  DecisionPlane::Slot* slot() const { return slot_; }

  /// Value recall so far: the summed execution gains over the item's total
  /// value; -1 for live items (no ground truth).
  double recall() const {
    return stored_ ? ValueRecall(value_, total_value_) : -1.0;
  }

 private:
  bool OnExecuted(const ExecutionRecord& record) {
    if (policy_ != nullptr) policy_->OnExecuted(record, &policy_item_);
    if (!stored_) return false;
    value_ += record.gain;
    return RecallTargetReached(recall(), recall_target_);
  }

  std::optional<ReplayExecutionContext> replay_;
  std::optional<LiveExecutionContext> live_;
  bool stored_ = false;
  double value_ = 0.0;        // summed ExecutionRecord::gain
  double total_value_ = 0.0;  // Oracle::TrueTotalValue of the stored item
  double recall_target_ = -1.0;
  sched::PolicyPicker* policy_;  // the worker's; null without a policy
  sched::PolicyItem policy_item_;
  std::unique_ptr<DecisionPlane> private_plane_;
  DecisionPlane::Slot* slot_ = nullptr;
  ModelPicker picker_;
  KernelHooks hooks_;
  std::optional<ScheduleKernel> kernel_;
};

LabelingService::DecisionState::DecisionState() = default;
LabelingService::DecisionState::DecisionState(DecisionState&&) noexcept =
    default;
LabelingService::DecisionState& LabelingService::DecisionState::operator=(
    DecisionState&&) noexcept = default;
LabelingService::DecisionState::~DecisionState() = default;

LabelingService::LabelingService(Config config) : config_(std::move(config)) {
  if (config_.predictor != nullptr) {
    predictor_pool_ = std::make_shared<PredictorPool>();
  }
}

LabelingService::DecisionState LabelingService::MakeDecisionState(
    bool clone_predictor, int worker_index) const {
  DecisionState state;
  if (config_.policy_factory != nullptr) {
    state.policy = config_.policy_factory(worker_index);
    AMS_CHECK(state.policy != nullptr, "policy factory returned null");
  }
  if (config_.predictor != nullptr) {
    // Clones live in the session pool, created once per worker and reused
    // across batches.
    ModelValuePredictor* clone =
        clone_predictor
            ? predictor_pool_->GetOrCreate(worker_index, config_.predictor)
            : nullptr;
    // Predictors that cannot clone are shared; they must be thread-safe
    // (documented on ModelValuePredictor::ClonePredictor).
    state.predictor = clone != nullptr ? clone : config_.predictor;
  }
  return state;
}

LabelOutcome LabelingService::RunOne(const WorkItem& item,
                                     DecisionState* state,
                                     uint64_t stream_id) const {
  if (state->record == nullptr) {
    state->record = std::make_unique<ResidentItem>(
        config_, state->predictor, /*plane=*/nullptr, state->policy.get());
  }
  ResidentItem& record = *state->record;
  LabelOutcome outcome;
  if (record.Arm(config_, item, stream_id)) {
    ScheduleKernel& kernel = record.kernel();
    while (kernel.Step()) {
    }
    outcome.schedule = kernel.TakeResult();
  }
  outcome.recall = record.recall();
  return outcome;
}

LabelingService::ItemStepper::ItemStepper(const LabelingService* session,
                                          int worker_index)
    : session_(session),
      state_(session->MakeDecisionState(/*clone_predictor=*/true,
                                        worker_index)) {
  if (state_.predictor != nullptr) {
    // Steppers live for the serving runtime's lifetime over a frozen
    // predictor clone, the regime the plane's row memo exists for: at
    // steady state most decision points are served without a forward pass.
    plane_ = std::make_unique<DecisionPlane>(
        state_.predictor,
        DecisionRowFor(session->config_.mode, state_.policy != nullptr),
        /*memoize_rows=*/true);
  }
}

LabelingService::ItemStepper::~ItemStepper() = default;

void LabelingService::ItemStepper::AttachTracer(const obs::Tracer* tracer,
                                                obs::TraceBuffer* lane,
                                                const util::Clock* clock) {
  tracer_ = tracer;
  trace_lane_ = lane;
  trace_clock_ = clock;
  if (state_.predictor != nullptr) {
    backend_tier_ = state_.predictor->backend_info().simd_tier;
  }
}

uint64_t LabelingService::ItemStepper::Admit(const WorkItem& item,
                                             uint64_t stream_id) {
  const uint64_t ticket = next_ticket_++;
  ResidentItem* record = nullptr;
  if (free_records_.empty()) {
    records_.push_back(std::make_unique<ResidentItem>(
        session_->config_, state_.predictor, plane_.get(),
        state_.policy.get()));
    // Room for every record, so Tick hands them back without allocating.
    free_records_.reserve(records_.size());
    record = records_.back().get();
  } else {
    record = free_records_.back();
    free_records_.pop_back();
  }
  if (!record->Arm(session_->config_, item, stream_id)) {
    free_records_.push_back(record);
    Completion done;
    done.ticket = ticket;
    done.outcome.recall = record->recall();
    pending_.push_back(std::move(done));
    return ticket;
  }
  inflight_.push_back({ticket, record});
  return ticket;
}

void LabelingService::ItemStepper::Tick(std::vector<Completion>* completed) {
  // The tick span skips empty ticks (nothing resident, nothing pending) so
  // an idle polling loop cannot flood the trace ring. Everything the span
  // does — clock reads, stores into a preallocated ring slot — is
  // allocation-free, preserving the zero-heap steady-state tick.
  const int resident_at_entry = resident();
  obs::ScopedSpan tick_span(resident_at_entry > 0 ? tracer_ : nullptr,
                            trace_lane_, trace_clock_, obs::Phase::kTick);
  tick_stats_ = TickStats();
  const size_t completed_at_entry = completed->size();

  // Rewind the tick scratch arena: after the first few ticks sized it, this
  // is a pointer reset and the whole tick runs without touching the heap.
  arena_.Reset();
  for (Completion& done : pending_) completed->push_back(std::move(done));
  pending_.clear();
  if (inflight_.empty()) {
    FinishTickSpan(&tick_span, resident_at_entry,
                   static_cast<int>(completed->size() - completed_at_entry));
    return;
  }

  // One deduplicated batched forward pass refreshes every resident item
  // still consulting the picker; items mid-drain (stopped, or nothing new
  // to start) skip the Q refresh entirely. The kForward span is inert (no
  // clock read) unless the tick is traced and has slots to refresh, and it
  // is recorded only when the refresh ran a forward: a refresh the memo
  // served entirely leaves no span, so forward spans and the metrics'
  // forward histogram count the same events.
  if (plane_ != nullptr) {
    views_.clear();
    for (const InFlight& flight : inflight_) {
      ScheduleKernel& kernel = flight.record->kernel();
      if (kernel.picking()) {
        views_.push_back({flight.record->slot(), &kernel.state()});
      }
    }
    obs::ScopedSpan forward_span(
        tick_span.active() && !views_.empty() ? tracer_ : nullptr,
        trace_lane_, trace_clock_, obs::Phase::kForward);
    const long rows_before = plane_->batched_rows();
    const long memo_before = plane_->memo_hits();
    plane_->Prefetch(views_, &arena_);
    if (forward_span.active()) {
      const int rows = static_cast<int>(plane_->batched_rows() - rows_before);
      const int hits = static_cast<int>(plane_->memo_hits() - memo_before);
      tick_stats_.forward_rows = rows;
      tick_stats_.memo_hits = hits;
      if (rows > 0) {
        forward_span.set_args(rows, hits, backend_tier_);
        tick_stats_.forward_s = forward_span.Close();
      } else {
        forward_span.Discard();
      }
    }
  }

  // Advance every kernel past one finish event, compacting the resident set
  // in place as items complete.
  size_t live = 0;
  for (size_t i = 0; i < inflight_.size(); ++i) {
    const InFlight flight = inflight_[i];
    ScheduleKernel& kernel = flight.record->kernel();
    if (kernel.Step()) {
      inflight_[live++] = flight;
      continue;
    }
    Completion done;
    done.ticket = flight.ticket;
    done.outcome.schedule = kernel.TakeResult();
    done.outcome.recall = flight.record->recall();
    completed->push_back(std::move(done));
    free_records_.push_back(flight.record);
  }
  inflight_.resize(live);
  FinishTickSpan(&tick_span, resident_at_entry,
                 static_cast<int>(completed->size() - completed_at_entry));
}

void LabelingService::ItemStepper::FinishTickSpan(obs::ScopedSpan* span,
                                                  int resident_at_entry,
                                                  int completed_this_tick) {
  if (!span->active()) return;
  span->set_args(resident_at_entry, completed_this_tick,
                 static_cast<int32_t>(arena_.used()));
  tick_stats_.traced = true;
  tick_stats_.resident = resident_at_entry;
  tick_stats_.completed = completed_this_tick;
  tick_stats_.arena_used = arena_.used();
  tick_stats_.tick_s = span->Close();
}

int LabelingService::ItemStepper::resident() const {
  return static_cast<int>(inflight_.size() + pending_.size());
}

std::unique_ptr<LabelingService::ItemStepper> LabelingService::NewItemStepper(
    int worker_index) {
  AMS_CHECK(worker_index >= 0);
  std::unique_ptr<ItemStepper> stepper(new ItemStepper(this, worker_index));
  const sched::PolicyPicker* policy = stepper->state_.policy.get();
  AMS_CHECK(policy == nullptr || !policy->depends_on_item_order(),
            "item steppers interleave items, so they refuse policies whose "
            "outcomes depend on item order: rule_based draws from its rng on "
            "every pick, and explore_exploit sets an item up from what "
            "earlier items of its chunk executed (use Submit/SubmitBatch)");
  return stepper;
}

LabelOutcome LabelingService::Submit(const WorkItem& item) {
  if (!session_state_ready_) {
    session_state_ =
        MakeDecisionState(/*clone_predictor=*/false, /*worker_index=*/0);
    session_state_ready_ = true;
  }
  // The record's plane outlives this call and wraps the session's own
  // predictor, which may have changed since the last one (a training loop,
  // a checkpoint reload), so the empty state's row is forwarded afresh.
  if (session_state_.record != nullptr &&
      session_state_.record->slot() != nullptr) {
    session_state_.record->slot()->plane()->DropOpeningRow();
  }
  const uint64_t stream_id = item.item >= 0
                                 ? static_cast<uint64_t>(item.item)
                                 : live_sequence_++;
  return RunOne(item, &session_state_, stream_id);
}

std::vector<LabelOutcome> LabelingService::SubmitBatch(
    const std::vector<WorkItem>& items) {
  const int n = static_cast<int>(items.size());
  std::vector<LabelOutcome> results(static_cast<size_t>(n));
  if (n == 0) return results;

  // Live items take session-level stream ids so consecutive batches don't
  // replay identical random-packing sequences per batch position.
  const uint64_t live_base = live_sequence_;
  live_sequence_ += static_cast<uint64_t>(n);

  // Group items by chunk — a chunk's items stay with one worker, in arrival
  // order, so chunk-adaptive policies see the same history as a sequential
  // run even when chunks interleave. Chunkless items are singleton groups.
  std::vector<std::vector<int>> groups;  // item indices, arrival order
  std::map<int, size_t> chunk_group;     // chunk id -> index into groups
  for (int i = 0; i < n; ++i) {
    const int chunk = items[static_cast<size_t>(i)].chunk_id;
    if (chunk >= 0) {
      const auto [it, inserted] = chunk_group.emplace(chunk, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(i);
    } else {
      groups.push_back({i});
    }
  }

  // Contiguous blocks of groups, balanced by item count. The partition
  // depends only on (items, workers), never on thread timing.
  const int num_blocks =
      std::min(config_.workers, static_cast<int>(groups.size()));
  std::vector<std::pair<size_t, size_t>> blocks;  // group index ranges
  size_t g = 0;
  int assigned_items = 0;
  for (int b = 0; b < num_blocks && g < groups.size(); ++b) {
    const int remaining_items = n - assigned_items;
    const int remaining_blocks = num_blocks - b;
    const int quota =
        (remaining_items + remaining_blocks - 1) / remaining_blocks;
    const size_t start = g;
    int count = 0;
    while (g < groups.size() && (count < quota || b == num_blocks - 1)) {
      count += static_cast<int>(groups[g].size());
      ++g;
    }
    assigned_items += count;
    blocks.push_back({start, g});
  }
  // The last block's quota condition is bypassed, so every group is
  // assigned.
  AMS_CHECK(g == groups.size());

  const auto run_block = [&](const std::pair<size_t, size_t>& block,
                             int worker_index) {
    // One decision state per worker, kept across its items: policy objects
    // carry their rng and chunk-adaptive history from item to item.
    DecisionState state =
        MakeDecisionState(/*clone_predictor=*/true, worker_index);
    for (size_t gi = block.first; gi < block.second; ++gi) {
      for (int k : groups[gi]) {
        const WorkItem& item = items[static_cast<size_t>(k)];
        const uint64_t stream_id =
            item.item >= 0 ? static_cast<uint64_t>(item.item)
                           : live_base + static_cast<uint64_t>(k);
        results[static_cast<size_t>(k)] = RunOne(item, &state, stream_id);
      }
    }
  };

  if (blocks.size() == 1) {
    run_block(blocks[0], 0);
    return results;
  }
  util::ThreadPool pool(static_cast<int>(blocks.size()));
  std::vector<std::future<void>> futures;
  futures.reserve(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    const std::pair<size_t, size_t> block = blocks[b];
    const int worker_index = static_cast<int>(b);
    futures.push_back(pool.Submit(
        [&run_block, block, worker_index] { run_block(block, worker_index); }));
  }
  for (auto& future : futures) future.get();
  return results;
}

LabelingServiceBuilder::LabelingServiceBuilder(const zoo::ModelZoo* zoo) {
  AMS_CHECK(zoo != nullptr);
  config_.zoo = zoo;
}

LabelingServiceBuilder& LabelingServiceBuilder::WithOracle(
    const data::Oracle* oracle) {
  AMS_CHECK(oracle != nullptr);
  config_.oracle = oracle;
  return *this;
}

LabelingServiceBuilder& LabelingServiceBuilder::WithPredictor(
    ModelValuePredictor* predictor) {
  AMS_CHECK(predictor != nullptr);
  config_.predictor = predictor;
  return *this;
}

LabelingServiceBuilder& LabelingServiceBuilder::WithPolicy(
    const std::string& name, sched::PolicyOptions options) {
  pending_policy_name_ = name;
  pending_policy_options_ = std::move(options);
  has_pending_policy_ = true;
  config_.policy_factory = nullptr;
  return *this;
}

LabelingServiceBuilder& LabelingServiceBuilder::WithPolicyFactory(
    LabelingService::PolicyFactory factory) {
  AMS_CHECK(factory != nullptr);
  config_.policy_factory = [factory = std::move(factory)](int) {
    return factory();
  };
  has_pending_policy_ = false;
  return *this;
}

LabelingServiceBuilder& LabelingServiceBuilder::WithConstraints(
    const ScheduleConstraints& c) {
  config_.constraints = c;
  return *this;
}

LabelingServiceBuilder& LabelingServiceBuilder::WithMode(ExecutionMode mode) {
  config_.mode = mode;
  return *this;
}

LabelingServiceBuilder& LabelingServiceBuilder::WithKernelMode(
    KernelMode mode) {
  config_.kernel_mode = mode;
  return *this;
}

LabelingServiceBuilder& LabelingServiceBuilder::WithWorkers(int workers) {
  config_.workers = workers;
  return *this;
}

LabelingServiceBuilder& LabelingServiceBuilder::WithSeed(uint64_t seed) {
  config_.seed = seed;
  return *this;
}

LabelingServiceBuilder& LabelingServiceBuilder::WithRecallTarget(
    double target) {
  config_.recall_target = target;
  return *this;
}

LabelingService LabelingServiceBuilder::Build() const {
  LabelingService::Config config = config_;
  if (has_pending_policy_) {
    const std::string& name = pending_policy_name_;
    AMS_CHECK(sched::PolicyRegistry::Contains(name),
              "unknown policy '" + name +
                  "'; known: " + sched::PolicyRegistry::JoinedNames());
    const bool needs_predictor =
        sched::PolicyRegistry::Traits(name).needs_predictor;
    AMS_CHECK(!needs_predictor || config.predictor != nullptr,
              "policy '" + name +
                  "' reads Q from the session predictor; configure "
                  "WithPredictor");
    AMS_CHECK(needs_predictor || config.predictor == nullptr,
              "policy '" + name +
                  "' reads no predictor; configure a predictor or a policy, "
                  "not both");
    const sched::PolicyOptions options = pending_policy_options_;
    config.policy_factory = [name, options](int worker) {
      // Worker 0 keeps the caller's seed so sequential sessions reproduce
      // direct policy construction; only extra workers decorrelate, so
      // seeded baselines don't replay one random sequence on every worker.
      sched::PolicyOptions per_worker = options;
      if (worker != 0) {
        per_worker.seed = util::HashCombine(options.seed,
                                            static_cast<uint64_t>(worker));
      }
      return sched::PolicyRegistry::Create(name, per_worker);
    };
  }
  config.constraints.Validate();

  const bool has_policy = config.policy_factory != nullptr;
  switch (config.mode) {
    case ExecutionMode::kGreedy:
      // Greedy is the unconstrained schedule (§V intro); a budget the
      // picker would never check must not be silently accepted.
      AMS_CHECK(std::isinf(config.constraints.time_budget_s) &&
                    std::isinf(config.constraints.memory_budget_mb),
                "greedy mode is unconstrained; use kSerial or kParallel "
                "for budgeted scheduling");
      [[fallthrough]];
    case ExecutionMode::kParallel:
      AMS_CHECK(config.predictor != nullptr && !has_policy,
                "greedy/parallel modes are predictor-driven (WithPredictor); "
                "policies schedule serially");
      break;
    case ExecutionMode::kSerial:
      AMS_CHECK(config.predictor != nullptr || has_policy,
                "serial mode needs a predictor (Algorithm 1) or a policy");
      // Algorithm 1 and the serial policies are time-only; a memory budget
      // they would never check must not be silently accepted.
      AMS_CHECK(std::isinf(config.constraints.memory_budget_mb),
                "serial scheduling is time-only; use kParallel for memory "
                "budgets");
      break;
    case ExecutionMode::kParallelRandom:
      AMS_CHECK(config.predictor == nullptr && !has_policy,
                "random packing takes neither a predictor nor a policy");
      break;
  }
  if (config.predictor != nullptr) {
    AMS_CHECK(config.predictor->num_actions() == config.zoo->num_models() + 1,
              "predictor action space must be num_models + END");
  }
  if (config.oracle != nullptr) {
    AMS_CHECK(&config.oracle->zoo() == config.zoo,
              "oracle must wrap the session's zoo");
  }
  if (config.recall_target >= 0.0) {
    AMS_CHECK(config.oracle != nullptr,
              "recall targets need stored ground truth (WithOracle)");
  }
  if (config.workers <= 0) {
    config.workers = util::ThreadPool::DefaultThreads();
  }
  return LabelingService(std::move(config));
}

}  // namespace ams::core
