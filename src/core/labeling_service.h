#ifndef AMS_CORE_LABELING_SERVICE_H_
#define AMS_CORE_LABELING_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/decision_plane.h"
#include "core/predictor.h"
#include "core/schedule_kernel.h"
#include "data/oracle.h"
#include "obs/trace.h"
#include "sched/policy_picker.h"
#include "sched/policy_registry.h"

namespace ams::core {

/// How a labeling session executes models for one item.
enum class ExecutionMode {
  /// Q-greedy, END-stop (§V intro). Predictor-driven, unconstrained.
  kGreedy,
  /// Serial scheduling under a deadline: a registry policy when the session
  /// has one (q_greedy also reads the session predictor), otherwise
  /// Algorithm 1 over the predictor. Algorithm 1 scores a model by
  /// SchedulingProfit(Q) over the zoo's mean time; it and every policy check
  /// feasibility against the execution context's planned time (the realized
  /// draw under replay, the mean time on live items).
  kSerial,
  /// Algorithm 2 under deadline + memory. Predictor-driven.
  kParallel,
  /// Random feasible packing under deadline + memory (§VI-G baseline).
  kParallelRandom,
};

/// One unit of labeling work. Live sessions label scenes (production
/// information pattern); oracle-backed sessions label stored items by index
/// (offline evaluation). `chunk_id` marks correlated streams.
struct WorkItem {
  const zoo::LatentScene* scene = nullptr;
  int item = -1;
  int chunk_id = -1;

  /// The scene must stay alive until the item has been labeled (a pointer,
  /// not a reference, so temporaries are rejected at the call site).
  static WorkItem Live(const zoo::LatentScene* scene) {
    WorkItem w;
    w.scene = scene;
    return w;
  }
  static WorkItem Stored(int item, int chunk_id = -1) {
    WorkItem w;
    w.item = item;
    w.chunk_id = chunk_id;
    return w;
  }
};

/// Outcome of labeling one item through a session.
struct LabelOutcome {
  ScheduleResult schedule;
  /// Value recall against stored ground truth; -1 when the item was live
  /// (no ground truth to compare against).
  double recall = -1.0;
};

/// The public facade of the framework: one session-based API over every
/// scheduling regime the paper describes — greedy, Algorithm 1, Algorithm 2,
/// and all registry policies — on live scenes or stored items, one at a
/// time, in batches, or multiplexed in flight by an ItemStepper. Construct
/// via LabelingServiceBuilder.
///
/// Threading model: Submit() runs inline and keeps one session-level
/// decision state (policy object, resident record), so chunked-stream
/// policies accumulate knowledge across consecutive submissions.
/// SubmitBatch() fans out over a util::ThreadPool with a decision state
/// per worker (its own policy object and predictor clone) and a
/// deterministic partition (whole chunks never split across workers), so
/// results are reproducible for a fixed seed and worker count. A session
/// parallelizes internally but is not itself thread-safe: issue
/// Submit/SubmitBatch calls one at a time (the live-item sequence and
/// the pooled per-worker predictor clones are shared session state).
///
/// Two drivers label items, and both produce bit-identical outcomes:
/// Submit/SubmitBatch label each item start to finish on a per-worker
/// decision state (RunOne), and ItemStepper multiplexes in-flight items for
/// the serving runtime, sharing one batched, memoized Q-forward per tick.
/// Both run items on resident item records: one per RunOne decision state
/// and one per stepper slot, each holding a rebindable execution context,
/// the picker it installs once (over a stable decision-plane slot, or over
/// the worker's policy object and the record's per-item policy state), the
/// hooks and a kernel that is re-armed per item. Recall is the sum of the
/// kernel's per-execution gains over the item's total value, so no output
/// is walked twice, and a warm lean record labels an item without touching
/// the heap.
/// The one execution-plane knob, WithKernelMode(kLean), skips result
/// materialization for recall-only paths; it changes cost, never recall.
class LabelingService {
 public:
  using PolicyFactory =
      std::function<std::unique_ptr<sched::PolicyPicker>()>;

  LabelingService(LabelingService&&) = default;
  LabelingService& operator=(LabelingService&&) = default;

  /// Labels one item inline.
  LabelOutcome Submit(const WorkItem& item);
  LabelOutcome Submit(const zoo::LatentScene& scene) {
    return Submit(WorkItem::Live(&scene));  // used before Submit returns
  }

  /// Labels a batch, fanned out over the session's workers. Result order
  /// matches item order. A stream is one batch in arrival order, each item
  /// tagged with its chunk (WorkItem::chunk_id).
  std::vector<LabelOutcome> SubmitBatch(const std::vector<WorkItem>& items);

  const zoo::ModelZoo& zoo() const { return *config_.zoo; }
  const data::Oracle* oracle() const { return config_.oracle; }
  ExecutionMode mode() const { return config_.mode; }
  KernelMode kernel_mode() const { return config_.kernel_mode; }
  const ScheduleConstraints& constraints() const {
    return config_.constraints;
  }
  int worker_count() const { return config_.workers; }

  /// The session hand-off point for asynchronous backends: a worker-scoped
  /// stepper that multiplexes a dynamic set of in-flight items by advancing
  /// their resumable ScheduleKernels event-by-event. Admit() re-arms a free
  /// resident item record (built on first need, then kept for the stepper's
  /// lifetime, so warm admission allocates nothing) and assigns the item a
  /// ticket; each Tick() refreshes every resident
  /// item's decision-row slot with ONE batched DecisionPlane forward pass
  /// (memo hits point at stored rows instead), then steps every kernel past
  /// one finish event and reports completed items. Items
  /// are independent, so interleaving them cannot change any outcome — per
  /// item, a stepper run is bit-identical to Submit() with the same
  /// stream_id. (The random policy draws an item's permutation when the
  /// item is admitted, so it matches Submit for the same admission order.)
  ///
  /// A stepper is single-threaded (one per serve worker, like a SubmitBatch
  /// worker); distinct steppers of one session may run concurrently. Create
  /// via NewItemStepper. (Defined below the class — it uses the session's
  /// private decision-state machinery.)
  class ItemStepper;

  /// Creates a stepper bound to this session's configuration, with the
  /// worker's own policy object. Steppers serve predictor, random-packing
  /// and policy sessions, except the policies whose outcomes depend on item
  /// order, which are rejected: rule_based draws from its rng on every
  /// pick, and explore_exploit sets an item up from what earlier items of
  /// its chunk executed. `worker_index` keys the per-worker predictor clone
  /// pool and seeds the worker's policy as SubmitBatch's worker of that
  /// index; concurrent steppers must use distinct indices. Do not run
  /// SubmitBatch on the session while steppers are live (they share the
  /// clone pool).
  std::unique_ptr<ItemStepper> NewItemStepper(int worker_index);

 private:
  friend class LabelingServiceBuilder;

  /// Validated session configuration (plain values; copyable).
  struct Config {
    const zoo::ModelZoo* zoo = nullptr;
    const data::Oracle* oracle = nullptr;
    ModelValuePredictor* predictor = nullptr;
    /// Per-worker policy constructor; the worker index decorrelates seeded
    /// policies across workers (registry path only — custom factories get
    /// called as-is).
    std::function<std::unique_ptr<sched::PolicyPicker>(int)> policy_factory;
    ScheduleConstraints constraints;
    ExecutionMode mode = ExecutionMode::kGreedy;
    KernelMode kernel_mode = KernelMode::kFull;
    int workers = 0;  // <= 0: resolved to hardware concurrency in Build()
    uint64_t seed = 1;
    double recall_target = -1.0;
  };

  explicit LabelingService(Config config);

  /// One resident item record: a rebindable execution context, the recall
  /// tally, the per-item policy state, the picker it installs once, the
  /// hooks and a kernel, all re-armed per item (defined in the .cc).
  /// Heap-allocated and never moved, so the hooks and picker can capture it.
  class ResidentItem;

  // One worker's decision-making state (policy objects and rl agents are
  // stateful and must not be shared across threads). Predictor clones are
  // owned by the session's PredictorPool, keyed by worker index.
  struct DecisionState {
    DecisionState();
    DecisionState(DecisionState&&) noexcept;
    DecisionState& operator=(DecisionState&&) noexcept;
    ~DecisionState();

    ModelValuePredictor* predictor = nullptr;
    std::unique_ptr<sched::PolicyPicker> policy;
    /// RunOne's record, built on first use over a private single-slot plane
    /// and re-armed for every item this state labels.
    std::unique_ptr<ResidentItem> record;
  };
  DecisionState MakeDecisionState(bool clone_predictor,
                                  int worker_index) const;

  /// Session-level per-worker predictor clones, reused across SubmitBatch
  /// calls — cloning a Q-net serializes megabytes of weights, far too
  /// expensive to repeat per batch (defined in the .cc).
  struct PredictorPool;

  /// Labels one item with the given decision state, on the state's resident
  /// record. `stream_id` seeds the random-packing mode (the stored item id,
  /// or the submission sequence number for live items).
  LabelOutcome RunOne(const WorkItem& item, DecisionState* state,
                      uint64_t stream_id) const;

  Config config_;
  /// Present iff the session has a predictor; shared_ptr so the service
  /// stays movable with an incomplete type.
  std::shared_ptr<PredictorPool> predictor_pool_;

  // Session-level state for sequential Submit().
  DecisionState session_state_;
  bool session_state_ready_ = false;
  uint64_t live_sequence_ = 0;
};

class LabelingService::ItemStepper {
 public:
  /// A finished item: the ticket Admit() returned and its outcome.
  struct Completion {
    uint64_t ticket = 0;
    LabelOutcome outcome;
  };

  ~ItemStepper();
  ItemStepper(const ItemStepper&) = delete;
  ItemStepper& operator=(const ItemStepper&) = delete;

  /// Takes an item in flight and returns its ticket. `stream_id` seeds
  /// stream-dependent pickers; pass the stored item id for replayed items
  /// (Submit() parity) or a unique admission sequence number for live
  /// scenes. Items whose work is already done (recall target met before any
  /// execution) complete at the next Tick().
  uint64_t Admit(const WorkItem& item, uint64_t stream_id);

  /// One cooperative tick over the resident set: batched Q refresh, one
  /// kernel step each, completions appended to `completed`.
  void Tick(std::vector<Completion>* completed);

  /// Items currently in flight (including ones finishing next Tick).
  int resident() const;
  bool idle() const { return resident() == 0; }

  /// What the last traced Tick() measured, published so the serving runtime
  /// can fold phase durations into its metrics without timing the tick a
  /// second time. `traced` is false (and the rest zero) when no tracer was
  /// attached, the tracer was disabled, or the tick had nothing resident.
  struct TickStats {
    bool traced = false;
    double tick_s = 0.0;
    /// The batched refresh (memo lookups, deduplication and the net's
    /// forward), when it ran a forward (forward_rows > 0); 0 otherwise.
    /// Profits are computed by the picks, in the rest of the tick.
    double forward_s = 0.0;
    int forward_rows = 0;
    int memo_hits = 0;
    int resident = 0;
    int completed = 0;
    std::size_t arena_used = 0;
  };

  /// Attaches the tracing seam: while `tracer` is enabled, every non-empty
  /// Tick() records a kTick span (and a kForward span around the batched Q
  /// refresh when the stepper is predictor-driven and the refresh ran a
  /// forward rather than serving every row from the memo) into `lane`
  /// stamped on `clock`, and publishes TickStats. All three must outlive the
  /// stepper; recording stays free of heap allocations (preallocated ring
  /// slots), so the zero-allocation steady-state tick contract holds with
  /// tracing on.
  void AttachTracer(const obs::Tracer* tracer, obs::TraceBuffer* lane,
                    const util::Clock* clock);

  const TickStats& last_tick_stats() const { return tick_stats_; }

 private:
  friend class LabelingService;
  ItemStepper(const LabelingService* session, int worker_index);

  /// Stamps args on the tick span, publishes TickStats, and closes it.
  void FinishTickSpan(obs::ScopedSpan* span, int resident_at_entry,
                      int completed_this_tick);

  struct InFlight {
    uint64_t ticket = 0;
    ResidentItem* record = nullptr;  // owned by records_
  };

  const LabelingService* session_;
  DecisionState state_;
  /// Present iff the session is predictor-driven: the coalescing point for
  /// the per-tick batched forward pass.
  std::unique_ptr<DecisionPlane> plane_;
  /// Worker-affine scratch for the plane's per-tick batch buffers, rewound
  /// at the top of every Tick so steady-state ticks never malloc.
  util::Arena arena_;
  /// Every record this stepper built, one per slot of its peak resident
  /// set; each holds a slot of plane_ for the stepper's lifetime.
  std::vector<std::unique_ptr<ResidentItem>> records_;
  std::vector<ResidentItem*> free_records_;  // not in flight, ready to re-arm
  std::vector<InFlight> inflight_;
  /// Completions waiting for the next Tick (items skipped at admission).
  std::vector<Completion> pending_;
  std::vector<DecisionPlane::SlotView> views_;  // Tick scratch
  uint64_t next_ticket_ = 0;
  /// Tracing seam (AttachTracer): null until attached. The SIMD tier arg of
  /// kForward spans is resolved once at attach time: the kernel tier is
  /// dispatched once per process (nn::simd::ActiveTier).
  const obs::Tracer* tracer_ = nullptr;
  obs::TraceBuffer* trace_lane_ = nullptr;
  const util::Clock* trace_clock_ = nullptr;
  int backend_tier_ = -1;
  TickStats tick_stats_;
};

/// Builder of LabelingService sessions. kGreedy and kParallel take a
/// predictor; kSerial takes a predictor (Algorithm 1) or a policy
/// (WithPolicy/WithPolicyFactory), and q_greedy takes both; kParallelRandom
/// takes neither. Build() validates the whole configuration and crashes
/// with a clear message on an invalid one.
class LabelingServiceBuilder {
 public:
  /// `zoo` must outlive the built service.
  explicit LabelingServiceBuilder(const zoo::ModelZoo* zoo);

  /// Replays stored outputs of `oracle` for WorkItem::Stored submissions and
  /// reports value recall. The oracle must wrap the same zoo.
  LabelingServiceBuilder& WithOracle(const data::Oracle* oracle);

  /// Predictor-driven scheduling (greedy / Algorithm 1 / Algorithm 2), and
  /// the Q that q_greedy reads. The predictor must outlive the service; it
  /// is cloned per worker when it supports ClonePredictor (rl::Agent does).
  LabelingServiceBuilder& WithPredictor(ModelValuePredictor* predictor);

  /// Policy-driven serial scheduling, resolved through sched::PolicyRegistry.
  /// Unknown names fail in Build(), as does q_greedy without WithPredictor.
  /// Worker 0 gets `options.seed`; worker w > 0 gets
  /// util::HashCombine(options.seed, w), so seeded baselines do not replay
  /// one random sequence on every worker.
  LabelingServiceBuilder& WithPolicy(const std::string& name,
                                     sched::PolicyOptions options = {});

  /// Policy-driven serial scheduling with a custom factory (called once per
  /// worker and as-is, so a policy built from a fixed seed is seeded alike
  /// on every worker; instances are never shared across threads).
  LabelingServiceBuilder& WithPolicyFactory(
      LabelingService::PolicyFactory factory);

  LabelingServiceBuilder& WithConstraints(const ScheduleConstraints& c);
  LabelingServiceBuilder& WithMode(ExecutionMode mode);
  /// KernelMode::kLean skips the per-execution records and the
  /// recalled-label map: LabelOutcome keeps makespan, value, execution count
  /// and recall but `schedule.executions`/`recalled_labels` stay empty. The
  /// offline recall-only paths (deadline/memory sweeps) run lean.
  LabelingServiceBuilder& WithKernelMode(KernelMode mode);
  /// Worker threads for SubmitBatch; <= 0 means hardware concurrency.
  LabelingServiceBuilder& WithWorkers(int workers);
  LabelingServiceBuilder& WithSeed(uint64_t seed);
  /// Oracle-backed serial sessions stop an item once this value recall is
  /// reached (the ground-truth stop of §VI-B); < 0 disables.
  LabelingServiceBuilder& WithRecallTarget(double target);

  /// Validates the configuration and builds the session.
  LabelingService Build() const;

 private:
  LabelingService::Config config_;
  std::string pending_policy_name_;
  sched::PolicyOptions pending_policy_options_;
  bool has_pending_policy_ = false;
};

}  // namespace ams::core

#endif  // AMS_CORE_LABELING_SERVICE_H_
