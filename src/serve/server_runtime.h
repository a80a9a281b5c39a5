#ifndef AMS_SERVE_SERVER_RUNTIME_H_
#define AMS_SERVE_SERVER_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/labeling_service.h"
#include "serve/admission_queue.h"
#include "serve/metrics.h"
#include "serve/priority_class.h"
#include "serve/request.h"
#include "util/clock.h"

namespace ams::serve {

/// Serving-runtime knobs. Defaults favor throughput with backpressure; the
/// admission order itself is fixed (EDF within a class, 8:4:1 weighted
/// round-robin between classes; see AdmissionQueue).
struct ServeOptions {
  /// Worker run-loops; <= 0 resolves to the session's worker count.
  int workers = 0;
  /// Bound on queued-but-not-admitted requests (admission control).
  int queue_capacity = 1024;
  /// Items one worker multiplexes at once. Larger than the SubmitBatch wave
  /// size (16): the run-loop refills continuously, so unlike a wave there
  /// are no straggler rounds, and a fuller resident set keeps amortizing
  /// the per-tick batched forward and bookkeeping (32 measures fastest in
  /// bench_serve_runtime; beyond that the working set stops fitting cache).
  int max_resident_per_worker = 32;
  /// What a full queue does with new work.
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// Deadline slack granted to Enqueue() calls that do not pass their own:
  /// deadline = arrival + slack. Infinity = no deadline (pure FIFO order
  /// within a class).
  double default_slack_s = std::numeric_limits<double>::infinity();
  /// Per-tenant quotas (queued cap, in-flight cap, rate bucket); empty =
  /// no tenant accounting.
  TenantQuotaTable tenant_quotas;
  /// Time source for every serve-side timestamp (admission stamps,
  /// deadlines, latencies, metrics uptime); null = util::Clock::Monotonic().
  /// Tests inject a util::ManualClock here for deterministic timing
  /// assertions.
  const util::Clock* clock = nullptr;
  /// Tracing seam: when set (and enabled), the runtime records lifecycle
  /// spans — enqueue instants, queue-wait, exec, per-tick stepper and
  /// forward spans — into per-worker obs::TraceBuffer lanes, and the phase
  /// section of Metrics populates. Null (the default) keeps every
  /// instrumentation site at a single pointer test; a disabled tracer costs
  /// one extra relaxed load. Must outlive the runtime.
  obs::Tracer* tracer = nullptr;
};

/// The asynchronous serving runtime over a labeling session: admission in
/// front, long-lived worker run-loops behind. Each worker multiplexes up to
/// `max_resident_per_worker` in-flight items through a
/// core::LabelingService::ItemStepper, issuing one deduplicated batched
/// Q-forward per loop tick across all items resident on that worker. The
/// admission queue releases work per priority class (weighted round-robin
/// at 8:4:1, EDF within a class) and applies the configured overload policy
/// when full.
///
/// Per-item outcomes are identical to Submit() on the same session: items
/// are independent and the batched Q-path is bitwise identical to scalar,
/// so multiplexing changes scheduling cost, never results.
///
/// Lifecycle: construction spawns the workers; Enqueue() hands back a
/// future; Drain() waits for all accepted work; Shutdown() (also run by the
/// destructor) stops admission, completes accepted work, and joins. The
/// session must outlive the runtime and must not serve SubmitBatch/Run
/// calls while the runtime is live (both sides share the session's
/// per-worker predictor clone pool).
class ServerRuntime {
 public:
  /// `session` must not run rule_based or explore_exploit, whose outcomes
  /// depend on item order (see LabelingService::NewItemStepper).
  explicit ServerRuntime(core::LabelingService* session,
                         ServeOptions options = {});
  ~ServerRuntime();

  ServerRuntime(const ServerRuntime&) = delete;
  ServerRuntime& operator=(const ServerRuntime&) = delete;

  /// Per-request admission parameters.
  struct RequestOptions {
    /// Latency budget (deadline = arrival + slack): positive, infinity =
    /// explicitly no deadline. Unset = ServeOptions::default_slack_s.
    std::optional<double> slack_s;
    PriorityClass priority_class = PriorityClass::kStandard;
    /// Tenant owning the request (quota accounting + metrics slice).
    int tenant_id = 0;
  };

  /// Submits one item in the default (kStandard) class with the default
  /// deadline slack, as the default tenant (0). The future always resolves
  /// — with the labeling outcome, or with a rejected/shed/shutdown status.
  /// Under OverloadPolicy::kBlock this call blocks while the queue is full
  /// (or while the tenant is over its queued/in-flight quota). Thread-safe;
  /// any number of concurrent enqueuers.
  std::future<ServeResult> Enqueue(const core::WorkItem& item);

  /// Same, with an explicit slack (EDF priority within the class: tighter
  /// slack pops sooner), class and tenant.
  std::future<ServeResult> Enqueue(const core::WorkItem& item,
                                   const RequestOptions& request);

  /// Blocks until every request accepted so far has completed (queue empty
  /// and nothing in flight). The runtime keeps serving afterwards.
  void Drain();

  /// Stops admission, completes all accepted work, joins the workers.
  /// Idempotent; implied by destruction. Enqueues after (or racing with)
  /// shutdown resolve to ServeStatus::kShutdown, and enqueuers blocked on
  /// a full kBlock queue are woken with that status.
  void Shutdown();

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  /// Metrics snapshot stamped with the runtime's uptime on the serve clock.
  std::string MetricsJson() const;

  const ServeOptions& options() const { return options_; }
  const util::Clock& clock() const { return *clock_; }
  /// Read-only admission-queue introspection (per-class depths, blocked
  /// enqueuers) for operators and deterministic tests.
  const AdmissionQueue& admission_queue() const { return queue_; }
  int worker_count() const { return static_cast<int>(workers_.size()); }

 private:
  /// A request a worker has admitted into its stepper, keyed by ticket.
  struct InFlightRequest {
    std::promise<ServeResult> promise;
    PriorityClass priority_class = PriorityClass::kStandard;
    int tenant_id = 0;
    /// The request's ledger slices, resolved once at admission.
    RequestLedger ledger;
    double deadline_s = std::numeric_limits<double>::infinity();
    double enqueue_time_s = 0.0;
    double admit_time_s = 0.0;
    /// Carried from the QueuedRequest so completion can close the exec span.
    obs::TraceContext trace;
  };

  static AdmissionConfig AdmissionConfigFrom(const ServeOptions& options);

  void WorkerLoop(int worker_index);
  /// Records an instant event for a sampled request on the admission lane
  /// (no-op when tracing is off/disabled).
  void RecordRequestInstant(obs::Phase phase, const obs::TraceContext& trace,
                            int a0, int a1, int a2);
  /// Resolves a bounced (rejected / shed / post-shutdown) request counted
  /// in `ledger`; `quota` marks a rejection by the tenant's own quota.
  void ResolveBounced(QueuedRequest&& request, ServeStatus status,
                      const RequestLedger& ledger, bool quota);
  /// Completed-work accounting shared by every resolution path.
  void FinishOne();

  core::LabelingService* session_;
  ServeOptions options_;
  /// The serve time source (options.clock or the monotonic default); every
  /// timestamp in the runtime, queue and metrics reads this. The metrics
  /// registry tracks uptime itself from AttachClock time (= construction).
  const util::Clock* clock_;
  Metrics metrics_;
  AdmissionQueue queue_;
  /// Tracing (options.tracer): `admission_lane_` takes the enqueue-side
  /// instants (enqueue events race from many caller threads; the
  /// ring's fetch_add ticketing makes that safe); each worker caches its
  /// own lane in WorkerLoop. Both null when tracing is off.
  obs::Tracer* tracer_ = nullptr;
  obs::TraceBuffer* admission_lane_ = nullptr;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> sequence_{0};
  std::atomic<uint64_t> live_sequence_{0};
  /// Accepted but not yet finished (queued + in flight). Drain() waits on
  /// this reaching zero.
  std::atomic<long> outstanding_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  /// Serializes Shutdown() calls (idempotent join); the queue's closed flag
  /// is the shutdown signal the workers and enqueuers observe.
  std::mutex shutdown_mu_;
};

}  // namespace ams::serve

#endif  // AMS_SERVE_SERVER_RUNTIME_H_
