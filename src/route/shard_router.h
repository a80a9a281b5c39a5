#ifndef AMS_ROUTE_SHARD_ROUTER_H_
#define AMS_ROUTE_SHARD_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/labeling_service.h"
#include "route/placement.h"
#include "serve/server_runtime.h"
#include "util/clock.h"

namespace ams::route {

/// Router configuration. The per-shard serve options are uniform: every
/// shard runs the same admission policy, so a request's admission outcome
/// does not depend on where placement sent it.
struct RouterOptions {
  /// Applied to every shard runtime. `serve.clock` is shared by all shards
  /// and the router's rebalance tick — migration moves absolute deadline
  /// stamps between shards, which is only meaningful on one time axis.
  /// `serve.workers` is the per-shard worker count (<= 0 resolves per shard
  /// from its session, as in ServerRuntime).
  serve::ServeOptions serve;
  /// Placement policy; borrowed (must outlive the router). Null = an owned
  /// ConsistentHashPlacement, the deterministic default.
  Placement* placement = nullptr;
  /// Rebalance tick period on the serve clock; > 0 starts a background
  /// rebalancer thread, <= 0 disables rebalancing (RebalanceOnce() can
  /// still be called manually — deterministic tests drive it under a
  /// ManualClock).
  double rebalance_interval_s = 0.0;
  /// A tick migrates only when the hottest queue exceeds `rebalance_ratio`
  /// times the coldest (coldest counted as at least 1): small imbalances
  /// are left alone — migration has a cost, and placement noise at low
  /// depth is self-correcting.
  double rebalance_ratio = 1.5;
  /// Bound on requests moved per tick; bounds the transient capacity
  /// overshoot on the receiving shard (Requeue bypasses admission gates).
  int max_migrate_per_tick = 32;
};

/// One rebalance decision over a shard-depth vector: move `moves` queued
/// requests from shard `from` to shard `to` (moves == 0: balanced, leave
/// everything alone). Pure and unit-testable.
struct RebalancePlan {
  int from = -1;
  int to = -1;
  int moves = 0;
};

/// The decision rule behind ShardRouter::RebalanceOnce: pick the deepest
/// and shallowest shards (ties: lower index) and move half the gap,
/// `min(max_moves, (deepest - shallowest) / 2)`, so the source stays at
/// least as deep as the destination becomes — the max/min depth ratio
/// strictly shrinks and a tick can never invert the imbalance (no
/// ping-pong). Returns no move when the gap is under 2 or the ratio gate
/// (`deepest > ratio * max(shallowest, 1)`) says the imbalance is not
/// worth the migration cost.
RebalancePlan PlanRebalance(const std::vector<size_t>& depths, double ratio,
                            int max_moves);

/// Sharded serving front end: owns N independent serve::ServerRuntime
/// shards (one labeling session each — sessions cannot be shared across
/// runtimes) behind the same Enqueue(item, RequestOptions) ->
/// future<ServeResult> surface as a single runtime. A pluggable Placement
/// picks the shard per request; a rebalance tick migrates queued-but-not-
/// started work from hot shards to cold ones through the
/// AdmissionQueue::StealBatch / Requeue seam, preserving class, tenant,
/// deadline, and value-density stamps; AggregatedMetrics merges the
/// per-shard registries into one cluster view.
///
/// This is the in-process half of the ROADMAP shard layer: the Placement /
/// StealBatch seams are the points where a multi-process variant swaps in
/// RPC without touching the admission stack.
class ShardRouter final : public ShardLoadView {
 public:
  using RequestOptions = serve::ServerRuntime::RequestOptions;

  /// One shard per session; `sessions` must be non-empty, distinct,
  /// predictor-driven or random-packing, and outlive the router.
  /// Construction spawns every shard's workers (and the rebalancer when
  /// options.rebalance_interval_s > 0).
  explicit ShardRouter(const std::vector<core::LabelingService*>& sessions,
                       RouterOptions options = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// The ServerRuntime::Enqueue surface, routed. Stored items key placement
  /// by (tenant, item id) — deterministic under hash placement; live items
  /// key by a router-wide arrival counter (no stable identity to hash).
  std::future<serve::ServeResult> Enqueue(const core::WorkItem& item);
  std::future<serve::ServeResult> Enqueue(const core::WorkItem& item,
                                          double slack_s);
  std::future<serve::ServeResult> Enqueue(const core::WorkItem& item,
                                          serve::PriorityClass cls);
  std::future<serve::ServeResult> Enqueue(const core::WorkItem& item,
                                          double slack_s,
                                          serve::PriorityClass cls);
  std::future<serve::ServeResult> Enqueue(const core::WorkItem& item,
                                          const RequestOptions& request);

  /// Blocks until every accepted request on every shard has completed.
  void Drain();

  /// Stops the rebalancer, then shuts every shard down (stops admission,
  /// completes accepted work, joins workers). Idempotent; implied by
  /// destruction. The ordering guarantees a rebalance tick never races a
  /// closing queue, so migration can never strand a request.
  void Shutdown();

  /// One rebalance pass: plan over the current shard depths
  /// (PlanRebalance), steal from the hot shard, requeue on the cold one.
  /// Returns the number of requests actually moved. Thread-safe
  /// (serialized with the background rebalancer); deterministic tests call
  /// it directly under a ManualClock with no background thread.
  int RebalanceOnce();

  // ShardLoadView (placement reads shard queue depths through this).
  int num_shards() const override {
    return static_cast<int>(shards_.size());
  }
  size_t QueueDepth(int shard) const override;

  serve::ServerRuntime& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  const serve::ServerRuntime& shard(int i) const {
    return *shards_[static_cast<size_t>(i)];
  }
  const RouterOptions& options() const { return options_; }
  const util::Clock& clock() const { return *clock_; }
  Placement& placement() { return *placement_; }

  /// Requests routed to shard `i` so far (placement decisions, before
  /// admission).
  long routed(int shard) const {
    return routed_[static_cast<size_t>(shard)].load(std::memory_order_relaxed);
  }
  /// Requests moved between shards by rebalancing so far.
  long migrated() const {
    return migrated_.load(std::memory_order_relaxed);
  }
  /// Rebalance passes that ran (including no-op passes).
  long rebalance_ticks() const {
    return rebalance_ticks_.load(std::memory_order_relaxed);
  }

  /// Aggregated-metrics snapshot: {"aggregate": ..., "shards": [...],
  /// "router": {placement, per-shard routed counts, migrated, ticks}}.
  std::string MetricsJson() const;

  /// Exports every shard's retained trace events through `sink` (all lanes
  /// merged, timestamp-sorted). With the default obs::ChromeTraceSink the
  /// output loads in Perfetto / chrome://tracing and carries the tracer's
  /// dropped-event count; an empty trace (no tracer configured, or nothing
  /// recorded) still writes a valid document.
  void DumpTrace(std::ostream& out) const;
  void DumpTrace(std::ostream& out, const obs::TraceSink& sink) const;

 private:
  void RebalanceLoop();

  RouterOptions options_;
  const util::Clock* clock_;
  std::unique_ptr<Placement> owned_placement_;
  Placement* placement_;
  std::vector<std::unique_ptr<serve::ServerRuntime>> shards_;
  /// Heap array because vector<atomic> cannot resize (atomics are
  /// immovable); sized num_shards at construction.
  std::unique_ptr<std::atomic<long>[]> routed_;
  std::atomic<uint64_t> live_sequence_{0};
  std::atomic<long> migrated_{0};
  std::atomic<long> rebalance_ticks_{0};
  double start_time_s_ = 0.0;

  /// Serializes RebalanceOnce with the background loop and with Shutdown:
  /// shut_down_ flips under this mutex before the shards close, so a
  /// rebalance pass never sees a closing queue mid-migration.
  std::mutex rebalance_mu_;
  bool shut_down_ = false;
  std::thread rebalancer_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_rebalancer_ = false;
};

}  // namespace ams::route

#endif  // AMS_ROUTE_SHARD_ROUTER_H_
