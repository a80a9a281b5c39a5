#include "route/shard_router.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "route/aggregated_metrics.h"
#include "util/check.h"

namespace ams::route {

RebalancePlan PlanRebalance(const std::vector<size_t>& depths, double ratio,
                            int max_moves) {
  RebalancePlan plan;
  if (depths.size() < 2 || max_moves < 1) return plan;
  int from = 0;
  int to = 0;
  for (int i = 1; i < static_cast<int>(depths.size()); ++i) {
    const size_t depth = depths[static_cast<size_t>(i)];
    if (depth > depths[static_cast<size_t>(from)]) from = i;
    if (depth < depths[static_cast<size_t>(to)]) to = i;
  }
  const size_t hot = depths[static_cast<size_t>(from)];
  const size_t cold = depths[static_cast<size_t>(to)];
  // Half the gap: the source never ends up shallower than the destination,
  // so repeated ticks converge monotonically instead of ping-ponging.
  const int moves =
      std::min<long>(max_moves, static_cast<long>((hot - cold) / 2));
  if (moves < 1) return plan;
  if (static_cast<double>(hot) <=
      ratio * static_cast<double>(std::max<size_t>(cold, 1))) {
    return plan;
  }
  plan.from = from;
  plan.to = to;
  plan.moves = moves;
  return plan;
}

ShardRouter::ShardRouter(const std::vector<core::LabelingService*>& sessions,
                         RouterOptions options)
    : options_(options),
      clock_(options.serve.clock != nullptr ? options.serve.clock
                                            : &util::Clock::Monotonic()) {
  AMS_CHECK(!sessions.empty(), "a router needs at least one shard session");
  for (size_t i = 0; i < sessions.size(); ++i) {
    AMS_CHECK(sessions[i] != nullptr);
    for (size_t j = i + 1; j < sessions.size(); ++j) {
      // A session's predictor clone pool serves one runtime's workers;
      // sharing it across shards would race.
      AMS_CHECK(sessions[i] != sessions[j],
                "each shard needs its own labeling session");
    }
  }
  AMS_CHECK(options_.rebalance_ratio >= 1.0,
            "rebalance_ratio below 1 would migrate on perfect balance");
  AMS_CHECK(options_.max_migrate_per_tick >= 1);
  if (options_.placement != nullptr) {
    placement_ = options_.placement;
  } else {
    owned_placement_ = std::make_unique<ConsistentHashPlacement>();
    placement_ = owned_placement_.get();
  }
  shards_.reserve(sessions.size());
  for (size_t i = 0; i < sessions.size(); ++i) {
    // Uniform serve options except the shard id: shard i's trace lanes and
    // trace ids carry its own index, all feeding the one shared tracer.
    serve::ServeOptions shard_options = options_.serve;
    shard_options.shard_id = static_cast<int>(i);
    shards_.push_back(
        std::make_unique<serve::ServerRuntime>(sessions[i], shard_options));
  }
  routed_ = std::make_unique<std::atomic<long>[]>(sessions.size());
  for (size_t i = 0; i < sessions.size(); ++i) {
    routed_[i].store(0, std::memory_order_relaxed);
  }
  start_time_s_ = clock_->NowSeconds();
  if (options_.rebalance_interval_s > 0.0) {
    rebalancer_ = std::thread(&ShardRouter::RebalanceLoop, this);
  }
}

ShardRouter::~ShardRouter() { Shutdown(); }

size_t ShardRouter::QueueDepth(int shard) const {
  return shards_[static_cast<size_t>(shard)]->admission_queue().size();
}

std::future<serve::ServeResult> ShardRouter::Enqueue(
    const core::WorkItem& item) {
  return Enqueue(item, RequestOptions{});
}

std::future<serve::ServeResult> ShardRouter::Enqueue(const core::WorkItem& item,
                                                     double slack_s) {
  RequestOptions request;
  request.slack_s = slack_s;
  return Enqueue(item, request);
}

std::future<serve::ServeResult> ShardRouter::Enqueue(
    const core::WorkItem& item, serve::PriorityClass cls) {
  RequestOptions request;
  request.priority_class = cls;
  return Enqueue(item, request);
}

std::future<serve::ServeResult> ShardRouter::Enqueue(const core::WorkItem& item,
                                                     double slack_s,
                                                     serve::PriorityClass cls) {
  RequestOptions request;
  request.slack_s = slack_s;
  request.priority_class = cls;
  return Enqueue(item, request);
}

std::future<serve::ServeResult> ShardRouter::Enqueue(
    const core::WorkItem& item, const RequestOptions& request) {
  RouteKey key;
  key.tenant_id = request.tenant_id;
  key.key = item.item >= 0
                ? static_cast<uint64_t>(item.item)
                : live_sequence_.fetch_add(1, std::memory_order_relaxed);
  const int shard = placement_->ShardFor(key, *this);
  AMS_CHECK(shard >= 0 && shard < num_shards(),
            "placement returned an out-of-range shard");
  routed_[static_cast<size_t>(shard)].fetch_add(1, std::memory_order_relaxed);
  obs::Tracer* tracer = options_.serve.tracer;
  if (tracer != nullptr && tracer->enabled()) {
    // Placement precedes admission, so the request has no trace id yet:
    // the instant is lane-scoped (id 0), recording where the router sent
    // traffic and in which class. Lane lookup is a mutex-guarded map probe;
    // placement is not the per-tick hot path, so no cached pointer here.
    obs::TraceEvent event;
    event.ts_s = clock_->NowSeconds();
    event.phase = static_cast<uint8_t>(obs::Phase::kPlacement);
    event.a0 = shard;
    event.a1 = static_cast<int32_t>(request.priority_class);
    tracer->EnsureLane(static_cast<uint16_t>(shard), obs::kAdmissionLane)
        ->Record(event);
  }
  return shards_[static_cast<size_t>(shard)]->Enqueue(item, request);
}

int ShardRouter::RebalanceOnce() {
  std::lock_guard<std::mutex> lock(rebalance_mu_);
  rebalance_ticks_.fetch_add(1, std::memory_order_relaxed);
  if (shut_down_ || num_shards() < 2) return 0;
  std::vector<size_t> depths(static_cast<size_t>(num_shards()));
  for (int i = 0; i < num_shards(); ++i) {
    depths[static_cast<size_t>(i)] = QueueDepth(i);
  }
  const RebalancePlan plan = PlanRebalance(
      depths, options_.rebalance_ratio, options_.max_migrate_per_tick);
  if (plan.moves == 0) return 0;
  serve::ServerRuntime& hot = *shards_[static_cast<size_t>(plan.from)];
  serve::ServerRuntime& cold = *shards_[static_cast<size_t>(plan.to)];
  std::vector<serve::QueuedRequest> batch;
  batch.reserve(static_cast<size_t>(plan.moves));
  // The hot shard's workers pop concurrently, so fewer than plan.moves may
  // remain to steal — StealBatch takes what is there.
  hot.StealQueued(plan.moves, &batch);
  int moved = 0;
  obs::Tracer* tracer = options_.serve.tracer;
  obs::TraceBuffer* out_lane = nullptr;
  obs::TraceBuffer* in_lane = nullptr;
  if (tracer != nullptr && tracer->enabled()) {
    out_lane = tracer->EnsureLane(static_cast<uint16_t>(plan.from),
                                  obs::kAdmissionLane);
    in_lane = tracer->EnsureLane(static_cast<uint16_t>(plan.to),
                                 obs::kAdmissionLane);
  }
  for (serve::QueuedRequest& stolen : batch) {
    // Both migration instants are recorded here, where source and
    // destination are both known: kMigrateOut on the hot shard's lane the
    // moment the request leaves it, kMigrateIn on the cold shard's lane
    // once Requeue accepts it. The trace id rides the QueuedRequest, so the
    // pair stitches the request's cross-shard span chain together.
    const obs::TraceContext trace = stolen.trace;
    if (out_lane != nullptr && trace.sampled) {
      obs::TraceEvent event;
      event.id = trace.id;
      event.ts_s = clock_->NowSeconds();
      event.phase = static_cast<uint8_t>(obs::Phase::kMigrateOut);
      event.a0 = plan.from;
      event.a1 = plan.to;
      out_lane->Record(event);
    }
    if (cold.RequeueMigrated(std::move(stolen))) {
      ++moved;
      if (in_lane != nullptr && trace.sampled) {
        obs::TraceEvent event;
        event.id = trace.id;
        event.ts_s = clock_->NowSeconds();
        event.phase = static_cast<uint8_t>(obs::Phase::kMigrateIn);
        event.a0 = plan.from;
        event.a1 = plan.to;
        in_lane->Record(event);
      }
      continue;
    }
    // Unreachable while the shutdown ordering holds (shut_down_ flips under
    // rebalance_mu_ before any queue closes); kept as a safety net so a
    // stolen request can never be stranded without a result.
    if (hot.RequeueMigrated(std::move(stolen))) {
      // Bounced back home: close the hop so every kMigrateOut still pairs
      // with exactly one kMigrateIn (span conservation).
      if (out_lane != nullptr && trace.sampled) {
        obs::TraceEvent event;
        event.id = trace.id;
        event.ts_s = clock_->NowSeconds();
        event.phase = static_cast<uint8_t>(obs::Phase::kMigrateIn);
        event.a0 = plan.from;
        event.a1 = plan.from;
        out_lane->Record(event);
      }
    } else {
      serve::ServeResult result;
      result.status = serve::ServeStatus::kShutdown;
      stolen.promise.set_value(std::move(result));
    }
  }
  migrated_.fetch_add(moved, std::memory_order_relaxed);
  return moved;
}

void ShardRouter::RebalanceLoop() {
  // The tick is due on the serve clock (ManualClock => deterministic
  // rebalance times) but the thread parks on a real condition variable: a
  // short real-time poll notices manual clock advances without busy-waiting.
  constexpr auto kPoll = std::chrono::milliseconds(2);
  double next_due_s = clock_->NowSeconds() + options_.rebalance_interval_s;
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_rebalancer_) {
    if (clock_->NowSeconds() >= next_due_s) {
      lock.unlock();
      RebalanceOnce();
      next_due_s = clock_->NowSeconds() + options_.rebalance_interval_s;
      lock.lock();
      continue;
    }
    stop_cv_.wait_for(lock, kPoll, [this] { return stop_rebalancer_; });
  }
}

void ShardRouter::Drain() {
  for (const std::unique_ptr<serve::ServerRuntime>& shard : shards_) {
    shard->Drain();
  }
}

void ShardRouter::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_rebalancer_ = true;
  }
  stop_cv_.notify_all();
  if (rebalancer_.joinable()) rebalancer_.join();
  {
    // After this flips, no rebalance pass will touch the queues again, so
    // the shard shutdowns below can never race a migration.
    std::lock_guard<std::mutex> lock(rebalance_mu_);
    shut_down_ = true;
  }
  for (const std::unique_ptr<serve::ServerRuntime>& shard : shards_) {
    shard->Shutdown();
  }
}

void ShardRouter::DumpTrace(std::ostream& out) const {
  const obs::Tracer* tracer = options_.serve.tracer;
  const std::uint64_t dropped = tracer != nullptr ? tracer->TotalDropped() : 0;
  DumpTrace(out, obs::ChromeTraceSink(dropped));
}

void ShardRouter::DumpTrace(std::ostream& out,
                            const obs::TraceSink& sink) const {
  const obs::Tracer* tracer = options_.serve.tracer;
  sink.Write(tracer != nullptr ? tracer->Collect()
                               : std::vector<obs::TraceEvent>(),
             out);
}

std::string ShardRouter::MetricsJson() const {
  std::vector<const serve::Metrics*> registries;
  registries.reserve(shards_.size());
  for (const std::unique_ptr<serve::ServerRuntime>& shard : shards_) {
    registries.push_back(&shard->metrics());
  }
  std::ostringstream router;
  router << "{\"shards\": " << num_shards() << ", \"placement\": \""
         << placement_->name() << "\", \"routed\": [";
  for (int i = 0; i < num_shards(); ++i) {
    if (i > 0) router << ", ";
    router << routed(i);
  }
  router << "], \"migrated\": " << migrated()
         << ", \"rebalance_ticks\": " << rebalance_ticks();
  router << "}";
  return AggregatedMetrics(registries)
      .SnapshotJson(clock_->NowSeconds() - start_time_s_, router.str());
}

}  // namespace ams::route
