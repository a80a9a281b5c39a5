#include "serve/server_runtime.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace ams::serve {

AdmissionConfig ServerRuntime::AdmissionConfigFrom(
    const ServeOptions& options) {
  AdmissionConfig config;
  config.capacity = options.queue_capacity;
  config.overload = options.overload;
  config.tenant_quotas = options.tenant_quotas;
  config.clock = options.clock;
  return config;
}

ServerRuntime::ServerRuntime(core::LabelingService* session,
                             ServeOptions options)
    : session_(session),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : &util::Clock::Monotonic()),
      queue_(AdmissionConfigFrom(options)),
      tracer_(options.tracer) {
  AMS_CHECK(session != nullptr);
  if (options_.workers <= 0) options_.workers = session->worker_count();
  if (tracer_ != nullptr) {
    admission_lane_ = tracer_->EnsureLane(0, obs::kAdmissionLane);
  }
  AMS_CHECK(options_.max_resident_per_worker >= 1,
            "a worker must hold at least one resident item");
  AMS_CHECK(options_.default_slack_s > 0.0, "deadline slack must be positive");
  metrics_.AttachClock(clock_);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back(&ServerRuntime::WorkerLoop, this, w);
  }
}

ServerRuntime::~ServerRuntime() { Shutdown(); }

std::future<ServeResult> ServerRuntime::Enqueue(const core::WorkItem& item) {
  return Enqueue(item, RequestOptions{});
}

std::future<ServeResult> ServerRuntime::Enqueue(
    const core::WorkItem& item, const RequestOptions& request_options) {
  const double slack_s =
      request_options.slack_s.value_or(options_.default_slack_s);
  const PriorityClass cls = request_options.priority_class;
  AMS_CHECK(slack_s > 0.0, "deadline slack must be positive");
  QueuedRequest request;
  request.item = item;
  request.priority_class = cls;
  request.tenant_id = request_options.tenant_id;
  request.slack_s = slack_s;
  request.sequence = sequence_.fetch_add(1, std::memory_order_relaxed);
  request.stream_id =
      item.item >= 0
          ? static_cast<uint64_t>(item.item)
          : live_sequence_.fetch_add(1, std::memory_order_relaxed);
  if (tracer_ != nullptr && tracer_->enabled() &&
      tracer_->ShouldSample(request.sequence)) {
    // Nonzero: id 0 marks lane-scoped events (ticks, forwards).
    request.trace.id = request.sequence + 1;
    request.trace.sampled = true;
  }
  const obs::TraceContext trace = request.trace;
  std::future<ServeResult> future = request.promise.get_future();

  const RequestLedger ledger = metrics_.LedgerFor(cls, request.tenant_id);
  ledger.Enqueued();
  // Count the request as outstanding BEFORE it becomes poppable, so Drain()
  // can never observe zero while a worker races us to completion; every
  // refusal path undoes this through FinishOne().
  outstanding_.fetch_add(1, std::memory_order_relaxed);

  std::vector<QueuedRequest> bounced;
  const AdmitOutcome outcome = queue_.Enqueue(std::move(request), &bounced);
  metrics_.queue_depth.store(static_cast<long>(queue_.size()),
                             std::memory_order_relaxed);
  if (trace.sampled) {
    RecordRequestInstant(obs::Phase::kEnqueue, trace, static_cast<int>(cls),
                         request_options.tenant_id,
                         static_cast<int>(outcome));
  }
  switch (outcome) {
    case AdmitOutcome::kAccepted:
      // Anything bounced is a shed victim displaced by this request.
      for (QueuedRequest& victim : bounced) {
        const RequestLedger victim_ledger =
            metrics_.LedgerFor(victim.priority_class, victim.tenant_id);
        ResolveBounced(std::move(victim), ServeStatus::kShed, victim_ledger,
                       /*quota=*/false);
      }
      break;
    case AdmitOutcome::kRejected:
    case AdmitOutcome::kRejectedQuota:
      ResolveBounced(std::move(bounced.back()), ServeStatus::kRejected, ledger,
                     outcome == AdmitOutcome::kRejectedQuota);
      break;
    case AdmitOutcome::kClosed:
      ResolveBounced(std::move(bounced.back()), ServeStatus::kShutdown, ledger,
                     /*quota=*/false);
      break;
  }
  return future;
}

void ServerRuntime::RecordRequestInstant(obs::Phase phase,
                                         const obs::TraceContext& trace,
                                         int a0, int a1, int a2) {
  if (admission_lane_ == nullptr || !tracer_->enabled()) return;
  obs::TraceEvent event;
  event.id = trace.id;
  event.ts_s = clock_->NowSeconds();
  event.phase = static_cast<uint8_t>(phase);
  event.a0 = a0;
  event.a1 = a1;
  event.a2 = a2;
  admission_lane_->Record(event);
}

void ServerRuntime::ResolveBounced(QueuedRequest&& request,
                                   ServeStatus status,
                                   const RequestLedger& ledger, bool quota) {
  ledger.Bounced(status, quota);
  const double now = clock_->NowSeconds();
  ServeResult result;
  result.status = status;
  result.latency_s = now - request.enqueue_time_s;
  result.queue_delay_s = result.latency_s;
  result.slack_s = request.deadline_s - now;
  request.promise.set_value(std::move(result));
  FinishOne();
}

void ServerRuntime::FinishOne() {
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last one out: wake Drain() under the lock so the wakeup cannot fall
    // between a waiter's predicate check and its wait.
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void ServerRuntime::WorkerLoop(int worker_index) {
  using Stepper = core::LabelingService::ItemStepper;
  const std::unique_ptr<Stepper> stepper =
      session_->NewItemStepper(worker_index);
  // This worker's trace lane: a single-producer ring the stepper's
  // tick/forward spans and this loop's queue-wait/exec spans share. All of
  // it stays null (and every site a single branch) when tracing is off.
  obs::TraceBuffer* lane = nullptr;
  if (tracer_ != nullptr) {
    lane = tracer_->EnsureLane(0, static_cast<uint16_t>(worker_index));
    stepper->AttachTracer(tracer_, lane, clock_);
  }
  // Tracked requests keyed by stepper ticket. A flat swap-pop slab instead
  // of a map: the resident set is tens of items, so a linear scan beats
  // hashing and — on the serving hot path — spares a node allocation per
  // request.
  std::vector<std::pair<uint64_t, InFlightRequest>> in_flight;
  in_flight.reserve(static_cast<size_t>(options_.max_resident_per_worker));
  std::vector<Stepper::Completion> done;
  std::vector<QueuedRequest> refill;

  while (true) {
    // Refill the resident set from the admission queue. An idle worker
    // parks in WaitPop; a busy one tops up its remaining capacity under one
    // queue lock, so admitted items keep stepping at full batch width while
    // traffic flows.
    const int space = options_.max_resident_per_worker - stepper->resident();
    if (space > 0) {
      refill.clear();
      if (stepper->idle() && in_flight.empty()) {
        QueuedRequest first;
        if (!queue_.WaitPop(&first)) return;  // closed and fully drained
        refill.push_back(std::move(first));
        if (space > 1) queue_.TryPopBatch(space - 1, &refill);
      } else if (queue_.size() > 0) {
        // The lock-free depth gauge gates the pop: a busy worker over an
        // empty queue never touches the queue mutex (a stale read costs one
        // tick of admission latency, never correctness — the queue is
        // re-checked every tick).
        queue_.TryPopBatch(space, &refill);
      }
      if (!refill.empty()) {
        metrics_.queue_depth.store(static_cast<long>(queue_.size()),
                                   std::memory_order_relaxed);
        metrics_.in_flight.fetch_add(static_cast<long>(refill.size()),
                                     std::memory_order_relaxed);
        const double now = clock_->NowSeconds();
        for (QueuedRequest& request : refill) {
          InFlightRequest tracked;
          tracked.promise = std::move(request.promise);
          tracked.priority_class = request.priority_class;
          tracked.tenant_id = request.tenant_id;
          tracked.ledger =
              metrics_.LedgerFor(request.priority_class, request.tenant_id);
          tracked.deadline_s = request.deadline_s;
          tracked.enqueue_time_s = request.enqueue_time_s;
          tracked.admit_time_s = now;
          tracked.trace = request.trace;
          if (lane != nullptr && request.trace.sampled &&
              tracer_->enabled()) {
            // The queue-wait span is written retroactively at pop time,
            // starting at the request's enqueue stamp.
            obs::TraceEvent event;
            event.id = request.trace.id;
            event.ts_s = request.enqueue_time_s;
            event.dur_s = now - request.enqueue_time_s;
            event.phase = static_cast<uint8_t>(obs::Phase::kQueueWait);
            event.a0 = static_cast<int32_t>(request.priority_class);
            event.a1 = request.tenant_id;
            lane->Record(event);
          }
          tracked.ledger.Popped(now - request.enqueue_time_s);
          const uint64_t ticket =
              stepper->Admit(request.item, request.stream_id);
          in_flight.emplace_back(ticket, std::move(tracked));
        }
      }
    }

    // One cooperative tick: one deduplicated batched Q-forward across every
    // resident item, then each kernel advances past one finish event.
    done.clear();
    stepper->Tick(&done);
    {
      // Fold the stepper's phase timings into the metrics registry (traced
      // ticks only — untraced runs never touch the phase section). Atomic
      // bumps and histogram buckets only: the zero-allocation tick holds.
      const Stepper::TickStats& stats = stepper->last_tick_stats();
      if (stats.traced) {
        metrics_.RecordTick(stats.tick_s, stats.arena_used);
        if (stats.forward_rows > 0) {
          metrics_.RecordForward(stats.forward_s, stats.forward_rows);
        }
      }
    }
    if (done.empty()) continue;
    const double now = clock_->NowSeconds();
    for (Stepper::Completion& completion : done) {
      size_t slot = in_flight.size();
      for (size_t i = 0; i < in_flight.size(); ++i) {
        if (in_flight[i].first == completion.ticket) {
          slot = i;
          break;
        }
      }
      AMS_CHECK(slot < in_flight.size(), "completion for an unknown ticket");
      InFlightRequest tracked = std::move(in_flight[slot].second);
      in_flight[slot] = std::move(in_flight.back());
      in_flight.pop_back();

      ServeResult result;
      result.status = ServeStatus::kOk;
      result.outcome = std::move(completion.outcome);
      result.queue_delay_s = tracked.admit_time_s - tracked.enqueue_time_s;
      result.service_s = now - tracked.admit_time_s;
      result.latency_s = now - tracked.enqueue_time_s;
      result.slack_s = tracked.deadline_s - now;
      tracked.ledger.Completed(result.service_s, result.latency_s,
                               result.deadline_met());
      metrics_.in_flight.fetch_sub(1, std::memory_order_relaxed);
      if (lane != nullptr && tracked.trace.sampled && tracer_->enabled()) {
        // Exec span, admit -> completion, closed retroactively like the
        // queue wait (the resident set multiplexes, so no RAII scope brackets
        // a single request's execution).
        obs::TraceEvent event;
        event.id = tracked.trace.id;
        event.ts_s = tracked.admit_time_s;
        event.dur_s = now - tracked.admit_time_s;
        event.phase = static_cast<uint8_t>(obs::Phase::kExec);
        event.a0 = static_cast<int32_t>(tracked.priority_class);
        event.a1 = result.deadline_met() ? 0 : 1;
        lane->Record(event);
      }
      tracked.promise.set_value(std::move(result));
      // Free the tenant's in-flight quota slot (no-op without quotas).
      queue_.TenantFinished(tracked.tenant_id);
      FinishOne();
    }
  }
}

void ServerRuntime::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  });
}

void ServerRuntime::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::string ServerRuntime::MetricsJson() const {
  return metrics_.SnapshotJson();
}

}  // namespace ams::serve
