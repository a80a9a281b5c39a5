#ifndef AMS_SERVE_REQUEST_H_
#define AMS_SERVE_REQUEST_H_

#include <cstdint>
#include <future>
#include <limits>

#include "core/labeling_service.h"
#include "obs/trace.h"
#include "serve/priority_class.h"

namespace ams::serve {

/// Terminal state of one serving request.
enum class ServeStatus {
  /// Labeled; `outcome` is valid.
  kOk,
  /// Refused at admission: the queue was full under OverloadPolicy::kReject.
  kRejected,
  /// Accepted, then dropped from a full queue to admit newer work
  /// (OverloadPolicy::kShedOldest).
  kShed,
  /// Refused because the runtime had already shut down.
  kShutdown,
};

const char* ServeStatusName(ServeStatus status);

/// What a request's future resolves to. Latency fields are measured on the
/// runtime's monotonic clock; only `kOk` results carry a valid outcome and
/// full timing breakdown.
struct ServeResult {
  ServeStatus status = ServeStatus::kOk;
  core::LabelOutcome outcome;
  /// Enqueue -> dequeued by a worker.
  double queue_delay_s = 0.0;
  /// Dequeued -> completed (multiplexed stepping time, wall clock).
  double service_s = 0.0;
  /// Enqueue -> completed (or refusal/shed instant for non-kOk results).
  double latency_s = 0.0;
  /// Completion-time slack against the request deadline; negative = missed.
  /// Infinity for requests without a deadline.
  double slack_s = std::numeric_limits<double>::infinity();

  bool ok() const { return status == ServeStatus::kOk; }
  bool deadline_met() const { return slack_s >= 0.0; }
};

/// One request resident in the admission queue. Within its priority class
/// it pops by (deadline, sequence): earliest deadline first, FIFO among
/// equal deadlines, deadline-less (infinite deadline) requests draining
/// last in order. Service between classes is the admission queue's
/// weighted round-robin at 8:4:1 (see AdmissionQueue).
struct QueuedRequest {
  core::WorkItem item;
  /// Which service band the request rides in (its round-robin weight is
  /// serve::kClassWeights).
  PriorityClass priority_class = PriorityClass::kStandard;
  /// Tenant owning the request: the unit of quota accounting (max queued,
  /// max in flight, rate bucket) and of per-tenant metrics slices. 0 is the
  /// default tenant.
  int tenant_id = 0;
  /// Latency budget granted at enqueue: the admission queue stamps
  /// deadline_s = enqueue_time_s + slack_s on the serve clock. Infinity =
  /// no deadline (pure FIFO within the class).
  double slack_s = std::numeric_limits<double>::infinity();
  /// Absolute deadline on the serve clock; stamped by AdmissionQueue from
  /// `slack_s` at admission time.
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Admission sequence number (FIFO tie-break, shed-oldest victim order).
  uint64_t sequence = 0;
  /// Seed for stream-dependent pickers: the stored item id, or a live
  /// admission sequence number (core::LabelingService::ItemStepper::Admit).
  uint64_t stream_id = 0;
  /// When the request entered the queue; stamped by AdmissionQueue on the
  /// serve clock (before any kBlock wait: arrival time, not admit time).
  double enqueue_time_s = 0.0;
  /// Tracing identity, stamped once at admission (obs::Tracer sampling
  /// decision + trace id). Rides the request from enqueue to completion so
  /// its span chain stays connected; zero/unsampled when tracing is off.
  obs::TraceContext trace;
  std::promise<ServeResult> promise;
};

}  // namespace ams::serve

#endif  // AMS_SERVE_REQUEST_H_
