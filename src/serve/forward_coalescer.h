#ifndef AMS_SERVE_FORWARD_COALESCER_H_
#define AMS_SERVE_FORWARD_COALESCER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/decision_plane.h"
#include "obs/trace.h"
#include "serve/metrics.h"
#include "util/arena.h"
#include "util/clock.h"

namespace ams::serve {

/// Cross-worker (and, shared through route::ShardRouter, cross-shard)
/// Q-forward coalescer: instead of every ItemStepper issuing its own small
/// batched forward per tick, the workers of a cluster rendezvous once per
/// tick, pool their stale Q-slot requests, dedup identical states across
/// ALL participants, run ONE PredictValuesBatchTo into an arena-backed
/// buffer, and scatter the rows back into each participant's DecisionPlane.
///
/// Soundness: every serving stepper wraps a frozen clone of the same
/// predictor, and a Q row is a pure function of the state's features —
/// bitwise identical whatever batch it rides in (the PredictValuesBatchTo
/// contract). So any grouping of rows into batches yields results bitwise
/// identical to the per-stepper path; coalescing changes only who issues
/// the forward.
///
/// Rendezvous protocol: workers Activate() their Handle while they hold
/// resident work and Deactivate() before parking on the admission queue (or
/// exiting), so membership tracks exactly the workers that are guaranteed
/// to keep ticking. Each tick, every active worker's stepper runs one
/// ExecuteRound (even when it has nothing stale); the last arrival leads
/// the round — dedup, one forward, scatter — then releases the others.
/// Deadlock-free because an active worker never blocks outside the
/// rendezvous: ticking is pure compute and queue refills are non-blocking.
///
/// The price is lock-step ticking across participants; the win is one
/// device-sized batch per cluster tick instead of N stepper-sized ones
/// (see BENCH_serve.json's route_coalesced_4 scenario).
class ForwardCoalescer {
 public:
  struct Options {
    /// Records one kCoalescedForward span per non-empty round (on the
    /// leader's shard, lane obs::kCoalescerLane) when enabled.
    obs::Tracer* tracer = nullptr;
    /// Span timing source; nullptr means util::Clock::Monotonic().
    const util::Clock* clock = nullptr;
  };

  /// One worker's participation handle. The worker attaches it to its
  /// stepper (core::ForwardRoundExecutor), Activate()s while it has
  /// resident work, and Deactivate()s before blocking for new work.
  class Handle : public core::ForwardRoundExecutor {
   public:
    /// Joins the round membership. Idempotent.
    void Activate();
    /// Leaves the membership; if every remaining member has already
    /// arrived, this call completes their round on the way out. Idempotent.
    void Deactivate();

    /// Gathers `plane`'s stale requests, rendezvouses with the other active
    /// members, and returns once this participant's rows are committed
    /// (bitwise identical to plane->Prefetch(views, arena)). The handle must
    /// be Active. Called once per tick by the attached stepper.
    core::ForwardRoundExecutor::RoundStats ExecuteRound(
        core::DecisionPlane* plane,
        const std::vector<core::DecisionPlane::SlotView>& views) override;

   private:
    friend class ForwardCoalescer;
    Handle(ForwardCoalescer* owner, Metrics* metrics, int shard_id);

    ForwardCoalescer* owner_;
    /// The registering runtime's metrics; the round leader records each
    /// round here exactly once (cluster aggregation then sums correctly).
    Metrics* metrics_;
    int shard_id_;
    obs::TraceBuffer* span_lane_ = nullptr;  // (shard, kCoalescerLane)

    // All below guarded by owner_->mu_ (pending_/stats_ are additionally
    // touched by their own worker thread only while not arrived).
    bool active_ = false;
    bool arrived_ = false;
    core::DecisionPlane* plane_ = nullptr;  // valid while arrived
    std::vector<core::DecisionPlane::PendingRequest> pending_;
    core::ForwardRoundExecutor::RoundStats stats_;
  };

  ForwardCoalescer();
  explicit ForwardCoalescer(Options options);

  ForwardCoalescer(const ForwardCoalescer&) = delete;
  ForwardCoalescer& operator=(const ForwardCoalescer&) = delete;

  /// Creates a worker's handle (stable pointer, owned by the coalescer;
  /// created inactive). `metrics` may be null in tests; `shard_id` keys the
  /// round span lane.
  Handle* NewHandle(Metrics* metrics, int shard_id);

  /// Round accounting across the coalescer's lifetime (non-empty rounds).
  long rounds() const { return rounds_.load(std::memory_order_relaxed); }
  /// Stale rows gathered from all participants, duplicates included.
  long gathered_rows() const {
    return gathered_rows_.load(std::memory_order_relaxed);
  }
  /// Unique rows actually forwarded after cross-participant dedup.
  long unique_rows() const {
    return unique_rows_.load(std::memory_order_relaxed);
  }
  /// Largest single coalesced batch (unique rows).
  long max_batch_rows() const {
    return max_batch_rows_.load(std::memory_order_relaxed);
  }

 private:
  /// Executes the pending round: dedups the union of every arrived member's
  /// requests, runs one forward with the first requester's (frozen, clone-
  /// identical) predictor, scatters rows back through each member's plane,
  /// records stats + span, and releases the waiters. Caller holds mu_.
  /// `leader` supplies the metrics sink and span lane (it is the last
  /// arrival, or a deactivating handle completing the others' round).
  void RunRoundLocked(Handle* leader);

  obs::Tracer* tracer_;  // non-const: NewHandle registers the span lane
  const util::Clock* clock_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Handle>> handles_;
  int active_ = 0;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  /// Round scratch (request/dedup tables, the flat Q buffer); reset per
  /// round, so steady-state rounds never touch the heap. Guarded by mu_.
  util::Arena arena_;
  std::vector<Handle*> members_;  // round scratch, reused

  std::atomic<long> rounds_{0};
  std::atomic<long> gathered_rows_{0};
  std::atomic<long> unique_rows_{0};
  std::atomic<long> max_batch_rows_{0};
};

/// True when the AMS_COALESCE environment variable asks for coalescing by
/// default ("1"/"on"/"true", case-sensitive like AMS_SIMD). Lets CI run the
/// whole suite with coalescing on without touching every test's options.
bool CoalesceForwardsFromEnv();

}  // namespace ams::serve

#endif  // AMS_SERVE_FORWARD_COALESCER_H_
