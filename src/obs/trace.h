#ifndef AMS_OBS_TRACE_H_
#define AMS_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "util/clock.h"

namespace ams::obs {

/// Span taxonomy for the request lifecycle. Instants mark a decision point;
/// spans carry a duration. Every phase's four int args have fixed meanings
/// (see kPhaseArgNames in trace.cc and the README "Observability" section):
///
///   kEnqueue    instant  admission decision   a0=class a1=tenant a2=outcome
///   kQueueWait  span     enqueue -> pop       a0=class a1=tenant
///   kExec       span     pop -> completion    a0=class a1=deadline_missed
///   kTick       span     one stepper tick     a0=resident a1=completed
///                                             a2=arena_used_bytes
///   kForward    span     batched Q-forward    a0=rows a1=memo_hits
///                                             a2=simd_tier
///
/// Phase numbers never leave the process: exports write PhaseName().
enum class Phase : std::uint8_t {
  kEnqueue = 0,
  kQueueWait,
  kExec,
  kTick,
  kForward,
};
inline constexpr int kNumPhases = 5;

/// Stable lowercase name used in trace JSON and summaries.
const char* PhaseName(Phase phase);

/// One trace record. Plain data, fixed size, no owned storage — recording
/// one is a handful of stores into a preallocated ring slot, which is what
/// keeps the instrumented steady-state tick at zero heap allocations.
/// `id` is the request's trace id (0 for lane-scoped events like ticks);
/// `dur_s` == 0 marks an instant. Unused args stay 0.
struct TraceEvent {
  std::uint64_t id = 0;
  double ts_s = 0.0;
  double dur_s = 0.0;
  std::uint16_t shard = 0;
  std::uint16_t lane = 0;
  std::uint8_t phase = 0;
  std::int32_t a0 = 0;
  std::int32_t a1 = 0;
  std::int32_t a2 = 0;
  std::int32_t a3 = 0;
};

/// The lane index admission-side events (enqueue instants) are recorded
/// under; worker lanes use their worker index. Exported traces name
/// this lane "admission" instead of "worker 65535".
inline constexpr std::uint16_t kAdmissionLane = 0xFFFF;

/// Bounded drop-oldest ring of TraceEvents. All slots are allocated at
/// construction; Record() claims a slot with one relaxed fetch_add and
/// overwrites whatever was there, so the hot path never allocates, never
/// locks, and never blocks on a slow reader — old events simply fall off.
///
/// Concurrency contract: multiple producers may Record() concurrently
/// (distinct fetch_add tickets write distinct slots). Each slot carries a
/// publish sequence (seqlock): a writer marks the slot in-progress, stores
/// the payload as release-ordered atomic words, then publishes with a
/// release store of the slot's ticket. Snapshot() validates the sequence
/// before and after copying and silently drops slots whose writer is still
/// in flight (or that were lapped mid-copy), so a concurrent wrap can lose a
/// few events from the snapshot but can never export a torn one.
/// Deterministic tests drive a single thread and see exact contents.
class TraceBuffer {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  TraceBuffer(std::size_t capacity, std::uint16_t shard, std::uint16_t lane);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Stamps shard/lane and stores the event into the next ring slot.
  void Record(TraceEvent event);

  std::uint16_t shard() const { return shard_; }
  std::uint16_t lane() const { return lane_; }
  std::size_t capacity() const { return capacity_; }
  /// Total events ever recorded (including since-overwritten ones).
  std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  /// Events lost to drop-oldest overwrite.
  std::uint64_t dropped() const;

  /// Copies the retained events out, oldest first. Safe against concurrent
  /// Record(); in-flight or lapped slots are dropped, never emitted torn.
  std::vector<TraceEvent> Snapshot() const;

 private:
  static constexpr std::size_t kPayloadWords =
      (sizeof(TraceEvent) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);

  /// One ring slot. `seq` holds 2*ticket+1 while the writer owns the slot
  /// and 2*ticket+2 once published, so a reader expecting ticket T accepts
  /// the payload only when it observes exactly 2*T+2 on both sides of the
  /// copy. The payload lives in atomic words (not a TraceEvent), stored with
  /// release and loaded with acquire and no fence, so concurrent overwrite
  /// is well-defined and every ordering the protocol needs is one TSan
  /// models.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kPayloadWords] = {};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t capacity_;
  std::size_t mask_;
  const std::uint16_t shard_;
  const std::uint16_t lane_;
  std::atomic<std::uint64_t> next_{0};
};

/// Sampling decision + identity that rides on a request through the queue
/// (a field on serve::QueuedRequest). `id` is nonzero for a sampled request:
/// its admission sequence + 1.
struct TraceContext {
  std::uint64_t id = 0;
  bool sampled = false;
};

/// Owner of the per-(shard, lane) TraceBuffers and the runtime on/off
/// switch. One Tracer serves a whole process; lanes are keyed by (shard,
/// lane), and a serving runtime records every lane under shard 0.
///
/// Cost model: when disabled (or when a request was not sampled) every
/// instrumentation site reduces to one relaxed atomic load and a branch.
/// Lanes register once at startup under a mutex and hand back a stable
/// TraceBuffer* that hot paths cache; recording is lock-free thereafter.
class Tracer {
 public:
  struct Options {
    /// Per-lane ring capacity (events), rounded up to a power of two.
    std::size_t lane_capacity = 1 << 14;
    /// Record every Nth request's lifecycle spans (1 = all). Lane-scoped
    /// events (kTick/kForward) are not sampled — they are already bounded
    /// at one per tick.
    std::uint64_t sample_every = 1;
    /// Start enabled? The toggle can flip at runtime either way.
    bool enabled = true;
  };

  Tracer();
  explicit Tracer(Options options);

  /// The single branch every instrumentation site takes first.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// True when request `sequence` should get lifecycle spans.
  bool ShouldSample(std::uint64_t sequence) const {
    return sample_every_ <= 1 || sequence % sample_every_ == 0;
  }

  /// The lane's buffer, created on first use. Not for hot paths — callers
  /// cache the pointer (stable for the Tracer's lifetime).
  TraceBuffer* EnsureLane(std::uint16_t shard, std::uint16_t lane);

  /// All retained events across every lane, merged and sorted by timestamp
  /// (stable, so equal-timestamp events keep lane order).
  std::vector<TraceEvent> Collect() const;

  /// Total events lost to drop-oldest overwrite across all lanes.
  std::uint64_t TotalDropped() const;

 private:
  const std::size_t lane_capacity_;
  const std::uint64_t sample_every_;
  std::atomic<bool> enabled_;
  mutable std::mutex lanes_mu_;
  /// deque gives pointer stability; the map indexes it by (shard, lane).
  std::deque<TraceBuffer> lanes_;
  std::map<std::pair<std::uint16_t, std::uint16_t>, TraceBuffer*> by_key_;
};

/// RAII span: stamps the start on construction, records one TraceEvent with
/// the measured duration on destruction (or on Close()). Does nothing — not
/// even a clock read — when the tracer is off or `lane` is null, so it can
/// sit unconditionally in hot loops.
class ScopedSpan {
 public:
  ScopedSpan(const Tracer* tracer, TraceBuffer* lane, const util::Clock* clock,
             Phase phase, std::uint64_t id = 0)
      : lane_(tracer != nullptr && tracer->enabled() ? lane : nullptr),
        clock_(clock),
        phase_(phase),
        id_(id) {
    if (lane_ != nullptr) start_s_ = clock_->NowSeconds();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { Close(); }

  bool active() const { return lane_ != nullptr; }
  double start_s() const { return start_s_; }

  void set_args(std::int32_t a0, std::int32_t a1 = 0, std::int32_t a2 = 0,
                std::int32_t a3 = 0) {
    a0_ = a0;
    a1_ = a1;
    a2_ = a2;
    a3_ = a3;
  }

  /// Records the span now (idempotent); returns its duration in seconds
  /// (0 when inactive).
  double Close();

  /// Drops the span without recording it, for a span that turned out to
  /// cover no work.
  void Discard() { lane_ = nullptr; }

 private:
  TraceBuffer* lane_;
  const util::Clock* clock_;
  const Phase phase_;
  const std::uint64_t id_;
  double start_s_ = 0.0;
  std::int32_t a0_ = 0, a1_ = 0, a2_ = 0, a3_ = 0;
};

/// Chrome trace-event JSON ({"traceEvents": [...]}), loadable in Perfetto
/// and chrome://tracing. Spans become complete ("ph":"X") events, instants
/// become thread-scoped instants ("ph":"i"); pid = shard, tid = lane, with
/// process/thread-name metadata so shards and workers read naturally.
/// Timestamps are microseconds on the recording clock's own axis. The
/// events need not be request-complete: a ring that wrapped has holes.
///
/// `dropped_events` (Tracer::TotalDropped() when the events were collected)
/// is written as the top-level "otherData": {"dropped_events": N}, so a
/// reader can refuse a trace whose rings wrapped instead of mistaking the
/// holes for behaviour (tools/trace_summary.py does).
class ChromeTraceSink {
 public:
  explicit ChromeTraceSink(std::uint64_t dropped_events = 0)
      : dropped_events_(dropped_events) {}

  void Write(const std::vector<TraceEvent>& events, std::ostream& out) const;

 private:
  std::uint64_t dropped_events_;
};

}  // namespace ams::obs

#endif  // AMS_OBS_TRACE_H_
