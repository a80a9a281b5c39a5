#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "util/check.h"

namespace ams::obs {

namespace {

constexpr std::array<const char*, kNumPhases> kPhaseNames = {
    "enqueue", "queue_wait", "exec", "tick", "forward",
};

/// Per-phase names for args a0..a3 in exported JSON. nullptr = arg unused.
constexpr std::array<std::array<const char*, 4>, kNumPhases> kPhaseArgNames = {{
    {"class", "tenant", "outcome", nullptr},        // enqueue
    {"class", "tenant", nullptr, nullptr},          // queue_wait
    {"class", "deadline_missed", nullptr, nullptr}, // exec
    {"resident", "completed", "arena_used_bytes", nullptr},  // tick
    {"rows", "memo_hits", "simd_tier", nullptr},    // forward
}};

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* PhaseName(Phase phase) {
  const auto i = static_cast<std::size_t>(phase);
  AMS_CHECK(i < kPhaseNames.size(), "phase out of range");
  return kPhaseNames[i];
}

static_assert(std::is_trivially_copyable<TraceEvent>::value,
              "TraceEvent is memcpy'd through the ring's payload words");

TraceBuffer::TraceBuffer(std::size_t capacity, std::uint16_t shard,
                         std::uint16_t lane)
    : slots_(new Slot[RoundUpPow2(capacity)]),
      capacity_(RoundUpPow2(capacity)),
      mask_(capacity_ - 1),
      shard_(shard),
      lane_(lane) {}

void TraceBuffer::Record(TraceEvent event) {
  event.shard = shard_;
  event.lane = lane_;
  std::uint64_t words[kPayloadWords] = {0};
  std::memcpy(words, &event, sizeof(event));
  const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<std::size_t>(ticket) & mask_];
  // Seqlock writer: mark the slot in-progress before touching the payload
  // (the release fence keeps the odd mark visible to any reader that sees a
  // payload word from this write), then publish with a release store so a
  // reader that accepts the even sequence also sees the full payload.
  slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t i = 0; i < kPayloadWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::uint64_t TraceBuffer::dropped() const {
  const std::uint64_t n = recorded();
  return n > capacity_ ? n - capacity_ : 0;
}

std::vector<TraceEvent> TraceBuffer::Snapshot() const {
  const std::uint64_t n = next_.load(std::memory_order_acquire);
  const std::uint64_t first = n > capacity_ ? n - capacity_ : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(n - first));
  for (std::uint64_t ticket = first; ticket < n; ++ticket) {
    const Slot& slot = slots_[static_cast<std::size_t>(ticket) & mask_];
    const std::uint64_t want = 2 * ticket + 2;
    if (slot.seq.load(std::memory_order_acquire) != want) continue;
    std::uint64_t words[kPayloadWords];
    for (std::size_t i = 0; i < kPayloadWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    // Re-validate after the copy (the acquire fence orders the payload loads
    // before the re-read): any concurrent writer that touched a copied word
    // has already made its odd mark visible, so a torn copy is rejected.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != want) continue;
    TraceEvent event;
    std::memcpy(&event, words, sizeof(event));
    out.push_back(event);
  }
  return out;
}

Tracer::Tracer() : Tracer(Options()) {}

Tracer::Tracer(Options options)
    : lane_capacity_(options.lane_capacity),
      sample_every_(options.sample_every),
      enabled_(options.enabled) {}

TraceBuffer* Tracer::EnsureLane(std::uint16_t shard, std::uint16_t lane) {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  const auto key = std::make_pair(shard, lane);
  const auto it = by_key_.find(key);
  if (it != by_key_.end()) return it->second;
  lanes_.emplace_back(lane_capacity_, shard, lane);
  TraceBuffer* buffer = &lanes_.back();
  by_key_.emplace(key, buffer);
  return buffer;
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    for (const TraceBuffer& lane : lanes_) {
      const std::vector<TraceEvent> events = lane.Snapshot();
      all.insert(all.end(), events.begin(), events.end());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_s < b.ts_s;
                   });
  return all;
}

std::uint64_t Tracer::TotalDropped() const {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  std::uint64_t dropped = 0;
  for (const TraceBuffer& lane : lanes_) dropped += lane.dropped();
  return dropped;
}

double ScopedSpan::Close() {
  if (lane_ == nullptr) return 0.0;
  const double dur_s = clock_->NowSeconds() - start_s_;
  TraceEvent event;
  event.id = id_;
  event.ts_s = start_s_;
  event.dur_s = dur_s;
  event.phase = static_cast<std::uint8_t>(phase_);
  event.a0 = a0_;
  event.a1 = a1_;
  event.a2 = a2_;
  event.a3 = a3_;
  lane_->Record(event);
  lane_ = nullptr;
  return dur_s;
}

namespace {

/// Microseconds with sub-µs fraction kept: Perfetto accepts fractional ts.
double Micros(double seconds) { return seconds * 1e6; }

void WriteEventJson(const TraceEvent& event, std::ostream& out) {
  const auto phase_index = static_cast<std::size_t>(event.phase);
  const char* name = phase_index < kPhaseNames.size()
                         ? kPhaseNames[phase_index]
                         : "unknown";
  out << "{\"name\": \"" << name << "\", \"cat\": \"ams\", ";
  if (event.dur_s > 0.0) {
    out << "\"ph\": \"X\", \"dur\": " << Micros(event.dur_s) << ", ";
  } else {
    out << "\"ph\": \"i\", \"s\": \"t\", ";
  }
  out << "\"ts\": " << Micros(event.ts_s) << ", \"pid\": " << event.shard
      << ", \"tid\": " << event.lane << ", \"args\": {";
  bool first = true;
  if (event.id != 0) {
    out << "\"trace_id\": " << event.id;
    first = false;
  }
  const std::array<const char*, 4> arg_names =
      phase_index < kPhaseArgNames.size()
          ? kPhaseArgNames[phase_index]
          : std::array<const char*, 4>{nullptr, nullptr, nullptr, nullptr};
  const std::array<std::int32_t, 4> args = {event.a0, event.a1, event.a2,
                                            event.a3};
  for (std::size_t i = 0; i < arg_names.size(); ++i) {
    if (arg_names[i] == nullptr) continue;
    if (!first) out << ", ";
    out << "\"" << arg_names[i] << "\": " << args[i];
    first = false;
  }
  out << "}}";
}

void WriteNameMetadata(const char* kind, std::uint16_t pid, std::uint16_t tid,
                       const std::string& name, bool is_process,
                       std::ostream& out) {
  out << "{\"name\": \"" << kind << "\", \"ph\": \"M\", \"pid\": " << pid;
  if (!is_process) out << ", \"tid\": " << tid;
  out << ", \"args\": {\"name\": \"" << name << "\"}}";
}

}  // namespace

void ChromeTraceSink::Write(const std::vector<TraceEvent>& events,
                            std::ostream& out) const {
  // Default ostream precision (6 significant digits) would round µs
  // timestamps on long runs down to ~10µs granularity; 15 digits keeps the
  // double exact.
  const std::streamsize saved_precision = out.precision(15);
  out << "{\"traceEvents\": [";
  bool first = true;
  // Name the shards and lanes once each so Perfetto's track labels read as
  // "shard N" / "worker K" / "admission" instead of raw pids.
  std::map<std::uint16_t, std::map<std::uint16_t, bool>> seen;
  for (const TraceEvent& event : events) {
    seen[event.shard][event.lane] = true;
  }
  for (const auto& [shard, lanes] : seen) {
    if (!first) out << ",\n";
    first = false;
    WriteNameMetadata("process_name", shard, 0,
                      "shard " + std::to_string(shard), /*is_process=*/true,
                      out);
    for (const auto& [lane, unused] : lanes) {
      (void)unused;
      out << ",\n";
      const std::string lane_name = lane == kAdmissionLane
                                        ? "admission"
                                        : "worker " + std::to_string(lane);
      WriteNameMetadata("thread_name", shard, lane, lane_name,
                        /*is_process=*/false, out);
    }
  }
  for (const TraceEvent& event : events) {
    if (!first) out << ",\n";
    first = false;
    WriteEventJson(event, out);
  }
  out << "],\n\"otherData\": {\"dropped_events\": " << dropped_events_
      << "}}\n";
  out.precision(saved_precision);
}

}  // namespace ams::obs
