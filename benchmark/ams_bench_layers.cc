// ams_bench_layers — the per-layer pass: single-thread drives of one layer at
// a time over the workload's own item stream, timed from outside around
// calls into public functions. Writes a results file (run.py merges it with
// the traced serving pass):
//
//   ams_bench_layers --workload W --seed N --seconds S --out results.json
//                    [--rev REV]
//
// Drives, in order, sharing S:
//  - stepper: one LabelingService::ItemStepper with kResidentPerWorker items
//    resident (a serving worker's loop without the queue), alternating
//    untraced segments (speed, admit cost, allocations) with segments where
//    an obs::Tracer is attached (TickStats: tick, forward, memo hits);
//  - driver: SubmitBatch on a one-worker session, the batch path's cost per
//    item against the stepper's;
//  - admission: AdmissionQueue push + pop in the album config (one band,
//    FIFO).
// Outcomes of the stepper and driver drives go through the same
// Submit-parity gate as the serving pass. Exit codes as ams_bench.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "serve/admission_queue.h"
#include "util/clock.h"

// --- counting operator new -------------------------------------------------

namespace {
std::atomic<long> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* ptr = nullptr;
  if (align <= alignof(std::max_align_t)) {
    ptr = std::malloc(size);
  } else if (posix_memalign(&ptr, align < sizeof(void*) ? sizeof(void*) : align,
                            size) != 0) {
    ptr = nullptr;
  }
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

namespace amsbench {
namespace {

using namespace ams;

// Shares of S per drive.
constexpr double kStepperShare = 0.6;
constexpr double kDriverShare = 0.25;
constexpr double kQueueShare = 0.15;
/// Stepper: a warm-up (memo fill, arena sizing), then this many
/// untraced/traced segment pairs.
constexpr double kStepperWarmupShare = 0.15;
constexpr int kStepperPairs = 4;
/// Ticket -> item ring; an item stays resident for far fewer admissions.
constexpr size_t kTicketRing = 4096;
/// Requests the FIFO drive cycles through.
constexpr int kQueueRequests = 16384;

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// --- stepper ---------------------------------------------------------------

struct StepperTotals {
  double wall_s = 0.0;
  long items = 0;
  long ticks = 0;
  double admit_s = 0.0;
  long admits = 0;
  long admit_allocs = 0;
  long tick_allocs = 0;
};

struct TracedTotals {
  double wall_s = 0.0;
  long items = 0;
  double tick_s = 0.0;
  double forward_s = 0.0;  // ticks that ran a forward (rows > 0)
  long rows = 0;
  long hits = 0;
  long resident = 0;
  long completed = 0;
  long forwards = 0;
  std::vector<double> tick_us;
  std::vector<double> forward_us;
};

class StepperDrive {
 public:
  StepperDrive(const WorkloadSpec& spec, uint64_t seed,
               core::LabelingService* session, OutcomeLedger* ledger)
      : sequence_(spec, seed),
        ledger_(ledger),
        stepper_(session->NewItemStepper(0)),
        tracer_(TracerOptions()),
        ticket_item_(kTicketRing, {~0ull, -1}) {
    stepper_->AttachTracer(&tracer_, tracer_.EnsureLane(0, 0),
                           &util::Clock::Monotonic());
    done_.reserve(4 * kResidentPerWorker);
  }

  /// Steps for `seconds` with the tracer off, adding to `totals`.
  void Untraced(double seconds, StepperTotals* totals) {
    tracer_.set_enabled(false);
    const double start = Now();
    const double end = start + seconds;
    while (Now() < end) {
      while (stepper_->resident() < kResidentPerWorker) {
        const int item = sequence_.NextItem();
        const long a0 = g_allocations.load(std::memory_order_relaxed);
        const double t0 = Now();
        const uint64_t ticket =
            stepper_->Admit(core::WorkItem::Stored(item), item);
        totals->admit_s += Now() - t0;
        totals->admit_allocs +=
            g_allocations.load(std::memory_order_relaxed) - a0;
        ++totals->admits;
        Remember(ticket, item);
      }
      done_.clear();
      const long a0 = g_allocations.load(std::memory_order_relaxed);
      stepper_->Tick(&done_);
      totals->tick_allocs += g_allocations.load(std::memory_order_relaxed) - a0;
      ++totals->ticks;
      totals->items += Retire();
    }
    totals->wall_s += Now() - start;
  }

  /// Steps for `seconds` with the tracer on, adding TickStats to `totals`.
  void Traced(double seconds, TracedTotals* totals) {
    tracer_.set_enabled(true);
    const double start = Now();
    const double end = start + seconds;
    while (Now() < end) {
      while (stepper_->resident() < kResidentPerWorker) {
        const int item = sequence_.NextItem();
        Remember(stepper_->Admit(core::WorkItem::Stored(item), item), item);
      }
      done_.clear();
      stepper_->Tick(&done_);
      const core::LabelingService::ItemStepper::TickStats& stats =
          stepper_->last_tick_stats();
      if (stats.traced) {
        totals->tick_s += stats.tick_s;
        totals->tick_us.push_back(stats.tick_s * 1e6);
        totals->rows += stats.forward_rows;
        totals->hits += stats.memo_hits;
        totals->resident += stats.resident;
        totals->completed += stats.completed;
        if (stats.forward_rows > 0) {
          ++totals->forwards;
          totals->forward_s += stats.forward_s;
          totals->forward_us.push_back(stats.forward_s * 1e6);
        }
      }
      totals->items += Retire();
    }
    totals->wall_s += Now() - start;
    tracer_.set_enabled(false);
  }

  long executions() const { return executions_; }
  long retired() const { return retired_; }

 private:
  static obs::Tracer::Options TracerOptions() {
    obs::Tracer::Options options;
    options.lane_capacity = 1 << 12;
    options.enabled = false;
    return options;
  }

  void Remember(uint64_t ticket, int item) {
    ticket_item_[ticket % kTicketRing] = {ticket, item};
  }

  long Retire() {
    for (const auto& completion : done_) {
      const auto& [ticket, item] =
          ticket_item_[completion.ticket % kTicketRing];
      if (ticket != completion.ticket) {
        std::fprintf(stderr, "ticket ring overrun\n");
        std::exit(1);
      }
      ledger_->Record(item, completion.outcome);
      executions_ += completion.outcome.schedule.num_executions;
    }
    retired_ += static_cast<long>(done_.size());
    return static_cast<long>(done_.size());
  }

  ItemSequence sequence_;
  OutcomeLedger* ledger_;
  std::unique_ptr<core::LabelingService::ItemStepper> stepper_;
  obs::Tracer tracer_;
  std::vector<std::pair<uint64_t, int>> ticket_item_;
  std::vector<core::LabelingService::ItemStepper::Completion> done_;
  long executions_ = 0;
  long retired_ = 0;
};

void RunStepper(const WorkloadSpec& spec, uint64_t seed, const World& world,
                double seconds, OutcomeLedger* ledger, MetricMap* out) {
  core::LabelingService session = BuildSession(world, 1);
  StepperDrive drive(spec, seed, &session, ledger);
  // The warm-up is traced too: on a workload whose states all recur, its
  // memo-filling forwards are the only ones the nn layer gets.
  TracedTotals warmup;
  drive.Traced(kStepperWarmupShare * seconds, &warmup);
  const double segment =
      (1.0 - kStepperWarmupShare) * seconds / (2 * kStepperPairs);
  StepperTotals plain;
  TracedTotals traced;
  // ABBA order, so a drift over the drive (the memo still filling on a cold
  // corpus) weighs on both sides alike.
  for (int i = 0; i < kStepperPairs; ++i) {
    if (i % 2 == 0) drive.Untraced(segment, &plain);
    drive.Traced(segment, &traced);
    if (i % 2 == 1) drive.Untraced(segment, &plain);
  }
  const double plain_rate = Ratio(plain.items, plain.wall_s);
  const double traced_rate = Ratio(traced.items, traced.wall_s);
  (*out)["stepper.items_per_s"] = {plain_rate, "items/s", plain.items};
  (*out)["stepper.admit_us.mean"] = {Ratio(plain.admit_s * 1e6, plain.admits),
                                     "us", plain.admits};
  (*out)["stepper.allocs_per_item"] = {
      Ratio(plain.admit_allocs + plain.tick_allocs, plain.items), "count",
      plain.items};
  (*out)["stepper.allocs_per_tick"] = {Ratio(plain.tick_allocs, plain.ticks),
                                       "count", plain.ticks};
  (*out)["stepper.tick_us.p50"] = {
      Percentile(&traced.tick_us, 50), "us",
      static_cast<long>(traced.tick_us.size())};
  (*out)["stepper.self_us_per_item_tick"] = {
      Ratio((traced.tick_s - traced.forward_s) * 1e6, traced.resident), "us",
      traced.resident};
  (*out)["plane.memo_hit_frac"] = {
      Ratio(traced.hits, traced.hits + traced.rows), "frac",
      traced.hits + traced.rows};
  (*out)["plane.rows_per_forward"] = {Ratio(traced.rows, traced.forwards),
                                      "count", traced.forwards};
  (*out)["plane.forward_rows_per_item"] = {
      Ratio(traced.rows, traced.completed), "count", traced.completed};
  std::vector<double> forward_us = warmup.forward_us;
  forward_us.insert(forward_us.end(), traced.forward_us.begin(),
                    traced.forward_us.end());
  const long forward_rows = warmup.rows + traced.rows;
  (*out)["nn.forward_us.p50"] = {Percentile(&forward_us, 50), "us",
                                 static_cast<long>(forward_us.size())};
  (*out)["nn.forward_us_per_row"] = {
      Ratio((warmup.forward_s + traced.forward_s) * 1e6, forward_rows), "us",
      forward_rows};
  (*out)["nn.forward_time_frac"] = {Ratio(traced.forward_s, traced.tick_s),
                                    "frac", -1};
  (*out)["obs.tracing_overhead_frac"] = {1.0 - Ratio(traced_rate, plain_rate),
                                         "frac", -1};
  (*out)["kernel.executions_per_item"] = {
      Ratio(drive.executions(), drive.retired()), "count", drive.retired()};
}

// --- batch driver ----------------------------------------------------------

void RunDriver(const WorkloadSpec& spec, uint64_t seed, const World& world,
               double seconds, OutcomeLedger* ledger, MetricMap* out) {
  core::LabelingService session = BuildSession(world, 1);
  ItemSequence sequence(spec, seed);
  std::vector<int> ids;
  std::vector<core::WorkItem> work;
  const auto call = [&]() {
    ids.clear();
    work.clear();
    for (int i = 0; i < kOfflineCallItems; ++i) {
      ids.push_back(sequence.NextItem());
      work.push_back(core::WorkItem::Stored(ids.back()));
    }
    const double t0 = Now();
    const std::vector<core::LabelOutcome> outcomes = session.SubmitBatch(work);
    const double dt = Now() - t0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ledger->Record(ids[i], outcomes[i]);
    }
    return dt;
  };
  call();  // warm-up: clone pool, allocator
  double busy_s = 0.0;
  long items = 0;
  const double end = Now() + seconds;
  while (Now() < end) {
    busy_s += call();
    items += kOfflineCallItems;
  }
  (*out)["driver.items_per_s"] = {Ratio(items, busy_s), "items/s", items};
}

// --- admission ---------------------------------------------------------------

/// ns per request of fill-to-kClosedOutstanding then drain-by-worker-refill
/// cycles over the workload's items, in the album runtime's queue config
/// (one class, one tenant, no deadlines, kReject): request build +
/// get_future + Enqueue, then TryPopBatch + TenantFinished.
double PushPopNs(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 long* rejected) {
  ItemSequence sequence(spec, seed);
  std::vector<int> items(kQueueRequests);
  for (int& item : items) item = sequence.NextItem();
  serve::AdmissionConfig config;
  config.capacity = kAlbumQueueCap;
  config.overload = serve::OverloadPolicy::kReject;
  serve::AdmissionQueue queue(config);
  std::vector<serve::QueuedRequest> bounced;
  std::vector<serve::QueuedRequest> popped;
  popped.reserve(kResidentPerWorker);
  uint64_t next_sequence = 0;
  size_t next = 0;
  long handled = 0;
  const double start = Now();
  const double end = start + seconds;
  while (Now() < end) {
    for (int i = 0; i < kClosedOutstanding; ++i) {
      serve::QueuedRequest request;
      request.item = core::WorkItem::Stored(items[next]);
      request.stream_id = static_cast<uint64_t>(items[next]);
      request.sequence = next_sequence++;
      next = (next + 1) % items.size();
      std::future<serve::ServeResult> future = request.promise.get_future();
      bounced.clear();
      if (queue.Enqueue(std::move(request), &bounced) !=
          serve::AdmitOutcome::kAccepted) {
        ++*rejected;
      }
    }
    while (true) {
      popped.clear();
      if (queue.TryPopBatch(kResidentPerWorker, &popped) == 0) break;
      for (const serve::QueuedRequest& request : popped) {
        queue.TenantFinished(request.tenant_id);
      }
      handled += static_cast<long>(popped.size());
    }
  }
  return Ratio((Now() - start) * 1e9, handled);
}

int Run(const CommonArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  const double S = args.seconds;
  const double alu_before = ProbeAluMops();
  const double steal_before = HostStealS();
  const double run_start = Now();
  World world = BuildCorpus(spec, args.seed);
  BuildAgent(&world);
  OutcomeLedger ledger(spec.corpus_items);
  MetricMap metrics;

  RunStepper(spec, args.seed, world, kStepperShare * S, &ledger, &metrics);
  RunDriver(spec, args.seed, world, kDriverShare * S, &ledger, &metrics);
  metrics["driver.gap_vs_stepper"] = {
      1.0 - Ratio(metrics["driver.items_per_s"].value,
                  metrics["stepper.items_per_s"].value),
      "frac", -1};

  long rejected = 0;
  metrics["admission.push_pop_ns"] = {
      PushPopNs(spec, args.seed, kQueueShare * S, &rejected), "ns", -1};

  const double steal_frac = StealFrac(steal_before, run_start);
  const double alu_after = ProbeAluMops();
  const double mem_ns = ProbeMemNs();
  const double check_start = Now();
  const long checked = ledger.Check(world);
  metrics["check_s"] = {Now() - check_start, "s", checked};

  std::vector<std::string> invalid;
  if (rejected > 0) {
    invalid.push_back(std::to_string(rejected) +
                      " layer-drive enqueues were refused");
  }
  const bool correct = ledger.mismatch_count() == 0;
  Json results;
  results.Str("workload", spec.name)
      .Str("pass", "layers")
      .Obj("machine",
           MachineJson(args, alu_before, alu_after, mem_ns, steal_frac))
      .Bool("correct", correct)
      .Bool("valid", invalid.empty())
      .StrList("invalid_reasons", invalid)
      .StrList("mismatches", ledger.mismatches())
      .Int("checked_items", checked)
      .Obj("metrics", MetricsJson(metrics));
  if (!WriteFile(args.out, results.Dump())) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  for (const std::string& m : ledger.mismatches()) {
    std::fprintf(stderr, "MISMATCH %s\n", m.c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace amsbench

int main(int argc, char** argv) {
  const amsbench::CommonArgs args = amsbench::ParseArgs(
      argc, argv, "--workload W --seed N --seconds S --out PATH [--rev REV]");
  return amsbench::Run(args);
}
