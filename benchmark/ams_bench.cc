// ams_bench — runs one benchmark workload end to end in its own process and
// writes a results file (run.py reads it):
//
//   ams_bench --workload W --seed N --seconds S --out results.json
//             [--trace] [--trace-out trace.json] [--rev REV]
//
// 1. Set-up: corpus and oracle, agent, session, then the serving runtime.
//    More samples come from set-up children started between rounds (see
//    kSetupChildren); the median is reported.
// 2. The timed phases, splitting S: an uncounted warm-up under closed load,
//    then rounds that each run a closed segment (kClosedOutstanding requests
//    in flight, or back-to-back SubmitBatch calls) and a serial segment
//    (one album at a time, each sent when the one before it completed).
//    Alternating spreads both kinds over the whole run, so each samples the
//    host's drift alike. With --trace the obs::Tracer is on throughout.
// 3. The correctness gate: every distinct served item is recomputed with
//    LabelingService::Submit on an independent session; every completed
//    request must match its reference bit for bit.
//
// Exit codes: 0 ok (an invalid run is flagged in the results file), 1 an
// output mismatch, 2 bad usage, a failed set-up child or an unwritable
// results file. The main thread is the load generator; the process runs
// kWorkers serving threads besides it. The set-up children run one at a
// time between rounds, and each is waited for.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "serve/server_runtime.h"

namespace amsbench {
namespace {

using namespace ams;

/// Set-up runs once in this process, whose stack serves, and is sampled
/// again in kSetupChildren fresh processes (this binary with --setup-only)
/// started between rounds. Each child repeats set-up until kMinSetupTotalS
/// or kMaxSetupRepeats: small corpora set up in milliseconds and need many
/// repeats for a steady median. Set-up speed follows the host's state,
/// which holds for tens of seconds, so the children spread over the run.
/// Repeating set-up in the serving process left the freed stacks in its
/// heap, and peak_rss_mb on album_hot spread 0.06-0.11 across seeds
/// instead of 0.004.
constexpr int kSetupChildren = 3;
constexpr double kMinSetupTotalS = 0.25;
constexpr int kMaxSetupRepeats = 15;
/// Seconds of uncounted closed load before the first round.
constexpr double kWarmupS = 1.0;
/// Target length of one round (a closed segment, then a serial one); the
/// rest of --seconds is split into the nearest whole number of rounds.
constexpr double kRoundS = 4.0;
/// Share of each round the closed segment gets: it measures the bounded
/// cpu_us_per_item, the serial segment only wall-clock metrics.
constexpr double kClosedShare = 0.6;
/// Closed-segment throughput is the median over bins of this length, so a
/// short stall of the VM moves one bin, not the result.
constexpr double kThroughputBinS = 0.25;
/// Serial segments keep the per-item samples (latency, queue wait, service
/// time) of every kItemSampleEvery-th item of each album, so the sample
/// buffers stay small next to the service's own memory (about 1 MB) and
/// peak_rss_mb hardly depends on how fast the host ran.
constexpr int kItemSampleEvery = 32;
/// Validity limit on the share of vCPU time stolen during the run. In steal
/// episodes of 15-30% throughput halved while CPU per item rose a tenth.
constexpr double kMaxStealFrac = 0.05;
/// Retained events per trace lane: enough for every tick and forward span
/// of a traced run's tail, with request lifecycle spans sampled 1 in 64.
constexpr size_t kTraceLaneCapacity = 1 << 17;
constexpr uint64_t kTraceSampleEvery = 64;
/// Events written to the Chrome trace (the tail of the traced run).
constexpr size_t kChromeTraceEvents = 20000;

/// The process's labeling stack. Members are destroyed in reverse order:
/// the runtime (which joins its workers) before the session it serves, and
/// the tracer last.
struct Stack {
  World world;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<core::LabelingService> session;
  std::unique_ptr<serve::ServerRuntime> runtime;
};

struct SetupTimes {
  double corpus_s = 0.0;
  double agent_s = 0.0;
  double session_s = 0.0;
  double total_s = 0.0;
};

std::unique_ptr<Stack> Setup(const WorkloadSpec& spec, uint64_t seed,
                             bool traced, SetupTimes* times) {
  const double t0 = Now();
  auto stack = std::make_unique<Stack>();
  stack->world = BuildCorpus(spec, seed);
  const double t1 = Now();
  BuildAgent(&stack->world);
  const double t2 = Now();
  stack->session = std::make_unique<core::LabelingService>(
      BuildSession(stack->world, kWorkers));
  if (spec.shape == Shape::kAlbums) {
    serve::ServeOptions options;
    if (traced) {
      obs::Tracer::Options trace_options;
      trace_options.lane_capacity = kTraceLaneCapacity;
      trace_options.sample_every = kTraceSampleEvery;
      stack->tracer = std::make_unique<obs::Tracer>(trace_options);
    }
    options.tracer = stack->tracer.get();
    options.workers = kWorkers;
    options.max_resident_per_worker = kResidentPerWorker;
    options.queue_capacity = kAlbumQueueCap;
    options.overload = serve::OverloadPolicy::kReject;
    stack->runtime = std::make_unique<serve::ServerRuntime>(
        stack->session.get(), options);
  }
  const double t3 = Now();
  times->corpus_s = t1 - t0;
  times->agent_s = t2 - t1;
  times->session_s = t3 - t2;
  times->total_s = t3 - t0;
  return stack;
}

/// Set-up times, one entry per repeat, from this process and its children.
struct SetupSamples {
  std::vector<double> total, corpus, agent, session;

  void Add(const SetupTimes& times) {
    total.push_back(times.total_s);
    corpus.push_back(times.corpus_s);
    agent.push_back(times.agent_s);
    session.push_back(times.session_s);
  }
};

/// The --setup-only child: sets up until kMinSetupTotalS or
/// kMaxSetupRepeats, each stack destroyed before the next, and prints one
/// line per repeat.
int SetupOnly(const CommonArgs& args) {
  double sum_s = 0.0;
  for (int i = 0; i < kMaxSetupRepeats && (i == 0 || sum_s < kMinSetupTotalS);
       ++i) {
    SetupTimes t;
    Setup(*args.spec, args.seed, args.trace, &t);
    std::printf("%.9f %.9f %.9f %.9f\n", t.total_s, t.corpus_s, t.agent_s,
                t.session_s);
    sum_s += t.total_s;
  }
  return 0;
}

/// Runs `command` (a --setup-only child), waits for it and adds the
/// samples it printed; false if it failed or printed none.
bool SetupInChild(const std::string& command, SetupSamples* samples) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  const size_t before = samples->total.size();
  SetupTimes t;
  while (std::fscanf(pipe, "%lf %lf %lf %lf", &t.total_s, &t.corpus_s,
                     &t.agent_s, &t.session_s) == 4) {
    samples->Add(t);
  }
  return pclose(pipe) == 0 && samples->total.size() > before;
}

// --- per-segment statistics --------------------------------------------------

/// One closed or serial segment; Merge() folds a run's segments of one kind
/// together.
struct PhaseStats {
  bool serial = false;
  double start = 0.0;
  double end = 0.0;
  // Every item sent in the segment.
  long sent = 0;
  // Serial: the sampled items (see kItemSampleEvery) and every album whose
  // items all completed.
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  std::vector<double> album_ms;
  // Closed: items completed per kThroughputBinS bin, the batch calls and
  // their seconds (offline), and the CPU seconds and items of the segment.
  std::vector<double> bin_items;
  long calls = 0;
  double call_s = 0.0;
  double cpu_process_s = 0.0;
  double cpu_generator_s = 0.0;
  double cpu_window_s = 0.0;
  double window_items = 0.0;

  void Begin(double duration_s, bool is_serial) {
    serial = is_serial;
    start = Now();
    end = start + duration_s;
    const double bins = std::floor(duration_s / kThroughputBinS);
    bin_items.assign(static_cast<size_t>(std::max(1.0, bins)), 0.0);
  }
  /// Counts one item completed at time `t` into the segment's bins.
  void Completed(double t) {
    if (t < start || t > end) return;
    window_items += 1.0;
    const size_t bin = static_cast<size_t>((t - start) / kThroughputBinS);
    if (bin < bin_items.size()) bin_items[bin] += 1.0;
  }
  void StartCpu() {
    cpu_process_s = -ProcessCpuS();
    cpu_generator_s = -ThreadCpuS();
  }
  void StopCpu() {
    cpu_process_s += ProcessCpuS();
    cpu_generator_s += ThreadCpuS();
    cpu_window_s = Now() - start;
  }
};

/// Folds segments of one kind into one: samples appended, counts summed.
PhaseStats Merge(const std::vector<PhaseStats>& segments) {
  PhaseStats all;
  const auto append = [](auto* to, const auto& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (const PhaseStats& s : segments) {
    all.serial = s.serial;
    append(&all.latency_ms, s.latency_ms);
    append(&all.queue_ms, s.queue_ms);
    append(&all.service_ms, s.service_ms);
    append(&all.album_ms, s.album_ms);
    append(&all.bin_items, s.bin_items);
    all.sent += s.sent;
    all.calls += s.calls;
    all.call_s += s.call_s;
    all.cpu_process_s += s.cpu_process_s;
    all.cpu_generator_s += s.cpu_generator_s;
    all.cpu_window_s += s.cpu_window_s;
    all.window_items += s.window_items;
  }
  return all;
}

struct AlbumState {
  int remaining = 0;
  double max_ms = 0.0;
  bool failed = false;
  PhaseStats* phase = nullptr;
};

/// One request in flight.
struct Sent {
  std::future<serve::ServeResult> future;
  int item = 0;
  int index = 0;  // position in its album
  long album = 0;
  double due = 0.0;
  double send = 0.0;
  PhaseStats* phase = nullptr;
};

/// Totals every generator reports.
struct Totals {
  long sent = 0;
  long failed = 0;
  long completed = 0;
  double recall_sum = 0.0;

  void Add(const core::LabelOutcome& outcome) {
    ++completed;
    recall_sum += outcome.recall;
  }
};

/// The load generator of the album workloads: whole albums enqueued on the
/// serving runtime, one future per item.
class ServingGenerator {
 public:
  ServingGenerator(const WorkloadSpec& spec, uint64_t seed, Stack* stack,
                   OutcomeLedger* ledger)
      : spec_(spec),
        runtime_(stack->runtime.get()),
        ledger_(ledger),
        sequence_(spec, seed) {}

  /// Closed load for `duration_s`, counted nowhere.
  void WarmUp(double duration_s) {
    PhaseStats scratch;
    RunClosed(&scratch, duration_s);
  }

  /// kClosedOutstanding requests in flight for `duration_s`.
  void RunClosed(PhaseStats* stats, double duration_s) {
    stats->Begin(duration_s, /*is_serial=*/false);
    stats->StartCpu();
    for (double now = Now(); now < stats->end; now = Now()) {
      while (static_cast<int>(inflight_.size()) >= kClosedOutstanding) {
        RetireFront();
      }
      RetireReady();
      SendAlbum(stats, now);
    }
    stats->StopCpu();
    Finish();
  }

  /// One album at a time for `duration_s`. The generator spins (retiring
  /// and yielding) until the album completes rather than blocking on a
  /// future: a sleeping vCPU can take milliseconds to wake on a shared host.
  void RunSerial(PhaseStats* stats, double duration_s) {
    stats->Begin(duration_s, /*is_serial=*/true);
    while (Now() < stats->end) {
      SendAlbum(stats, Now());
      while (!inflight_.empty()) {
        RetireReady();
        std::this_thread::yield();
      }
    }
  }

  const Totals& totals() const { return totals_; }

 private:
  /// Enqueues the album due at `due`, item by item.
  void SendAlbum(PhaseStats* stats, double due) {
    sequence_.NextAlbum(spec_.album_items, &album_items_);
    const long album = next_album_++;
    AlbumState& state = albums_[album];
    state.remaining = spec_.album_items;
    state.phase = stats;
    for (int i = 0; i < spec_.album_items; ++i) {
      Sent sent;
      sent.item = album_items_[static_cast<size_t>(i)];
      sent.index = i;
      sent.album = album;
      sent.due = due;
      sent.phase = stats;
      sent.send = Now();
      sent.future = runtime_->Enqueue(core::WorkItem::Stored(sent.item));
      inflight_.push_back(std::move(sent));
    }
    stats->sent += spec_.album_items;
    totals_.sent += spec_.album_items;
  }

  /// Retires the resolved requests at the front, oldest first.
  void RetireReady() {
    while (!inflight_.empty() &&
           inflight_.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      RetireFront();
    }
  }

  void Finish() {
    while (!inflight_.empty()) RetireFront();
  }

  void RetireFront() {
    Sent sent = std::move(inflight_.front());
    inflight_.pop_front();
    const serve::ServeResult result = sent.future.get();
    PhaseStats* stats = sent.phase;
    const double latency_ms = (sent.send - sent.due + result.latency_s) * 1e3;
    if (result.ok()) {
      ledger_->Record(sent.item, result.outcome);
      totals_.Add(result.outcome);
      if (!stats->serial) stats->Completed(sent.send + result.latency_s);
      if (stats->serial && sent.index % kItemSampleEvery == 0) {
        stats->latency_ms.push_back(latency_ms);
        stats->queue_ms.push_back(result.queue_delay_s * 1e3);
        stats->service_ms.push_back(result.service_s * 1e3);
      }
    } else {
      ++totals_.failed;
    }
    const auto it = albums_.find(sent.album);
    AlbumState& album = it->second;
    album.max_ms = std::max(album.max_ms, latency_ms);
    album.failed = album.failed || !result.ok();
    if (--album.remaining == 0) {
      if (album.phase->serial && !album.failed) {
        album.phase->album_ms.push_back(album.max_ms);
      }
      albums_.erase(it);
    }
  }

  const WorkloadSpec& spec_;
  serve::ServerRuntime* runtime_;
  OutcomeLedger* ledger_;
  ItemSequence sequence_;
  std::deque<Sent> inflight_;
  std::unordered_map<long, AlbumState> albums_;
  std::vector<int> album_items_;
  long next_album_ = 0;
  Totals totals_;
};

/// The offline workload: SubmitBatch calls on the generator thread. Closed
/// segments issue kOfflineCallItems-item calls back to back; serial
/// segments submit one album per call, back to back.
class OfflineGenerator {
 public:
  OfflineGenerator(const WorkloadSpec& spec, uint64_t seed, Stack* stack,
                   OutcomeLedger* ledger)
      : spec_(spec),
        session_(stack->session.get()),
        ledger_(ledger),
        sequence_(spec, seed) {}

  /// Back-to-back calls for `duration_s` (clone pool, allocator), counted
  /// nowhere.
  void WarmUp(double duration_s) {
    const double end = Now() + duration_s;
    while (Now() < end) Call(kOfflineCallItems);
  }

  void RunClosed(PhaseStats* stats, double duration_s) {
    stats->Begin(duration_s, /*is_serial=*/false);
    stats->StartCpu();
    while (Now() < stats->end) {
      const double t0 = Now();
      Call(kOfflineCallItems);
      stats->call_s += Now() - t0;
      stats->sent += kOfflineCallItems;
      ++stats->calls;
    }
    stats->StopCpu();
    stats->window_items = static_cast<double>(stats->sent);
  }

  /// Every item of a call completes with the call, so each call is one
  /// sample of item latency and of album time; the driver has no queue.
  void RunSerial(PhaseStats* stats, double duration_s) {
    stats->Begin(duration_s, /*is_serial=*/true);
    while (Now() < stats->end) {
      const double start = Now();
      Call(spec_.album_items);
      const double call_ms = (Now() - start) * 1e3;
      stats->sent += spec_.album_items;
      stats->latency_ms.push_back(call_ms);
      stats->service_ms.push_back(call_ms);
      stats->album_ms.push_back(call_ms);
    }
  }

  const Totals& totals() const { return totals_; }

 private:
  void Call(int n) {
    sequence_.NextAlbum(n, &ids_);
    work_.clear();
    for (int id : ids_) work_.push_back(core::WorkItem::Stored(id));
    const std::vector<core::LabelOutcome> outcomes =
        session_->SubmitBatch(work_);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ledger_->Record(ids_[i], outcomes[i]);
      totals_.Add(outcomes[i]);
    }
    totals_.sent += n;
  }

  const WorkloadSpec& spec_;
  core::LabelingService* session_;
  OutcomeLedger* ledger_;
  ItemSequence sequence_;
  std::vector<int> ids_;
  std::vector<core::WorkItem> work_;
  Totals totals_;
};

// --- trace export ------------------------------------------------------------

void WriteChromeTrace(const std::vector<obs::TraceEvent>& events,
                      const std::string& path) {
  const size_t keep = std::min(events.size(), kChromeTraceEvents);
  const std::vector<obs::TraceEvent> tail(events.end() - keep, events.end());
  std::ofstream out(path);
  if (out) obs::ChromeTraceSink().Write(tail, out);
}

// --- reporting ---------------------------------------------------------------

void AddPercentile(MetricMap* out, const std::string& name, const char* unit,
                   std::vector<double> values, double p) {
  const long n = static_cast<long>(values.size());
  (*out)[name] = {Percentile(&values, p), unit, n};
}

/// `child_command` starts this binary as a --setup-only child.
int Run(const CommonArgs& args, const std::string& child_command) {
  const WorkloadSpec& spec = *args.spec;
  const bool offline = spec.shape == Shape::kOfflineBatch;
  const double alu_before = ProbeAluMops();
  const double steal_before = HostStealS();
  const double run_start = Now();

  // 1. Set-up, once here; the children repeat it between the rounds.
  SetupSamples setup;
  SetupTimes first;
  std::unique_ptr<Stack> stack = Setup(spec, args.seed, args.trace, &first);
  setup.Add(first);

  // 2. The timed phases: warm-up, then rounds of a closed and a serial
  // segment, with the set-up children spread between the rounds.
  OutcomeLedger ledger(spec.corpus_items);
  const int rounds = std::max(
      1, static_cast<int>(std::lround((args.seconds - kWarmupS) / kRoundS)));
  const double round_s = std::max(args.seconds - kWarmupS, 1.0) / rounds;
  const double closed_s = kClosedShare * round_s;
  const double serial_s = round_s - closed_s;
  std::vector<PhaseStats> closed_segments(static_cast<size_t>(rounds));
  std::vector<PhaseStats> serial_segments(static_cast<size_t>(rounds));
  int children = 0;
  bool children_ok = true;
  const auto run_rounds = [&](auto& generator) {
    generator.WarmUp(kWarmupS);
    for (int r = 0; r < rounds; ++r) {
      generator.RunClosed(&closed_segments[static_cast<size_t>(r)], closed_s);
      generator.RunSerial(&serial_segments[static_cast<size_t>(r)], serial_s);
      for (; children < kSetupChildren * (r + 1) / rounds; ++children) {
        children_ok = SetupInChild(child_command, &setup) && children_ok;
      }
    }
  };
  Totals totals;
  std::vector<obs::TraceEvent> events;
  if (offline) {
    OfflineGenerator generator(spec, args.seed, stack.get(), &ledger);
    run_rounds(generator);
    totals = generator.totals();
  } else {
    ServingGenerator generator(spec, args.seed, stack.get(), &ledger);
    run_rounds(generator);
    totals = generator.totals();
    if (stack->tracer != nullptr) events = stack->tracer->Collect();
  }
  if (!children_ok) {
    std::fprintf(stderr, "a set-up child failed: %s\n", child_command.c_str());
    return 2;
  }
  const double peak_rss_mb = PeakRssMb();
  const double steal_frac = StealFrac(steal_before, run_start);
  const double alu_after = ProbeAluMops();
  const double mem_ns = ProbeMemNs();

  // 3. Correctness gate on independent sessions.
  const double check_start = Now();
  const long checked = ledger.Check(stack->world);
  const double check_s = Now() - check_start;

  const PhaseStats closed = Merge(closed_segments);
  const PhaseStats serial = Merge(serial_segments);

  // Validity.
  std::vector<std::string> invalid;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (kWorkers + 1 > nproc) {
    invalid.push_back("workers + generator (" + std::to_string(kWorkers + 1) +
                      ") exceed nproc (" + std::to_string(nproc) + ")");
  }
  if (steal_frac > kMaxStealFrac) {
    invalid.push_back("the hypervisor stole " +
                      std::to_string(100 * steal_frac) +
                      "% of vCPU time; wall-clock metrics measure the host");
  }

  // Metrics: the end-to-end set, then the serving-pass layer metrics.
  MetricMap metrics;
  const long setup_repeats = static_cast<long>(setup.total.size());
  metrics["setup_s"] = {Median(setup.total), "s", setup_repeats};
  metrics["setup.corpus_s"] = {Median(setup.corpus), "s", setup_repeats};
  metrics["setup.agent_s"] = {Median(setup.agent), "s", setup_repeats};
  metrics["setup.session_s"] = {Median(setup.session), "s", setup_repeats};
  metrics["peak_rss_mb"] = {peak_rss_mb, "MB", -1};
  // Items per second of SubmitBatch time on the batch driver: a call waits
  // for the slowest of its statically partitioned workers, so call rates
  // are bimodal on a shared host (a stalled vCPU slows a whole call); their
  // median jumps between the modes, the total does not.
  if (offline) {
    metrics["throughput_items_per_s"] = {closed.sent / closed.call_s,
                                         "items/s", closed.calls};
  } else {
    std::vector<double> rates;
    for (double items : closed.bin_items) {
      rates.push_back(items / kThroughputBinS);
    }
    metrics["throughput_items_per_s"] = {Median(rates), "items/s",
                                         static_cast<long>(rates.size())};
  }
  AddPercentile(&metrics, "latency_p50_ms", "ms", serial.latency_ms, 50);
  AddPercentile(&metrics, "album_p50_ms", "ms", serial.album_ms, 50);
  metrics["recall_mean"] = {
      totals.completed > 0 ? totals.recall_sum / totals.completed : 0.0,
      "frac", totals.completed};
  const double sent = totals.sent > 0 ? static_cast<double>(totals.sent) : 1.0;
  metrics["failed_frac"] = {totals.failed / sent, "frac", totals.sent};
  metrics["admission.rejected_frac"] = {totals.failed / sent, "frac",
                                        totals.sent};
  const double worker_cpu_s = closed.cpu_process_s - closed.cpu_generator_s;
  metrics["runtime.worker_cpu_frac"] = {
      worker_cpu_s / (kWorkers * closed.cpu_window_s), "frac", -1};
  metrics["cpu_us_per_item"] = {
      worker_cpu_s * 1e6 / closed.window_items, "us",
      static_cast<long>(closed.window_items)};
  AddPercentile(&metrics, "admission.queue_wait_ms.p50", "ms",
                serial.queue_ms, 50);
  AddPercentile(&metrics, "admission.queue_wait_ms.p99", "ms",
                serial.queue_ms, 99);
  AddPercentile(&metrics, "runtime.service_ms.p50", "ms", serial.service_ms,
                50);
  AddPercentile(&metrics, "runtime.service_ms.p99", "ms", serial.service_ms,
                99);
  if (!events.empty() && !args.trace_out.empty()) {
    WriteChromeTrace(events, args.trace_out);
  }
  metrics["check_s"] = {check_s, "s", checked};

  const bool correct = ledger.mismatch_count() == 0;
  Json phases;
  phases.Num("seconds", args.seconds)
      .Num("warmup_s", kWarmupS)
      .Int("rounds", rounds)
      .Num("closed_s", closed_s * rounds)
      .Num("serial_s", serial_s * rounds)
      .Int("album_items", spec.album_items);
  Json results;
  results.Str("workload", spec.name)
      .Str("pass", args.trace ? "serving_traced" : "serving")
      .Obj("machine",
           MachineJson(args, alu_before, alu_after, mem_ns, steal_frac))
      .Obj("phases", phases)
      .Bool("correct", correct)
      .Bool("valid", invalid.empty())
      .StrList("invalid_reasons", invalid)
      .StrList("mismatches", ledger.mismatches())
      .Int("checked_items", checked)
      .Int("attempted", totals.sent)
      .Int("failed", totals.failed)
      .Obj("metrics", MetricsJson(metrics));
  if (!WriteFile(args.out, results.Dump())) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  for (const std::string& m : ledger.mismatches()) {
    std::fprintf(stderr, "MISMATCH %s\n", m.c_str());
  }
  for (const std::string& why : invalid) {
    std::fprintf(stderr, "INVALID %s\n", why.c_str());
  }
  return correct ? 0 : 1;
}

/// `s` as one /bin/sh word.
std::string ShellQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return out + "'";
}

}  // namespace
}  // namespace amsbench

int main(int argc, char** argv) {
  const char* usage =
      "[--setup-only] --workload W --seed N --seconds S --out PATH [--trace] "
      "[--trace-out PATH] [--rev REV]";
  // --setup-only (first) makes this process a set-up child of a run with
  // the flags that follow; it prints its set-up times and writes nothing.
  if (argc > 1 && std::strcmp(argv[1], "--setup-only") == 0) {
    argv[1] = argv[0];
    return amsbench::SetupOnly(amsbench::ParseArgs(argc - 1, argv + 1, usage));
  }
  std::string child_command =
      amsbench::ShellQuote(argv[0]) + " --setup-only";
  for (int i = 1; i < argc; ++i) {
    child_command += " " + amsbench::ShellQuote(argv[i]);
  }
  return amsbench::Run(amsbench::ParseArgs(argc, argv, usage), child_command);
}
