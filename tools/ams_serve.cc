// ams_serve — open-loop serving driver for the serve::ServerRuntime: builds
// a corpus and an agent, stands up the asynchronous runtime over a labeling
// session, replays seeded Poisson arrivals against it, and reports
// admission/latency/throughput metrics.
//
// Usage:
//   ams_serve [--dataset NAME] [--items N] [--requests N] [--rate R]
//             [--workers N] [--queue-cap N] [--resident N]
//             [--overload block|reject|shed] [--slack S]
//             [--class-mix I:S:B] [--tenants N] [--quota SPEC] [--live]
//             [--deadline S] [--memory GB] [--hidden N] [--seed N]
//             [--json PATH] [--trace PATH] [--trace-sample N]
//
// `--requests` (>= 1) cycles through a corpus of `--items` (>= 1) items.
// `--rate` is the open-loop arrival rate in requests/second (Poisson,
// seeded by --seed); 0 enqueues everything at once (closed burst).
// `--queue-cap` and `--resident` (each >= 1) bound the admission queue and
// each worker's resident set. `--slack` grants each request a latency
// deadline of arrival + S seconds (EDF admission order within a class,
// misses counted); 0 means no deadlines. `--class-mix` assigns each
// request a priority class (interactive:standard:batch) with the given
// relative shares, seeded — thinning the single Poisson arrival process
// into independent per-class Poisson streams of rate * share each; the
// classes are served 8:4:1 and the report breaks admission and latency out
// per class. `--tenants N` spreads requests over N tenants with a seeded
// harmonic skew (tenant 0 heaviest — share of tenant t is proportional to
// 1/(t+1)), and `--quota` applies one quota to every tenant as
// comma-separated key=value pairs from {queued=N, inflight=N, rate=R,
// burst=B} (N integers >= 0 and R >= 0, 0 = unlimited; B >= 1, or 0 for
// the default of 1); the report then breaks admission out per tenant. The
// scheduling agent is an untrained net with the paper's architecture —
// per-decision cost matches a trained agent while setup stays in
// milliseconds (train and serve real checkpoints through ams_label's cache
// if needed). `--live` submits each request as a WorkItem::Live over the
// corpus scene instead of a stored item id, exercising the live execution
// path. `--deadline` and `--memory` (each >= 0) are every item's Algorithm 2
// time and memory budget, and `--hidden` (>= 1) is the agent's hidden width.
//
// Examples:
//   ams_serve --rate 2000 --workers 4 --slack 0.05
//   ams_serve --rate 8000 --queue-cap 64 --overload shed --requests 20000
//   ams_serve --rate 4000 --class-mix 70:25:5 --overload shed --slack 0.1
//   ams_serve --tenants 4 --quota queued=32,rate=500,burst=50 --rate 4000
//   ams_serve --live --rate 2000 --slack 0.1
//   ams_serve --rate 8000 --trace trace.json --trace-sample 4
//
// `--trace PATH` turns on the obs:: tracing layer and, after the run
// drains, writes every retained span (admission, queue wait, stepper ticks,
// batched Q-forwards, execution) as Chrome trace-event JSON to PATH — load
// it in Perfetto or chrome://tracing, or summarize it with
// tools/trace_summary.py. `--trace-sample N` records the per-request
// lifecycle spans of every Nth request only (default 1 = all); tick spans
// are always recorded, one per tick, and forward spans one per tick whose
// refresh ran a forward. Each per-lane ring holds 32 events per
// request (at most 2^18), and the export records how many events the rings
// dropped. Tracing off (no --trace) leaves the serving hot path exactly as
// fast as before — every instrumentation site reduces to one branch.

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/labeling_service.h"
#include "obs/trace.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "serve/server_runtime.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace ams;

struct Options {
  std::string dataset = "mscoco";
  int items = 400;        // corpus size; requests cycle through it
  int requests = 2000;    // total requests to replay
  double rate = 0.0;      // arrivals/s; 0 = closed burst
  int workers = 0;        // <= 0: hardware concurrency
  int queue_cap = 1024;
  int resident = 16;
  std::string overload = "block";
  double slack_s = 0.0;   // 0 = no deadlines
  std::string class_mix;  // "I:S:B" shares; empty = all standard
  int tenants = 1;        // request spread; > 1 enables the per-tenant report
  std::string quota;      // "queued=N,inflight=N,rate=R,burst=B"; empty = none
  bool live = false;      // submit WorkItem::Live scenes, not stored ids
  double deadline = 1.0;  // per-item scheduling time budget (simulated)
  double memory_gb = 8.0; // per-item memory budget (Algorithm 2)
  int hidden = 256;
  uint64_t seed = 7;
  std::string json_path;
  std::string trace_path;   // empty = tracing off
  int trace_sample = 1;     // record every Nth request's lifecycle spans
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--dataset mscoco|places365|mirflickr25|stanford40|voc2012]\n"
      "          [--items N] [--requests N] [--rate R] [--workers N]\n"
      "          [--queue-cap N] [--resident N] [--overload block|reject|shed]\n"
      "          [--slack S] [--class-mix I:S:B] [--tenants N]\n"
      "          [--quota queued=N,inflight=N,rate=R,burst=B]\n"
      "          [--live] [--deadline S] [--memory GB]\n"
      "          [--hidden N] [--seed N] [--json PATH]\n"
      "          [--trace PATH] [--trace-sample N]\n",
      argv0);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--dataset")) {
      opts.dataset = next();
    } else if (!std::strcmp(argv[i], "--items")) {
      opts.items = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--requests")) {
      opts.requests = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--rate")) {
      opts.rate = std::atof(next());
    } else if (!std::strcmp(argv[i], "--workers")) {
      opts.workers = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--queue-cap")) {
      opts.queue_cap = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--resident")) {
      opts.resident = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--overload")) {
      opts.overload = next();
    } else if (!std::strcmp(argv[i], "--slack")) {
      opts.slack_s = std::atof(next());
    } else if (!std::strcmp(argv[i], "--class-mix")) {
      opts.class_mix = next();
    } else if (!std::strcmp(argv[i], "--tenants")) {
      opts.tenants = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--quota")) {
      opts.quota = next();
    } else if (!std::strcmp(argv[i], "--live")) {
      opts.live = true;
    } else if (!std::strcmp(argv[i], "--deadline")) {
      opts.deadline = std::atof(next());
    } else if (!std::strcmp(argv[i], "--memory")) {
      opts.memory_gb = std::atof(next());
    } else if (!std::strcmp(argv[i], "--hidden")) {
      opts.hidden = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--seed")) {
      opts.seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (!std::strcmp(argv[i], "--json")) {
      opts.json_path = next();
    } else if (!std::strcmp(argv[i], "--trace")) {
      opts.trace_path = next();
    } else if (!std::strcmp(argv[i], "--trace-sample")) {
      opts.trace_sample = std::atoi(next());
    } else {
      Usage(argv[0]);
    }
  }
  if (opts.requests < 1) {
    std::fprintf(stderr, "--requests must be >= 1\n");
    Usage(argv[0]);
  }
  if (opts.items < 1) {
    std::fprintf(stderr, "--items must be >= 1\n");
    Usage(argv[0]);
  }
  if (opts.queue_cap < 1) {
    std::fprintf(stderr, "--queue-cap must be >= 1\n");
    Usage(argv[0]);
  }
  if (opts.resident < 1) {
    std::fprintf(stderr, "--resident must be >= 1\n");
    Usage(argv[0]);
  }
  if (!(std::isfinite(opts.slack_s) && opts.slack_s >= 0.0)) {
    std::fprintf(stderr,
                 "--slack must be a finite number of seconds >= 0 "
                 "(0 = no deadlines)\n");
    Usage(argv[0]);
  }
  if (!(opts.rate >= 0.0)) {  // also catches NaN
    std::fprintf(stderr, "--rate must be >= 0 (0 = closed burst)\n");
    Usage(argv[0]);
  }
  if (opts.trace_sample < 1) {
    std::fprintf(stderr, "--trace-sample must be >= 1\n");
    Usage(argv[0]);
  }
  if (opts.overload != "block" && opts.overload != "reject" &&
      opts.overload != "shed") {
    std::fprintf(stderr, "unknown overload policy: %s\n",
                 opts.overload.c_str());
    Usage(argv[0]);
  }
  if (opts.tenants < 1) {
    std::fprintf(stderr, "--tenants must be >= 1\n");
    Usage(argv[0]);
  }
  // ScheduleConstraints' own rules (also catches NaN); inf = no budget.
  if (!(opts.deadline >= 0.0)) {
    std::fprintf(stderr, "--deadline must be a number of seconds >= 0\n");
    Usage(argv[0]);
  }
  if (!(opts.memory_gb >= 0.0)) {
    std::fprintf(stderr, "--memory must be a number of GB >= 0\n");
    Usage(argv[0]);
  }
  if (opts.hidden < 1) {
    std::fprintf(stderr, "--hidden must be >= 1\n");
    Usage(argv[0]);
  }
  return opts;
}

/// Parses "--quota queued=N,inflight=N,rate=R,burst=B" (any subset) into a
/// TenantQuota; exits with a usage error on a malformed or out-of-range
/// entry (the queue would abort on the latter).
serve::TenantQuota QuotaFromSpec(const std::string& spec) {
  serve::TenantQuota quota;
  size_t start = 0;
  while (start < spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string pair = spec.substr(start, end - start);
    const size_t eq = pair.find('=');
    bool ok = eq != std::string::npos && eq + 1 < pair.size();
    if (ok) {
      const std::string key = pair.substr(0, eq);
      const char* text = pair.c_str() + eq + 1;
      char* parsed_end = nullptr;
      if (key == "queued" || key == "inflight") {
        const long value = std::strtol(text, &parsed_end, 10);
        ok = *parsed_end == '\0' && value >= 0 && value <= INT_MAX;
        int& field = key == "queued" ? quota.max_queued : quota.max_in_flight;
        field = static_cast<int>(value);
      } else if (key == "rate" || key == "burst") {
        const double value = std::strtod(text, &parsed_end);
        ok = *parsed_end == '\0' && std::isfinite(value) &&
             (key == "rate" ? value >= 0.0 : value == 0.0 || value >= 1.0);
        double& field = key == "rate" ? quota.rate_per_s : quota.burst;
        field = value;
      } else {
        ok = false;
      }
    }
    if (!ok) {
      std::fprintf(stderr,
                   "bad --quota entry (want queued=N,inflight=N with "
                   "integers N >= 0, rate=R >= 0, burst=B >= 1 or 0): %s\n",
                   pair.c_str());
      std::exit(2);
    }
    start = end + 1;
  }
  return quota;
}

data::DatasetProfile ProfileFromName(const std::string& name) {
  bool found = false;
  data::DatasetProfile profile =
      data::DatasetProfile::ByName(name, data::DatasetProfile::MsCoco(),
                                   &found);
  if (!found) {
    std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
    std::exit(2);
  }
  return profile;
}

serve::OverloadPolicy PolicyFromName(const std::string& name) {
  if (name == "reject") return serve::OverloadPolicy::kReject;
  if (name == "shed") return serve::OverloadPolicy::kShedOldest;
  return serve::OverloadPolicy::kBlock;
}

/// Parses "--class-mix I:S:B" (e.g. "70:25:5") into per-class shares.
/// Empty mix = everything kStandard.
std::array<double, serve::kNumPriorityClasses> MixFromSpec(
    const std::string& spec) {
  std::array<double, serve::kNumPriorityClasses> mix{0.0, 1.0, 0.0};
  if (spec.empty()) return mix;
  double interactive = 0.0, standard = 0.0, batch = 0.0;
  if (std::sscanf(spec.c_str(), "%lf:%lf:%lf", &interactive, &standard,
                  &batch) != 3 ||
      !std::isfinite(interactive) || !std::isfinite(standard) ||
      !std::isfinite(batch) ||
      interactive < 0.0 || standard < 0.0 || batch < 0.0 ||
      interactive + standard + batch <= 0.0) {
    std::fprintf(stderr, "bad --class-mix (want I:S:B shares): %s\n",
                 spec.c_str());
    std::exit(2);
  }
  mix = {interactive, standard, batch};
  return mix;
}

using Slices =
    std::vector<std::pair<std::string, const serve::RequestMetrics*>>;

/// One row per ledger slice: how its requests entered and left, and its
/// queue-delay and total-latency percentiles.
void PrintSlices(const std::string& kind, const Slices& slices) {
  util::AsciiTable table;
  table.SetHeader({kind, "enqueued", "completed", "rejected", "quota rej",
                   "shed", "misses", "queue p50 (ms)", "queue p99 (ms)",
                   "p50 (ms)", "p95 (ms)", "p99 (ms)"});
  for (const auto& [name, slice] : slices) {
    std::vector<std::string> row = {name};
    for (const std::atomic<long>* count :
         {&slice->enqueued, &slice->completed, &slice->rejected,
          &slice->quota_rejected, &slice->shed, &slice->deadline_misses}) {
      row.push_back(std::to_string(count->load()));
    }
    for (const double seconds :
         {slice->queue_delay.Percentile(50), slice->queue_delay.Percentile(99),
          slice->total_latency.Percentile(50),
          slice->total_latency.Percentile(95),
          slice->total_latency.Percentile(99)}) {
      row.push_back(util::FormatDouble(seconds * 1e3, 3));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Parse(argc, argv);
  // Validate the mix and quota before the (comparatively slow) corpus build.
  const std::array<double, serve::kNumPriorityClasses> mix =
      MixFromSpec(opts.class_mix);
  const serve::TenantQuota quota = QuotaFromSpec(opts.quota);

  std::printf("building zoo + %s corpus (%d items, seed %llu)...\n",
              opts.dataset.c_str(), opts.items,
              static_cast<unsigned long long>(opts.seed));
  const zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  const data::Dataset dataset = data::Dataset::Generate(
      ProfileFromName(opts.dataset), zoo.labels(), opts.items, opts.seed);
  const data::Oracle oracle(&zoo, &dataset);

  nn::MlpConfig net_config;
  net_config.input_dim = zoo.labels().total_labels();
  net_config.hidden_dims = {opts.hidden};
  net_config.output_dim = zoo.num_models() + 1;
  rl::Agent agent(std::make_unique<nn::Mlp>(net_config, opts.seed),
                  nn::NetKind::kMlp);

  core::ScheduleConstraints constraints;
  constraints.time_budget_s = opts.deadline;
  constraints.memory_budget_mb = opts.memory_gb * 1024.0;
  core::LabelingService session = core::LabelingServiceBuilder(&zoo)
                                      .WithOracle(&oracle)
                                      .WithPredictor(&agent)
                                      .WithMode(core::ExecutionMode::kParallel)
                                      .WithConstraints(constraints)
                                      .WithKernelMode(core::KernelMode::kLean)
                                      .WithWorkers(opts.workers)
                                      .WithSeed(opts.seed)
                                      .Build();

  serve::ServeOptions serve_options;
  serve_options.workers = opts.workers;
  serve_options.queue_capacity = opts.queue_cap;
  serve_options.max_resident_per_worker = opts.resident;
  serve_options.overload = PolicyFromName(opts.overload);
  if (!opts.quota.empty()) serve_options.tenant_quotas.default_quota = quota;
  if (opts.slack_s > 0.0) serve_options.default_slack_s = opts.slack_s;

  std::unique_ptr<obs::Tracer> tracer;
  if (!opts.trace_path.empty()) {
    obs::Tracer::Options trace_options;
    trace_options.sample_every = opts.trace_sample;
    // Rings sized for the run: 2,000 requests at 8,000/s over 4 workers on
    // a 4-vCPU host put 6k-15k events on a worker lane (two lifecycle spans
    // per request, a tick span per tick, and a forward span per tick that
    // ran a forward: about one tick in ten, the memo serving the rest), so
    // 32 events per request leaves room for faster ticks. The cap bounds
    // memory (56 bytes a slot); a longer run's trace reports what it
    // dropped.
    trace_options.lane_capacity = std::min<std::size_t>(
        std::max<std::size_t>(trace_options.lane_capacity,
                              static_cast<std::size_t>(opts.requests) * 32),
        std::size_t{1} << 18);
    tracer = std::make_unique<obs::Tracer>(trace_options);
    serve_options.tracer = tracer.get();
  }

  serve::ServerRuntime runtime(&session, serve_options);

  std::printf(
      "serving %d %srequests (rate %s/s, %d workers, queue %d, overload %s, "
      "slack %s, mix %s, %d tenant%s%s)...\n",
      opts.requests, opts.live ? "live " : "",
      opts.rate > 0.0 ? util::FormatDouble(opts.rate, 0).c_str() : "inf",
      runtime.worker_count(), opts.queue_cap, opts.overload.c_str(),
      opts.slack_s > 0.0 ? util::FormatDouble(opts.slack_s, 3).c_str()
                         : "inf",
      opts.class_mix.empty() ? "standard-only" : opts.class_mix.c_str(),
      opts.tenants, opts.tenants == 1 ? "" : "s",
      opts.quota.empty() ? "" : ", quota-limited");

  // Open-loop arrivals: exponential inter-arrival gaps at --rate, paced
  // against the wall clock so service-time jitter never slows admission.
  std::mt19937_64 rng(opts.seed);
  std::exponential_distribution<double> gap(opts.rate > 0.0 ? opts.rate : 1.0);
  std::discrete_distribution<int> class_of(mix.begin(), mix.end());
  // Seeded harmonic tenant skew: tenant t's arrival share is proportional
  // to 1/(t+1), so tenant 0 dominates — the regime quotas are for.
  std::vector<double> tenant_weights;
  for (int t = 0; t < opts.tenants; ++t) {
    tenant_weights.push_back(1.0 / static_cast<double>(t + 1));
  }
  std::discrete_distribution<int> tenant_of(tenant_weights.begin(),
                                            tenant_weights.end());
  util::Timer wall;
  double next_arrival_s = 0.0;
  std::vector<std::future<serve::ServeResult>> futures;
  futures.reserve(static_cast<size_t>(opts.requests));
  for (int r = 0; r < opts.requests; ++r) {
    if (opts.rate > 0.0) {
      next_arrival_s += gap(rng);
      const double ahead = next_arrival_s - wall.ElapsedSeconds();
      if (ahead > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
      }
    }
    serve::ServerRuntime::RequestOptions request;
    request.priority_class = static_cast<serve::PriorityClass>(class_of(rng));
    request.tenant_id = opts.tenants > 1 ? tenant_of(rng) : 0;
    // Live requests run the scene straight from the corpus (no stored id,
    // no replay context); the corpus outlives the runtime, as Live requires.
    const core::WorkItem item =
        opts.live ? core::WorkItem::Live(&dataset.item(r % opts.items).scene)
                  : core::WorkItem::Stored(r % opts.items);
    futures.push_back(runtime.Enqueue(item, request));
  }
  runtime.Drain();
  const double wall_s = wall.ElapsedSeconds();

  // The ledger counts every outcome; the futures only carry the recall.
  util::RunningStat recall;
  for (std::future<serve::ServeResult>& future : futures) {
    const serve::ServeResult result = future.get();
    if (result.ok()) recall.Add(result.outcome.recall);
  }

  const serve::Metrics& metrics = runtime.metrics();
  util::AsciiTable table;
  table.SetHeader({"metric", "value"});
  table.AddRow("wall (s)", {wall_s});
  table.AddRow("completed/s",
               {static_cast<double>(metrics.total.completed.load()) / wall_s});
  table.AddRow("mean recall", {recall.mean()});
  table.Print(std::cout);

  PrintSlices("requests", {{"all", &metrics.total}});
  if (!opts.class_mix.empty()) {
    // The isolation view: how each service band fared.
    Slices classes;
    for (int c = 0; c < serve::kNumPriorityClasses; ++c) {
      const auto cls = static_cast<serve::PriorityClass>(c);
      classes.emplace_back(serve::PriorityClassName(cls),
                           &metrics.for_class(cls));
    }
    PrintSlices("class", classes);
  }
  if (opts.tenants > 1) {
    // The quota-accounting view: how each tenant's traffic fared.
    Slices tenants;
    for (int t = 0; t < opts.tenants; ++t) {
      const serve::RequestMetrics* slice = metrics.find_tenant(t);
      if (slice != nullptr) tenants.emplace_back(std::to_string(t), slice);
    }
    PrintSlices("tenant", tenants);
  }

  const std::string snapshot = runtime.MetricsJson();
  if (!opts.json_path.empty()) {
    std::FILE* out = std::fopen(opts.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
      return 1;
    }
    std::fputs(snapshot.c_str(), out);
    std::fputs("\n", out);
    std::fclose(out);
    std::printf("metrics snapshot written to %s\n", opts.json_path.c_str());
  } else {
    std::printf("%s\n", snapshot.c_str());
  }
  if (tracer != nullptr) {
    std::ofstream trace_out(opts.trace_path);
    if (!trace_out) {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_path.c_str());
      return 1;
    }
    const std::vector<obs::TraceEvent> events = tracer->Collect();
    const std::uint64_t dropped = tracer->TotalDropped();
    obs::ChromeTraceSink(dropped).Write(events, trace_out);
    std::printf("trace written to %s (%zu events, %llu dropped)\n",
                opts.trace_path.c_str(), events.size(),
                static_cast<unsigned long long>(dropped));
  }
  runtime.Shutdown();
  return 0;
}
