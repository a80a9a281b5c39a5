// Serving-runtime throughput benchmark: labels one fixed stored workload
// twice at equal worker counts — through the closed-loop batch entry point
// (LabelingService::SubmitBatch) and through the asynchronous
// serve::ServerRuntime (enqueue everything, Drain) — and emits a
// machine-readable BENCH_serve.json baseline next to the human-readable
// table. The serve runtime must sustain at least SubmitBatch throughput:
// SubmitBatch labels each worker's statically partitioned items one at a
// time, while the runtime's workers multiplex a continuously refilled,
// queue-balanced resident set behind one batched, memoized Q-forward per
// tick, which is what pays for the queue/future overhead per item.
//
// Both paths must label identically (summed recall and execution counts are
// asserted): the runtime changes scheduling cost, never outcomes. The
// workload is Algorithm 2 (deadline + memory) driven by an untrained
// DQN-architecture agent, as in bench_service_throughput.
//
// A third scenario replays the same workload through the runtime with a
// seeded 20/60/20 interactive/standard/batch priority-class mix: classes
// reorder admission (weighted round-robin between bands) but items are
// independent, so the label results must again be identical, and the
// mixed-class throughput must stay within noise of the single-class run —
// the multi-tenant scheduler's bookkeeping is a few integer ops per pop.
//
// A fourth scenario replays the workload as a skewed tenant mix (4 tenants,
// ~70/10/10/10 seeded shares) under per-tenant queued quotas (kBlock
// backpressure, so nothing is dropped and the outcome assertions still
// hold): tenant accounting on every enqueue and pop. Its throughput is
// reported relative to the plain serve run (quota backpressure on the
// enqueue thread costs a little).

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "serve/server_runtime.h"
#include "util/check.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace ams;

struct BenchResult {
  std::string name;
  /// Best (minimum) wall time of any trial: robust against machine noise,
  /// the standard protocol for throughput benches on shared hardware.
  double wall_s = std::numeric_limits<double>::infinity();
  double items_per_s = 0.0;
  double recall_sum = 0.0;
  long executions = 0;
};

void Run() {
  const int num_items = bench::EnvInt("AMS_BENCH_ITEMS", 400);
  const int repeats = bench::EnvInt("AMS_BENCH_REPEATS", 7);
  int workers = bench::EnvInt("AMS_BENCH_WORKERS", 2);
  if (workers <= 0) workers = util::ThreadPool::DefaultThreads();
  const char* profile_env = std::getenv("AMS_BENCH_PROFILE");
  const data::DatasetProfile profile = data::DatasetProfile::ByName(
      profile_env != nullptr ? profile_env : "stanford40");

  zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  data::Dataset dataset =
      data::Dataset::Generate(profile, zoo.labels(), num_items, /*seed=*/11);
  data::Oracle oracle(&zoo, &dataset);

  const int hidden = bench::EnvInt("AMS_BENCH_HIDDEN", 256);
  nn::MlpConfig net_config;
  net_config.input_dim = zoo.labels().total_labels();
  net_config.hidden_dims = {hidden};
  net_config.output_dim = zoo.num_models() + 1;
  rl::Agent agent(std::make_unique<nn::Mlp>(net_config, /*seed=*/5),
                  nn::NetKind::kMlp);

  core::ScheduleConstraints constraints;
  constraints.time_budget_s = bench::EnvInt("AMS_BENCH_DEADLINE_MS", 2000) / 1000.0;
  constraints.memory_budget_mb = bench::EnvInt("AMS_BENCH_MEM_MB", 8000);

  std::vector<core::WorkItem> work;
  work.reserve(static_cast<size_t>(num_items));
  for (int i = 0; i < num_items; ++i) {
    work.push_back(core::WorkItem::Stored(i));
  }

  // Both paths run the identical session configuration: the lean kernel,
  // the recall-accounting serving regime.
  const auto build_session = [&](int session_workers) {
    return core::LabelingServiceBuilder(&zoo)
        .WithOracle(&oracle)
        .WithPredictor(&agent)
        .WithMode(core::ExecutionMode::kParallel)
        .WithConstraints(constraints)
        .WithKernelMode(core::KernelMode::kLean)
        .WithWorkers(session_workers)
        .Build();
  };
  core::LabelingService batch_session = build_session(workers);
  core::LabelingService serve_session = build_session(workers);
  core::LabelingService mixed_session = build_session(workers);
  core::LabelingService tenant_session = build_session(workers);

  serve::ServeOptions serve_options;
  serve_options.workers = workers;
  serve_options.queue_capacity = num_items;  // closed burst fits entirely
  serve_options.overload = serve::OverloadPolicy::kBlock;
  serve_options.max_resident_per_worker =
      bench::EnvInt("AMS_BENCH_RESIDENT", serve_options.max_resident_per_worker);
  serve::ServerRuntime runtime(&serve_session, serve_options);
  serve::ServerRuntime mixed_runtime(&mixed_session, serve_options);

  // The skewed-tenant scenario: per-tenant queued quotas under kBlock
  // (backpressure, never drops — the outcome assertions stay exact).
  serve::ServeOptions tenant_options = serve_options;
  serve::TenantQuota tenant_quota;
  tenant_quota.max_queued = std::max(8, num_items / 8);
  tenant_options.tenant_quotas.default_quota = tenant_quota;
  serve::ServerRuntime tenant_runtime(&tenant_session, tenant_options);

  // Per-request admission options of each scenario, fixed across trials:
  // all defaults, a seeded 20/60/20 class assignment, and a seeded
  // ~70/10/10/10 tenant assignment.
  using Requests = std::vector<serve::ServerRuntime::RequestOptions>;
  const Requests plain_requests(work.size());
  Requests mixed_requests(work.size());
  {
    std::mt19937_64 class_rng(17);
    std::discrete_distribution<int> class_of({2.0, 6.0, 2.0});
    for (serve::ServerRuntime::RequestOptions& request : mixed_requests) {
      request.priority_class =
          static_cast<serve::PriorityClass>(class_of(class_rng));
    }
  }
  Requests tenant_requests(work.size());
  {
    std::mt19937_64 tenant_rng(23);
    std::discrete_distribution<int> tenant_of({7.0, 1.0, 1.0, 1.0});
    for (serve::ServerRuntime::RequestOptions& request : tenant_requests) {
      request.tenant_id = tenant_of(tenant_rng);
    }
  }

  BenchResult batch_result;
  batch_result.name = "submit_batch";
  BenchResult serve_result;
  serve_result.name = "serve_runtime";
  BenchResult mixed_result;
  mixed_result.name = "serve_runtime_mixed";
  BenchResult tenant_result;
  tenant_result.name = "serve_runtime_tenants";

  const auto run_batch = [&](bool record) {
    util::Timer timer;
    const std::vector<core::LabelOutcome> outcomes =
        batch_session.SubmitBatch(work);
    const double wall = timer.ElapsedSeconds();
    if (!record) return;
    batch_result.wall_s = std::min(batch_result.wall_s, wall);
    if (batch_result.executions == 0) {
      for (const core::LabelOutcome& outcome : outcomes) {
        batch_result.recall_sum += outcome.recall;
        batch_result.executions += outcome.schedule.num_executions;
      }
    }
  };
  const auto run_serve = [&](serve::ServerRuntime* target,
                             BenchResult* result_out,
                             const Requests& requests, bool record) {
    std::vector<std::future<serve::ServeResult>> futures;
    futures.reserve(work.size());
    util::Timer timer;
    for (size_t i = 0; i < work.size(); ++i) {
      futures.push_back(target->Enqueue(work[i], requests[i]));
    }
    target->Drain();
    const double wall = timer.ElapsedSeconds();
    if (!record) return;
    result_out->wall_s = std::min(result_out->wall_s, wall);
    if (result_out->executions == 0) {
      for (std::future<serve::ServeResult>& future : futures) {
        const serve::ServeResult result = future.get();
        AMS_CHECK(result.ok(), "closed-burst serve run dropped an item");
        result_out->recall_sum += result.outcome.recall;
        result_out->executions += result.outcome.schedule.num_executions;
      }
    }
  };

  // Warm-up every path (predictor clone pools, allocator), then interleave
  // trials so machine noise hits all alike; each reports its best trial.
  run_batch(false);
  run_serve(&runtime, &serve_result, plain_requests, false);
  run_serve(&mixed_runtime, &mixed_result, mixed_requests, false);
  run_serve(&tenant_runtime, &tenant_result, tenant_requests, false);
  for (int r = 0; r < repeats; ++r) {
    run_batch(true);
    run_serve(&runtime, &serve_result, plain_requests, true);
    run_serve(&mixed_runtime, &mixed_result, mixed_requests, true);
    run_serve(&tenant_runtime, &tenant_result, tenant_requests, true);
  }
  batch_result.items_per_s =
      static_cast<double>(num_items) / batch_result.wall_s;
  serve_result.items_per_s =
      static_cast<double>(num_items) / serve_result.wall_s;
  mixed_result.items_per_s =
      static_cast<double>(num_items) / mixed_result.wall_s;
  tenant_result.items_per_s =
      static_cast<double>(num_items) / tenant_result.wall_s;

  AMS_CHECK(std::abs(serve_result.recall_sum - batch_result.recall_sum) < 1e-9,
            "serve runtime changed recall vs SubmitBatch");
  AMS_CHECK(serve_result.executions == batch_result.executions,
            "serve runtime changed the schedules vs SubmitBatch");
  AMS_CHECK(std::abs(mixed_result.recall_sum - batch_result.recall_sum) < 1e-9,
            "priority classes changed recall vs SubmitBatch");
  AMS_CHECK(mixed_result.executions == batch_result.executions,
            "priority classes changed the schedules vs SubmitBatch");
  AMS_CHECK(std::abs(tenant_result.recall_sum - batch_result.recall_sum) <
                1e-9,
            "tenant quotas changed recall vs SubmitBatch");
  AMS_CHECK(tenant_result.executions == batch_result.executions,
            "tenant quotas changed the schedules vs SubmitBatch");

  const double ratio = serve_result.items_per_s / batch_result.items_per_s;
  const double mixed_ratio =
      mixed_result.items_per_s / batch_result.items_per_s;
  const double tenant_ratio =
      tenant_result.items_per_s / batch_result.items_per_s;
  bench::Banner("Serve runtime vs SubmitBatch (" + std::to_string(num_items) +
                " items, best of " + std::to_string(repeats) +
                " interleaved trials, " + std::to_string(workers) +
                " workers)");
  util::AsciiTable table;
  table.SetHeader({"path", "best wall (s)", "items/s", "vs submit_batch"});
  table.AddRow(batch_result.name,
               {batch_result.wall_s, batch_result.items_per_s, 1.0});
  table.AddRow(serve_result.name,
               {serve_result.wall_s, serve_result.items_per_s, ratio});
  table.AddRow(mixed_result.name,
               {mixed_result.wall_s, mixed_result.items_per_s, mixed_ratio});
  table.AddRow(tenant_result.name,
               {tenant_result.wall_s, tenant_result.items_per_s,
                tenant_ratio});
  table.Print(std::cout);

  std::ofstream json("BENCH_serve.json");
  AMS_CHECK(json.good(), "cannot open BENCH_serve.json for writing");
  json << "{\n";
  json << "  \"workload\": {\"profile\": \"" << profile.name
       << "\", \"items\": " << num_items << ", \"repeats\": " << repeats
       << ", \"workers\": " << workers << ", \"models\": " << zoo.num_models()
       << ", \"labels\": " << zoo.labels().total_labels()
       << ", \"deadline_s\": " << constraints.time_budget_s
       << ", \"memory_mb\": " << constraints.memory_budget_mb
       << ", \"resident_per_worker\": "
       << runtime.options().max_resident_per_worker << "},\n";
  json << "  \"configs\": [\n";
  json << "    {\"name\": \"submit_batch\", \"wall_s\": " << batch_result.wall_s
       << ", \"items_per_s\": " << batch_result.items_per_s
       << ", \"speedup_vs_submit_batch\": 1},\n";
  json << "    {\"name\": \"serve_runtime\", \"wall_s\": " << serve_result.wall_s
       << ", \"items_per_s\": " << serve_result.items_per_s
       << ", \"speedup_vs_submit_batch\": " << ratio << "},\n";
  json << "    {\"name\": \"serve_runtime_mixed\", \"wall_s\": "
       << mixed_result.wall_s
       << ", \"items_per_s\": " << mixed_result.items_per_s
       << ", \"speedup_vs_submit_batch\": " << mixed_ratio << "},\n";
  json << "    {\"name\": \"serve_runtime_tenants\", \"wall_s\": "
       << tenant_result.wall_s
       << ", \"items_per_s\": " << tenant_result.items_per_s
       << ", \"speedup_vs_submit_batch\": " << tenant_ratio << "}\n";
  json << "  ],\n";
  json << "  \"serve_vs_submit_ratio\": " << ratio << ",\n";
  json << "  \"mixed_vs_single_class_ratio\": "
       << mixed_result.items_per_s / serve_result.items_per_s << ",\n";
  json << "  \"tenant_vs_single_class_ratio\": "
       << tenant_result.items_per_s / serve_result.items_per_s << "\n";
  json << "}\n";
  std::cout << "\nwrote BENCH_serve.json (serve/submit ratio " << ratio
            << ", mixed/single-class ratio "
            << mixed_result.items_per_s / serve_result.items_per_s
            << ", tenant/single-class ratio "
            << tenant_result.items_per_s / serve_result.items_per_s << ")\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
