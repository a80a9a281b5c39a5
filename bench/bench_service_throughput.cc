// Execution-plane throughput benchmark: labels one fixed stored workload
// through LabelingService::SubmitBatch in both kernel modes — full result
// materialization and the lean recall-only path — and emits a
// machine-readable BENCH_throughput.json baseline next to the
// human-readable table.
//
// Both configurations must produce identical labeling outcomes (summed
// recall and execution counts are asserted); the kernel mode trades only
// cost.
// The workload is Algorithm 2 (deadline + memory) driven by an untrained
// DQN-architecture agent: the forward-pass and materialization costs are
// those of a trained agent, while setup stays in milliseconds.

#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "util/check.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace ams;

struct BenchConfig {
  std::string name;
  core::KernelMode kernel_mode;
};

struct BenchResult {
  BenchConfig config;
  /// Best (minimum) wall time of any trial: robust against machine noise,
  /// the standard protocol for throughput benches on shared hardware.
  double wall_s = 0.0;
  double items_per_s = 0.0;
  double recall_sum = 0.0;
  long executions = 0;
};

void Run() {
  const int num_items = bench::EnvInt("AMS_BENCH_ITEMS", 400);
  const int repeats = bench::EnvInt("AMS_BENCH_REPEATS", 7);
  // <= 0: hardware concurrency (the builder resolves it).
  int workers = bench::EnvInt("AMS_BENCH_WORKERS", 0);
  if (workers <= 0) workers = util::ThreadPool::DefaultThreads();
  // Default to the densest-label profile: the more valuable labels a
  // workload yields, the more decision points and label-state growth per
  // item — the regime the lean kernel mode exists for.
  const char* profile_env = std::getenv("AMS_BENCH_PROFILE");
  const std::string profile_name =
      profile_env != nullptr ? profile_env : "stanford40";

  zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  const data::DatasetProfile profile =
      data::DatasetProfile::ByName(profile_name);
  data::Dataset dataset =
      data::Dataset::Generate(profile, zoo.labels(), num_items, /*seed=*/11);
  data::Oracle oracle(&zoo, &dataset);

  // Untrained agent with the paper's architecture: identical per-decision
  // cost to a trained one, deterministic decisions for free.
  const int hidden = bench::EnvInt("AMS_BENCH_HIDDEN", 256);
  const int depth = bench::EnvInt("AMS_BENCH_DEPTH", 1);
  nn::MlpConfig net_config;
  net_config.input_dim = zoo.labels().total_labels();
  net_config.hidden_dims.assign(static_cast<size_t>(depth), hidden);
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

  const std::vector<BenchConfig> configs = {
      {"full", core::KernelMode::kFull},
      {"lean", core::KernelMode::kLean},
  };

  std::vector<std::unique_ptr<core::LabelingService>> services;
  std::vector<BenchResult> results;
  for (const BenchConfig& config : configs) {
    services.push_back(std::make_unique<core::LabelingService>(
        core::LabelingServiceBuilder(&zoo)
            .WithOracle(&oracle)
            .WithPredictor(&agent)
            .WithMode(core::ExecutionMode::kParallel)
            .WithConstraints(constraints)
            .WithKernelMode(config.kernel_mode)
            .WithWorkers(workers)
            .Build()));
    BenchResult result;
    result.config = config;
    result.wall_s = std::numeric_limits<double>::infinity();
    results.push_back(result);
    // Warm-up pass: touches every code path once and builds the session's
    // per-worker predictor clones.
    services.back()->SubmitBatch(work);
  }

  // Trials interleave the configurations round-robin so machine noise
  // (frequency drift, co-tenants) hits every config alike; each config
  // reports its best trial.
  for (int r = 0; r < repeats; ++r) {
    for (size_t c = 0; c < configs.size(); ++c) {
      BenchResult& result = results[c];
      const bool first_trial = r == 0;
      util::Timer timer;
      const std::vector<core::LabelOutcome> outcomes =
          services[c]->SubmitBatch(work);
      result.wall_s = std::min(result.wall_s, timer.ElapsedSeconds());
      if (first_trial) {
        for (const core::LabelOutcome& outcome : outcomes) {
          result.recall_sum += outcome.recall;
          result.executions += outcome.schedule.num_executions;
        }
      }
    }
  }
  for (BenchResult& result : results) {
    result.items_per_s = static_cast<double>(num_items) / result.wall_s;
  }

  // Both configurations label identically: the kernel mode changes cost,
  // never outcomes.
  for (const BenchResult& result : results) {
    AMS_CHECK(std::abs(result.recall_sum - results[0].recall_sum) < 1e-9,
              "config '" + result.config.name + "' changed recall");
    AMS_CHECK(result.executions == results[0].executions,
              "config '" + result.config.name + "' changed the schedule");
  }

  bench::Banner("Service throughput — kernel modes (" +
                std::to_string(num_items) + " items, best of " +
                std::to_string(repeats) + " interleaved trials, " +
                std::to_string(workers) + " workers)");
  util::AsciiTable table;
  table.SetHeader({"config", "best wall (s)", "items/s", "speedup"});
  for (const BenchResult& result : results) {
    table.AddRow(result.config.name,
                 {result.wall_s, result.items_per_s,
                  result.items_per_s / results[0].items_per_s});
  }
  table.Print(std::cout);

  std::ofstream json("BENCH_throughput.json");
  AMS_CHECK(json.good(), "cannot open BENCH_throughput.json for writing");
  json << "{\n";
  json << "  \"workload\": {\"profile\": \"" << profile.name
       << "\", \"items\": " << num_items << ", \"repeats\": " << repeats
       << ", \"workers\": " << workers
       << ", \"models\": " << zoo.num_models()
       << ", \"labels\": " << zoo.labels().total_labels()
       << ", \"deadline_s\": " << constraints.time_budget_s
       << ", \"memory_mb\": " << constraints.memory_budget_mb << "},\n";
  json << "  \"configs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& result = results[i];
    json << "    {\"name\": \"" << result.config.name << "\", \"kernel_mode\": \""
         << (result.config.kernel_mode == core::KernelMode::kLean ? "lean"
                                                                  : "full")
         << "\", \"wall_s\": " << result.wall_s
         << ", \"items_per_s\": " << result.items_per_s
         << ", \"speedup_vs_full\": "
         << result.items_per_s / results[0].items_per_s << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nwrote BENCH_throughput.json\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
