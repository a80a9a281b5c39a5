// ams_label — command-line front end for the whole pipeline: generate a
// corpus, train (or load) a DRL agent, and label items through a
// core::LabelingService session under resource constraints, reporting the
// value/recall/compute trade-off.
//
// Usage:
//   ams_label [--dataset NAME] [--scheme dqn|double|dueling|sarsa]
//             [--policy NAME] [--items N] [--episodes N] [--hidden N]
//             [--seed N] [--deadline SECONDS] [--memory GB] [--label N]
//             [--workers N] [--cache DIR] [--csv PATH]
//
// With neither `--policy` nor `--memory` it runs Algorithm 1: a serial
// session over the trained agent. `--policy` runs any sched::PolicyRegistry
// name instead, serially (q_greedy reads Q from the trained agent; the
// other policies need no agent); `--memory` switches to Algorithm 2
// (parallel scheduling under deadline + memory). The corpus needs at least
// two items: a fifth of it, and at least one item, is the training split,
// and only the rest is labeled.
//
// Examples:
//   ams_label --dataset mirflickr25 --deadline 0.5 --label 200
//   ams_label --dataset voc2012 --deadline 1.0 --memory 8 --label 100
//   ams_label --dataset mscoco --policy random --deadline 0.5

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "eval/agent_cache.h"
#include "rl/trainer.h"
#include "sched/policy_registry.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace ams;

struct Options {
  std::string dataset = "mscoco";
  std::string scheme = "dueling";
  std::string policy;  // empty: Algorithm 1 over the agent
  int items = 1500;
  int episodes = 1200;
  int hidden = 128;
  uint64_t seed = 7;
  double deadline = 1.0;
  double memory_gb = 0.0;  // 0 = serial scheduling (Algorithm 1)
  int label_count = 200;
  /// Default 1: results must reproduce for a fixed --seed regardless of the
  /// machine's core count (the batch partition and per-worker policy seeds
  /// depend on the worker count). Opt into fan-out explicitly.
  int workers = 1;
  std::string cache_dir = "artifacts/agents";
  std::string csv_path;
};

[[noreturn]] void Usage(const char* argv0) {
  std::string policies;
  for (const std::string& name : sched::PolicyRegistry::Names()) {
    if (!policies.empty()) policies += "|";
    policies += name;
  }
  std::fprintf(stderr,
               "usage: %s [--dataset mscoco|places365|mirflickr25|stanford40|"
               "voc2012]\n"
               "          [--scheme dqn|double|dueling|sarsa]\n"
               "          [--policy %s]  (default: Algorithm 1)\n"
               "          [--items N] [--episodes N] [--hidden N] [--seed N]\n"
               "          [--deadline S] [--memory GB] [--label N]\n"
               "          [--workers N] [--cache DIR] [--csv PATH]\n",
               argv0, policies.c_str());
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
    } else if (!std::strcmp(argv[i], "--scheme")) {
      opts.scheme = next();
    } else if (!std::strcmp(argv[i], "--policy")) {
      opts.policy = next();
    } else if (!std::strcmp(argv[i], "--items")) {
      opts.items = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--episodes")) {
      opts.episodes = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--hidden")) {
      opts.hidden = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--seed")) {
      opts.seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (!std::strcmp(argv[i], "--deadline")) {
      opts.deadline = std::atof(next());
    } else if (!std::strcmp(argv[i], "--memory")) {
      opts.memory_gb = std::atof(next());
    } else if (!std::strcmp(argv[i], "--label")) {
      opts.label_count = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--workers")) {
      opts.workers = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--cache")) {
      opts.cache_dir = next();
    } else if (!std::strcmp(argv[i], "--csv")) {
      opts.csv_path = next();
    } else {
      Usage(argv[0]);
    }
  }
  // Out-of-range numbers are usage errors, caught before the corpus is
  // built: past this point they abort in the corpus, trainer or kernel.
  // Dataset::Split keeps max(1, items / 5) items for training, so a 1-item
  // corpus would leave nothing to label.
  if (opts.items < 2) {
    std::fprintf(stderr,
                 "--items must be >= 2 (the training split takes at least "
                 "one item; the rest is labeled)\n");
    Usage(argv[0]);
  }
  if (opts.episodes < 1) {
    std::fprintf(stderr, "--episodes must be >= 1\n");
    Usage(argv[0]);
  }
  if (opts.hidden < 1) {
    std::fprintf(stderr, "--hidden must be >= 1\n");
    Usage(argv[0]);
  }
  // ScheduleConstraints' own rules (also catches NaN); inf = no budget.
  if (!(opts.deadline >= 0.0)) {
    std::fprintf(stderr, "--deadline must be a number of seconds >= 0\n");
    Usage(argv[0]);
  }
  if (!(opts.memory_gb >= 0.0)) {
    std::fprintf(stderr,
                 "--memory must be a number of GB >= 0 (0 = Algorithm 1)\n");
    Usage(argv[0]);
  }
  if (opts.label_count < 1) {
    std::fprintf(stderr, "--label must be >= 1\n");
    Usage(argv[0]);
  }
  if (opts.policy.empty()) return opts;
  if (!sched::PolicyRegistry::Contains(opts.policy)) {
    std::fprintf(stderr, "unknown policy: %s\n", opts.policy.c_str());
    Usage(argv[0]);
  }
  if (opts.memory_gb > 0.0) {
    std::fprintf(stderr,
                 "--policy selects a serial policy; --memory runs Algorithm 2 "
                 "(predictor-driven). Pick one.\n");
    Usage(argv[0]);
  }
  if (sched::PolicyRegistry::Traits(opts.policy).needs_chunked_stream) {
    std::fprintf(stderr,
                 "policy '%s' needs a chunked stream; this tool generates "
                 "i.i.d. corpora (see examples/video_surveillance).\n",
                 opts.policy.c_str());
    Usage(argv[0]);
  }
  return opts;
}

rl::DrlScheme SchemeFromName(const std::string& name) {
  if (name == "dqn") return rl::DrlScheme::kDqn;
  if (name == "double") return rl::DrlScheme::kDoubleDqn;
  if (name == "dueling") return rl::DrlScheme::kDuelingDqn;
  if (name == "sarsa") return rl::DrlScheme::kDeepSarsa;
  std::fprintf(stderr, "unknown scheme: %s\n", name.c_str());
  std::exit(2);
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

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Parse(argc, argv);

  std::printf("building zoo + %s corpus (%d items, seed %llu)...\n",
              opts.dataset.c_str(), opts.items,
              static_cast<unsigned long long>(opts.seed));
  const zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  const data::Dataset dataset = data::Dataset::Generate(
      ProfileFromName(opts.dataset), zoo.labels(), opts.items, opts.seed);
  const data::Oracle oracle(&zoo, &dataset);

  // Only Q-driven scheduling consults the agent; baselines like random or
  // rule_based skip training entirely.
  const bool needs_agent =
      opts.policy.empty() ||
      sched::PolicyRegistry::Traits(opts.policy).needs_predictor;
  std::unique_ptr<rl::Agent> agent;
  if (needs_agent) {
    eval::AgentCache cache(opts.cache_dir);
    eval::AgentRequest request;
    request.key = opts.dataset + "_" + opts.scheme + "_i" +
                  std::to_string(opts.items) + "_e" +
                  std::to_string(opts.episodes) + "_h" +
                  std::to_string(opts.hidden) + "_s" +
                  std::to_string(opts.seed);
    request.oracle = &oracle;
    request.config.scheme = SchemeFromName(opts.scheme);
    request.config.hidden_dim = opts.hidden;
    request.config.episodes = opts.episodes;
    request.config.eps_decay_steps = opts.episodes * 4;
    request.config.seed = opts.seed;
    std::printf("training/loading agent %s...\n", request.key.c_str());
    agent = cache.GetOrTrain(request);
  }

  // One labeling session for the whole run, built from the command line.
  core::ScheduleConstraints constraints;
  constraints.time_budget_s = opts.deadline;
  core::LabelingServiceBuilder builder(&zoo);
  builder.WithOracle(&oracle)
      .WithKernelMode(core::KernelMode::kLean)
      .WithConstraints(constraints)
      .WithWorkers(opts.workers)
      .WithSeed(opts.seed);
  if (opts.memory_gb > 0.0) {
    constraints.memory_budget_mb = opts.memory_gb * 1024.0;
    builder.WithConstraints(constraints)
        .WithMode(core::ExecutionMode::kParallel)
        .WithPredictor(agent.get());
    std::printf(
        "scheduling with Algorithm 2 (deadline %.2f s, memory %.0f GB)...\n",
        opts.deadline, opts.memory_gb);
  } else if (opts.policy.empty()) {
    builder.WithMode(core::ExecutionMode::kSerial).WithPredictor(agent.get());
    std::printf("scheduling with Algorithm 1 (deadline %.2f s)...\n",
                opts.deadline);
  } else {
    sched::PolicyOptions policy_options;
    policy_options.seed = opts.seed;
    builder.WithMode(core::ExecutionMode::kSerial)
        .WithPolicy(opts.policy, policy_options);
    if (agent != nullptr) builder.WithPredictor(agent.get());
    std::printf("scheduling with policy '%s' (deadline %.2f s)...\n",
                opts.policy.c_str(), opts.deadline);
  }
  core::LabelingService service = builder.Build();

  const std::vector<int>& test = dataset.test_indices();
  const int n = std::min<int>(opts.label_count, static_cast<int>(test.size()));
  std::printf("labeling %d items over %d workers...\n", n,
              service.worker_count());
  std::vector<core::WorkItem> work;
  work.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    work.push_back(core::WorkItem::Stored(test[static_cast<size_t>(i)]));
  }
  const std::vector<core::LabelOutcome> outcomes = service.SubmitBatch(work);

  util::RunningStat recall, models, sim_time;
  std::vector<std::vector<std::string>> csv_rows;
  for (int i = 0; i < n; ++i) {
    const core::LabelOutcome& outcome = outcomes[static_cast<size_t>(i)];
    const int executed = outcome.schedule.num_executions;
    recall.Add(outcome.recall);
    models.Add(executed);
    sim_time.Add(outcome.schedule.makespan_s);
    csv_rows.push_back({std::to_string(work[static_cast<size_t>(i)].item),
                        util::FormatDouble(outcome.recall, 4),
                        std::to_string(executed),
                        util::FormatDouble(outcome.schedule.makespan_s, 4)});
  }

  util::AsciiTable report;
  report.SetHeader({"metric", "mean", "min", "max"});
  report.AddRow("value recall", {recall.mean(), recall.min(), recall.max()});
  report.AddRow("models executed",
                {models.mean(), models.min(), models.max()});
  report.AddRow("simulated time (s)",
                {sim_time.mean(), sim_time.min(), sim_time.max()});
  report.Print(std::cout);
  std::printf("compute saved vs no-policy: %.1f%%\n",
              100.0 * (1.0 - sim_time.mean() / zoo.TotalTimeSeconds()));

  if (!opts.csv_path.empty()) {
    util::WriteCsv(opts.csv_path, {"item", "recall", "models", "time_s"},
                   csv_rows);
    std::printf("per-item results written to %s\n", opts.csv_path.c_str());
  }
  return 0;
}
