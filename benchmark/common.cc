#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>

#include "data/dataset_profile.h"
#include "nn/net.h"
#include "nn/simd.h"
#include "util/clock.h"

#ifndef AMS_BENCH_COMPILER
#define AMS_BENCH_COMPILER "unknown"
#endif
#ifndef AMS_BENCH_BUILD_TYPE
#define AMS_BENCH_BUILD_TYPE "unknown"
#endif

namespace amsbench {

using namespace ams;

namespace {

// Albums hold 2,048 items, so labeling one takes tens of milliseconds and
// spans many of the host's scheduling slices. With 256-item albums (a few
// milliseconds), one preempted vCPU set an album's time: under simulated
// steal, album_p50_ms rose 46-70% against 18-38% with 2,048 items, while
// throughput fell 5-24% either way.
const WorkloadSpec kWorkloads[] = {
    {"offline_batch", Shape::kOfflineBatch, 50000, 2048},
    {"album_hot", Shape::kAlbums, 400, 2048},
    {"album_cold", Shape::kAlbums, 50000, 2048},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += "|";
    names += spec.name;
  }
  return names;
}

World BuildCorpus(const WorkloadSpec& spec, uint64_t seed) {
  World world;
  world.zoo = std::make_unique<zoo::ModelZoo>(zoo::ModelZoo::CreateDefault());
  world.dataset = std::make_unique<data::Dataset>(data::Dataset::Generate(
      data::DatasetProfile::MsCoco(), world.zoo->labels(), spec.corpus_items,
      seed));
  world.oracle =
      std::make_unique<data::Oracle>(world.zoo.get(), world.dataset.get());
  return world;
}

void BuildAgent(World* world) {
  nn::MlpConfig net_config;
  net_config.input_dim = world->zoo->labels().total_labels();
  net_config.hidden_dims = {kHidden};
  net_config.output_dim = world->zoo->num_models() + 1;
  world->agent = std::make_unique<rl::Agent>(
      std::make_unique<nn::Mlp>(net_config, kNetSeed), nn::NetKind::kMlp);
}

core::LabelingService BuildSession(const World& world, int workers,
                                   core::ModelValuePredictor* predictor) {
  core::ScheduleConstraints constraints;
  constraints.time_budget_s = kDeadlineS;
  constraints.memory_budget_mb = kMemoryGb * 1024.0;
  return core::LabelingServiceBuilder(world.zoo.get())
      .WithOracle(world.oracle.get())
      .WithPredictor(predictor != nullptr ? predictor : world.agent.get())
      .WithMode(core::ExecutionMode::kParallel)
      .WithConstraints(constraints)
      .WithKernelMode(core::KernelMode::kLean)
      .WithWorkers(workers)
      .Build();
}

ItemSequence::ItemSequence(const WorkloadSpec& spec, uint64_t seed)
    : corpus_items_(spec.corpus_items) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  cursor_ = static_cast<long>(rng() % static_cast<uint64_t>(corpus_items_));
}

void ItemSequence::NextAlbum(int size, std::vector<int>* out) {
  out->clear();
  for (int i = 0; i < size; ++i) out->push_back(NextItem());
}

int ItemSequence::NextItem() {
  return static_cast<int>(cursor_++ % corpus_items_);
}

OutcomeLedger::OutcomeLedger(int corpus_items)
    : entries_(static_cast<size_t>(corpus_items)) {}

void OutcomeLedger::Record(int item, const core::LabelOutcome& outcome) {
  Entry& entry = entries_[static_cast<size_t>(item)];
  if (!entry.seen) {
    entry.seen = true;
    entry.recall = outcome.recall;
    entry.executions = outcome.schedule.num_executions;
    return;
  }
  if (!Same(entry, outcome)) Mismatch(item, "served twice, outcomes differ");
}

long OutcomeLedger::Check(const World& world) {
  // differs[i]: item i's reference outcome differs; each thread writes only
  // its own items' slots.
  std::vector<char> differs(entries_.size(), 0);
  std::vector<long> checked(kWorkers, 0);
  // Submit decides from the session's predictor itself, so every thread
  // gets its own copy of the agent.
  std::vector<std::unique_ptr<core::ModelValuePredictor>> predictors;
  for (int t = 0; t < kWorkers; ++t) {
    predictors.push_back(world.agent->ClonePredictor());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      core::LabelingService reference =
          BuildSession(world, 1, predictors[static_cast<size_t>(t)].get());
      for (size_t i = static_cast<size_t>(t); i < entries_.size();
           i += kWorkers) {
        if (!entries_[i].seen) continue;
        const core::LabelOutcome expected =
            reference.Submit(core::WorkItem::Stored(static_cast<int>(i)));
        differs[i] = !Same(entries_[i], expected);
        ++checked[static_cast<size_t>(t)];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < differs.size(); ++i) {
    if (differs[i]) Mismatch(static_cast<int>(i), "differs from Submit");
  }
  long total = 0;
  for (long n : checked) total += n;
  return total;
}

bool OutcomeLedger::Same(const Entry& entry,
                         const core::LabelOutcome& outcome) {
  // Bit for bit: a recall that merely rounds the same is still a change.
  return std::memcmp(&entry.recall, &outcome.recall, sizeof(double)) == 0 &&
         entry.executions == outcome.schedule.num_executions;
}

void OutcomeLedger::Mismatch(int item, const char* what) {
  ++mismatch_count_;
  if (mismatches_.size() < 20) {
    mismatches_.push_back("item " + std::to_string(item) + ": " + what);
  }
}

double Now() { return util::Clock::Monotonic().NowSeconds(); }

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = p / 100.0 * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*values)[lo] + frac * ((*values)[hi] - (*values)[lo]);
}

double Median(std::vector<double> values) { return Percentile(&values, 50); }

namespace {

double RusageCpuS(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

}  // namespace

double ProcessCpuS() { return RusageCpuS(RUSAGE_SELF); }
double ThreadCpuS() { return RusageCpuS(RUSAGE_THREAD); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

Json& Json::Num(const std::string& key, double value) {
  fields_.emplace_back(key, Number(value));
  return *this;
}

Json& Json::Int(const std::string& key, long value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Json& Json::Obj(const std::string& key, const Json& value) {
  fields_.emplace_back(key, value.Dump());
  return *this;
}

Json& Json::StrList(const std::string& key,
                    const std::vector<std::string>& values) {
  std::string list = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) list += ", ";
    list += Quote(values[i]);
  }
  fields_.emplace_back(key, list + "]");
  return *this;
}

std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

Json MetricsJson(const MetricMap& metrics) {
  Json json;
  for (const auto& [name, metric] : metrics) {
    Json entry;
    entry.Num("value", metric.value).Str("unit", metric.unit);
    if (metric.samples >= 0) entry.Int("samples", metric.samples);
    json.Obj(name, entry);
  }
  return json;
}

CommonArgs ParseArgs(int argc, char** argv, const char* usage) {
  CommonArgs args;
  const auto fail = [&](const char* why) {
    std::fprintf(stderr, "%s\nusage: %s %s\n  workloads: %s\n", why, argv[0],
                 usage, WorkloadNames().c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) fail("missing flag value");
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--workload")) {
      args.spec = FindWorkload(next());
      if (args.spec == nullptr) fail("unknown workload");
    } else if (!std::strcmp(argv[i], "--seed")) {
      args.seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seconds")) {
      args.seconds = std::atof(next());
    } else if (!std::strcmp(argv[i], "--trace")) {
      args.trace = true;
    } else if (!std::strcmp(argv[i], "--out")) {
      args.out = next();
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      args.trace_out = next();
    } else if (!std::strcmp(argv[i], "--rev")) {
      args.rev = next();
    } else {
      fail("unknown flag");
    }
  }
  if (args.spec == nullptr) fail("--workload is required");
  if (!(args.seconds >= 1.0 && args.seconds <= 600.0)) {
    fail("--seconds must be in [1, 600]");
  }
  if (args.out.empty()) fail("--out is required");
  return args;
}

double ProbeAluMops() {
  constexpr int kChunk = 100000;
  // volatile: every step is a real load, multiply-add and store.
  volatile double x = 1.0;
  long steps = 0;
  const double start = Now();
  double now = start;
  while (now - start < 0.1) {
    for (int i = 0; i < kChunk; ++i) x = x * 0.999999 + 1e-6;
    steps += kChunk;
    now = Now();
  }
  // Keeps the chain observable so it is not folded away.
  if (x < 0.0) std::fprintf(stderr, "probe diverged\n");
  return steps / (now - start) / 1e6;
}

double ProbeMemNs() {
  // One random cycle through 16M slots (Sattolo), so every hop misses.
  std::vector<uint32_t> next(1u << 24);
  for (uint32_t i = 0; i < next.size(); ++i) next[i] = i;
  std::mt19937 rng(7);
  for (uint32_t i = static_cast<uint32_t>(next.size()) - 1; i > 0; --i) {
    std::swap(next[i], next[std::uniform_int_distribution<uint32_t>(
                           0, i - 1)(rng)]);
  }
  uint32_t at = 0;
  long hops = 0;
  const double start = Now();
  double now = start;
  while (now - start < 0.1) {
    for (int i = 0; i < 10000; ++i) at = next[at];
    hops += 10000;
    now = Now();
  }
  // Keeps the chase observable so it is not folded away.
  if (at == next.size()) std::fprintf(stderr, "probe diverged\n");
  return (now - start) * 1e9 / hops;
}

double HostStealS() {
  // "cpu user nice system idle iowait irq softirq steal ...", in ticks.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& field : fields) stat >> field;
  if (!stat || cpu != "cpu") return 0.0;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double StealFrac(double steal_s_before, double since) {
  const double cpu_s =
      static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)) * (Now() - since);
  return cpu_s > 0.0 ? (HostStealS() - steal_s_before) / cpu_s : 0.0;
}

Json MachineJson(const CommonArgs& args, double alu_mops_before,
                 double alu_mops_after, double mem_ns, double steal_frac) {
  Json json;
  json.Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .Str("simd_tier", nn::simd::TierName(nn::simd::ActiveTier()))
      .Str("compiler", AMS_BENCH_COMPILER)
      .Str("build_type", AMS_BENCH_BUILD_TYPE)
      .Str("source_rev", args.rev)
      .Int("seed", static_cast<long>(args.seed))
      .Num("probe_alu_mops_before", alu_mops_before)
      .Num("probe_alu_mops_after", alu_mops_after)
      .Num("probe_mem_ns", mem_ns)
      .Num("host_steal_frac", steal_frac);
  return json;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text << "\n";
  return static_cast<bool>(out);
}

}  // namespace amsbench
