// Shared pieces of the two benchmark binaries (ams_bench, ams_bench_layers):
// the workload table, the labeling stack every workload builds, the seeded
// item sequences, the correctness ledger, exact percentiles, process
// counters and a small JSON writer for the results files run.py reads.

#ifndef AMS_BENCHMARK_COMMON_H_
#define AMS_BENCHMARK_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/oracle.h"
#include "rl/agent.h"
#include "zoo/model_zoo.h"

namespace amsbench {

/// How a workload drives the service.
enum class Shape {
  /// LabelingService::SubmitBatch, the offline batch driver.
  kOfflineBatch,
  /// serve::ServerRuntime fed whole albums of one class and tenant.
  kAlbums,
};

/// One workload.
struct WorkloadSpec {
  const char* name;
  Shape shape;
  int corpus_items;
  /// Items per album (offline jobs and served albums).
  int album_items;
};

/// The workload table; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
/// Names of every workload, for usage messages.
std::string WorkloadNames();

// --- fixed program parameters (the session every workload uses) ----------

inline constexpr int kWorkers = 3;         // serving workers / batch workers
inline constexpr uint64_t kNetSeed = 5;    // Q-net init (program, not input)
inline constexpr int kHidden = 256;        // paper-architecture MLP
inline constexpr double kDeadlineS = 1.0;  // per-item scheduling budget
inline constexpr double kMemoryGb = 8.0;   // per-item memory budget
inline constexpr int kClosedOutstanding = 2048;
inline constexpr int kOfflineCallItems = 5000;
inline constexpr int kAlbumQueueCap = 65536;
/// Items one serving worker (and the layer pass's stepper) keeps resident.
inline constexpr int kResidentPerWorker = 32;

/// Everything below the serving front end: zoo, corpus, oracle, agent.
/// Heap-held members so the pointers the oracle and sessions keep stay
/// valid when the World moves.
struct World {
  std::unique_ptr<ams::zoo::ModelZoo> zoo;
  std::unique_ptr<ams::data::Dataset> dataset;
  std::unique_ptr<ams::data::Oracle> oracle;
  std::unique_ptr<ams::rl::Agent> agent;
};

/// Generates the workload's corpus from `seed` (data::Dataset::Generate
/// over the mscoco profile) and its oracle.
World BuildCorpus(const WorkloadSpec& spec, uint64_t seed);
/// Adds the untrained paper-architecture agent (init seed kNetSeed).
void BuildAgent(World* world);

/// The benchmark session: mscoco, Algorithm 2 (kParallel), 1 s deadline,
/// 8 GB memory, lean kernel, fp32, and no other builder knobs. It decides
/// from `predictor`, or from the world's agent when that is null.
ams::core::LabelingService BuildSession(
    const World& world, int workers,
    ams::core::ModelValuePredictor* predictor = nullptr);

/// Seeded item source shared by the generator and the layer drives, so a
/// layer drive sees the same item stream the workload serves: consecutive
/// corpus ids, cycling from a seed-drawn start.
class ItemSequence {
 public:
  ItemSequence(const WorkloadSpec& spec, uint64_t seed);
  /// The next album's items.
  void NextAlbum(int size, std::vector<int>* out);
  /// The next item, for drives that take one item at a time.
  int NextItem();

 private:
  int corpus_items_;
  long cursor_ = 0;
};

/// First served outcome of every item; later servings must match it, and
/// Check() recomputes each one with LabelingService::Submit.
class OutcomeLedger {
 public:
  explicit OutcomeLedger(int corpus_items);

  void Record(int item, const ams::core::LabelOutcome& outcome);
  /// Recomputes every recorded item with Submit on one-worker sessions of
  /// `world` independent of the ones that served, on kWorkers threads
  /// (each its own session and a disjoint share of the items); returns the
  /// number checked.
  long Check(const World& world);

  /// The first mismatches, each naming its item.
  const std::vector<std::string>& mismatches() const { return mismatches_; }
  long mismatch_count() const { return mismatch_count_; }

 private:
  struct Entry {
    bool seen = false;
    double recall = 0.0;
    int executions = 0;
  };

  static bool Same(const Entry& entry, const ams::core::LabelOutcome& outcome);
  void Mismatch(int item, const char* what);

  std::vector<Entry> entries_;
  std::vector<std::string> mismatches_;
  long mismatch_count_ = 0;
};

// --- measurement helpers ---------------------------------------------------

/// Seconds on util::Clock::Monotonic(), the runtime's own clock.
double Now();

/// Exact percentile (linear interpolation between order statistics); 0 for
/// an empty sample. Sorts `values` in place.
double Percentile(std::vector<double>* values, double p);
/// Median of a copy of `values`.
double Median(std::vector<double> values);

/// Process CPU seconds (all threads, exited ones included) and the calling
/// thread's CPU seconds.
double ProcessCpuS();
double ThreadCpuS();
/// VmHWM of this process in MB.
double PeakRssMb();

// --- results JSON ----------------------------------------------------------

/// Minimal ordered JSON object writer: numbers, strings, bools, nested
/// objects and string arrays. Enough for the results files.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, long value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Obj(const std::string& key, const Json& value);
  Json& StrList(const std::string& key, const std::vector<std::string>& v);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// A named metric with its unit and sample count.
struct Metric {
  double value = 0.0;
  std::string unit;
  long samples = -1;  // -1: not a sampled statistic
};
using MetricMap = std::map<std::string, Metric>;

Json MetricsJson(const MetricMap& metrics);

/// Flags both binaries share. Exits with usage on bad input.
struct CommonArgs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  std::string trace_out;
  std::string rev = "unknown";
};
CommonArgs ParseArgs(int argc, char** argv, const char* usage);

/// How fast the host is right now, independent of the repository's code.
/// Shared hosts drift by tens of percent over minutes; compare.py sets the
/// two sides' probes side by side.
///
/// Millions of steps per second of a dependent multiply-add chain (0.1 s).
double ProbeAluMops();
/// Nanoseconds per hop of a pointer chase over 64 MB: cache and memory
/// contention from other tenants, which moves this program more than the
/// chain does (0.1 s plus the fill). It raises VmHWM by 64 MB, so it runs
/// only after PeakRssMb() has been read.
double ProbeMemNs();
/// Seconds of vCPU time the hypervisor gave to other guests since boot
/// ("steal" in /proc/stat), summed over all vCPUs; 0 where not reported.
/// Runs with a few percent of steal read far slower latency tails.
double HostStealS();
/// HostStealS() since `steal_s_before`, over all vCPUs' time since the
/// Now() reading `since`.
double StealFrac(double steal_s_before, double since);

/// Machine and provenance block of every results file: nproc, SIMD tier,
/// compiler, build type, source revision, seed, the ALU probe read before
/// and after the run, the memory probe read after it, and the share of
/// vCPU time stolen during the run.
Json MachineJson(const CommonArgs& args, double alu_mops_before,
                 double alu_mops_after, double mem_ns, double steal_frac);

/// Writes `text` to `path`; false on failure.
bool WriteFile(const std::string& path, const std::string& text);

}  // namespace amsbench

#endif  // AMS_BENCHMARK_COMMON_H_
