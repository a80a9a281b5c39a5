// Ablation of the "simple case" of §I: when the stream is chunked and
// content-correlated (video segments), a plain exploration–exploitation
// policy — run everything on the first frames of a chunk, then only the
// models that paid off — should already perform near-optimally, no DRL
// needed. This bench measures it against random and optimal on a chunked
// stream.

#include <iostream>
#include <memory>

#include <array>
#include <vector>

#include "bench/bench_util.h"
#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "eval/world.h"
#include "util/table.h"
#include "zoo/model_zoo.h"

namespace {

using namespace ams;

void Run() {
  const eval::WorldConfig world_config = eval::WorldConfig::FromEnv();
  const zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  const int chunk_len = 25;
  const int num_chunks =
      std::max(4, world_config.items_per_dataset / chunk_len);
  const data::Dataset dataset = data::Dataset::GenerateChunked(
      data::DatasetProfile::MirFlickr25(), zoo.labels(), num_chunks, chunk_len,
      world_config.seed);
  const data::Oracle oracle(&zoo, &dataset);

  bench::Banner("Ablation (SI) — explore-exploit on a chunked stream (" +
                std::to_string(num_chunks) + " chunks x " +
                std::to_string(chunk_len) + " frames)");

  // The stream, in arrival order, each frame tagged with its chunk: the
  // service keeps each chunk's frames on one worker in that order, so the
  // chunk knowledge builds up exactly as it would online (while different
  // chunks may run concurrently).
  std::vector<core::WorkItem> frames;
  frames.reserve(static_cast<size_t>(dataset.size()));
  for (int i = 0; i < dataset.size(); ++i) {
    frames.push_back(core::WorkItem::Stored(i, dataset.item(i).chunk_id));
  }
  auto run_policy = [&](const std::string& policy) {
    sched::PolicyOptions options;
    options.seed = 17;
    options.explore_items = 2;
    core::LabelingService service =
        core::LabelingServiceBuilder(&zoo)
            .WithOracle(&oracle)
            .WithMode(core::ExecutionMode::kSerial)
            .WithPolicy(policy, options)
            .WithRecallTarget(1.0)
            .WithKernelMode(core::KernelMode::kLean)  // counts/recall only
            .WithWorkers(1)  // numbers must not vary with the core count
            .Build();
    double time_sum = 0.0, models_sum = 0.0, recall_sum = 0.0;
    for (const core::LabelOutcome& outcome : service.SubmitBatch(frames)) {
      time_sum += outcome.schedule.makespan_s;
      models_sum += static_cast<double>(outcome.schedule.num_executions);
      recall_sum += outcome.recall;
    }
    const double n = static_cast<double>(dataset.size());
    return std::array<double, 3>{time_sum / n, models_sum / n,
                                 recall_sum / n};
  };

  util::AsciiTable table;
  table.SetHeader({"policy", "avg time/frame (s)", "avg models/frame",
                   "avg recall"});
  for (const char* policy : {"explore_exploit", "random", "optimal"}) {
    const auto r = run_policy(policy);
    table.AddRow(policy, {r[0], r[1], r[2]});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: explore-exploit pays full price on the "
               "first ~2 frames of each chunk and near-optimal price "
               "afterwards; its recall stays high because chunk content is "
               "correlated (SI: 'a simple exploration-exploitation solution "
               "works extremely well').\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
