// Quickstart: build the model zoo, train a small DRL agent on stored
// execution results, and let a LabelingService session label fresh images
// greedily — printing Fig.-7-style execution sequences ("pub" -> cups/tv ->
// drinking beer) that show the learned semantic chain in action.
//
//   ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "rl/trainer.h"
#include "zoo/model_zoo.h"

using namespace ams;

int main() {
  // 1. The substrate: 30 models x 10 tasks x 1104 labels (Table I).
  const zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  std::printf("zoo: %d models, %d labels, full execution costs %.2f s/item\n",
              zoo.num_models(), zoo.labels().total_labels(),
              zoo.TotalTimeSeconds());

  // 2. Ground truth: generate a corpus and store all model outputs (§VI-A).
  const data::Dataset dataset = data::Dataset::Generate(
      data::DatasetProfile::MirFlickr25(), zoo.labels(), 800, /*seed=*/3);
  const data::Oracle oracle(&zoo, &dataset);

  // 3. Train a DuelingDQN agent (small config so this runs in seconds; see
  //    bench/ for paper-scale settings).
  rl::TrainConfig config;
  config.scheme = rl::DrlScheme::kDuelingDqn;
  config.hidden_dim = 64;
  config.episodes = 500;
  config.eps_decay_steps = 2500;
  std::printf("training DuelingDQN agent (%d episodes)...\n", config.episodes);
  rl::AgentTrainer trainer(&oracle, config);
  rl::TrainStats stats;
  std::unique_ptr<rl::Agent> agent = trainer.Train({}, &stats);
  std::printf("trained: %.1f s, final avg episode reward %.2f\n",
              stats.wall_seconds, stats.final_avg_reward);

  // 4. Open a greedy labeling session with the public facade: the agent
  //    picks models until END outranks everything (no resource constraint).
  core::LabelingService service = core::LabelingServiceBuilder(&zoo)
                                      .WithPredictor(agent.get())
                                      .WithMode(core::ExecutionMode::kGreedy)
                                      .Build();
  for (int i = 0; i < 3; ++i) {
    const auto& item = dataset.item(dataset.test_indices()[i]);
    const core::ScheduleResult result = service.Submit(item.scene).schedule;
    std::printf(
        "\nimage #%d — %zu models executed, %.2f s simulated (vs %.2f s for "
        "all 30), value %.2f\n",
        item.id, result.executions.size(), result.makespan_s,
        zoo.TotalTimeSeconds(), result.value);
    for (const auto& record : result.executions) {
      std::printf("  %-14s ->", zoo.model(record.model_id).name.c_str());
      if (record.fresh.empty()) {
        std::printf(" (nothing new)");
      } else {
        int shown = 0;
        for (const auto& out : record.fresh) {
          if (shown++ == 4) {
            std::printf(" +%zu more", record.fresh.size() - 4);
            break;
          }
          std::printf(" %s(%.2f)",
                      zoo.labels().LabelName(out.label_id).c_str(),
                      out.confidence);
        }
      }
      std::printf("\n");
    }
  }
  return 0;
}
