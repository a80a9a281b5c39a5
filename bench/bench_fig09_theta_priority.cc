// Reproduces Fig. 9 (§VI-E): the effect of the priority parameter θ of one
// "face detection" model on its position in the scheduling sequence (left)
// and on the total execution time at full value recall (right), for the four
// DRL schemes and θ ∈ {1, 2, 5, 10}.
//
// Paper reference points: DuelingDQN schedules the face-detection model at
// average position 28.9 / 27.4 / 4.0 / 3.0 for θ = 1 / 2 / 5 / 10, while the
// total-time optimization stays intact (51.9 / 48.2 / 54.3 / 53.1% time
// saved vs random).

#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "core/labeling_service.h"
#include "data/dataset_profile.h"
#include "eval/agent_cache.h"
#include "eval/recall_curve.h"
#include "eval/world.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace ams;

const rl::DrlScheme kSchemes[] = {
    rl::DrlScheme::kDqn, rl::DrlScheme::kDoubleDqn, rl::DrlScheme::kDuelingDqn,
    rl::DrlScheme::kDeepSarsa};
const double kThetas[] = {1.0, 2.0, 5.0, 10.0};

void Run() {
  const eval::WorldConfig config = eval::WorldConfig::FromEnv();
  eval::AgentCache cache;

  // The boosted model: the medium-tier face detector.
  const zoo::ModelZoo base_zoo = zoo::ModelZoo::CreateDefault();
  const int face_model =
      base_zoo.ModelsForTask(zoo::TaskKind::kFaceDetection)[1];
  std::cout << "boosted model: " << base_zoo.model(face_model).name
            << " (id " << face_model << ")\n";

  // One zoo + oracle per theta (outputs are theta-independent, but the
  // reward and hence the trained agents differ).
  const data::DatasetProfile profile = data::DatasetProfile::MsCoco();
  std::vector<std::unique_ptr<zoo::ModelZoo>> zoos;
  std::vector<std::unique_ptr<data::Dataset>> datasets;
  std::vector<std::unique_ptr<data::Oracle>> oracles;
  for (double theta : kThetas) {
    auto z = std::make_unique<zoo::ModelZoo>(zoo::ModelZoo::CreateDefault());
    z->SetTheta(face_model, theta);
    datasets.push_back(std::make_unique<data::Dataset>(data::Dataset::Generate(
        profile, z->labels(), config.items_per_dataset, config.seed)));
    oracles.push_back(
        std::make_unique<data::Oracle>(z.get(), datasets.back().get()));
    zoos.push_back(std::move(z));
  }

  // 4 schemes x 4 thetas, trained in parallel.
  std::vector<eval::AgentRequest> requests;
  for (size_t ti = 0; ti < std::size(kThetas); ++ti) {
    for (const rl::DrlScheme scheme : kSchemes) {
      eval::AgentRequest request;
      request.key = "mscoco_" + SchemeName(scheme) + "_th" +
                    std::to_string(static_cast<int>(kThetas[ti])) + "_i" +
                    std::to_string(config.items_per_dataset) + "_e" +
                    std::to_string(config.train_episodes) + "_h" +
                    std::to_string(config.hidden_dim);
      request.oracle = oracles[ti].get();
      request.config.scheme = scheme;
      request.config.hidden_dim = config.hidden_dim;
      request.config.episodes = config.train_episodes;
      request.config.eps_decay_steps = config.train_episodes * 4;
      request.config.seed = config.seed;
      requests.push_back(std::move(request));
    }
  }
  std::vector<std::unique_ptr<rl::Agent>> agents =
      cache.GetOrTrainAll(requests);

  // Evaluate: run Q-greedy to full recall; note the face model's position
  // (models not reached before full recall count as position 30).
  util::AsciiTable order_table, time_table;
  order_table.SetHeader({"theta", "dqn", "double", "dueling", "sarsa",
                         "random"});
  time_table.SetHeader({"theta", "dqn", "double", "dueling", "sarsa",
                        "random"});
  for (size_t ti = 0; ti < std::size(kThetas); ++ti) {
    const data::Oracle& oracle = *oracles[ti];
    std::vector<int> items = datasets[ti]->test_indices();
    items.resize(std::min<size_t>(items.size(),
                                  static_cast<size_t>(config.eval_items)));
    std::vector<double> orders, times;
    for (size_t s = 0; s < std::size(kSchemes); ++s) {
      rl::Agent* agent = agents[ti * std::size(kSchemes) + s].get();
      double order_sum = 0.0, time_sum = 0.0;
      // A Q-greedy session over the agent, run to full recall.
      core::LabelingService service =
          core::LabelingServiceBuilder(&oracle.zoo())
              .WithOracle(&oracle)
              .WithMode(core::ExecutionMode::kSerial)
              .WithPredictor(agent)
              .WithPolicy("q_greedy")
              .WithRecallTarget(1.0)
              .Build();
      for (int item : items) {
        const core::LabelOutcome outcome =
            service.Submit(core::WorkItem::Stored(item));
        const auto& executions = outcome.schedule.executions;
        double position = static_cast<double>(oracle.num_models());
        for (size_t k = 0; k < executions.size(); ++k) {
          if (executions[k].model_id == face_model) {
            position = static_cast<double>(k + 1);
            break;
          }
        }
        order_sum += position;
        time_sum += outcome.schedule.makespan_s;
      }
      orders.push_back(order_sum / static_cast<double>(items.size()));
      times.push_back(time_sum / static_cast<double>(items.size()));
    }
    // Random baseline (same for every theta up to seed).
    const eval::FullRecallCosts random_costs = eval::ComputeFullRecallCosts(
        eval::PolicySpec{"random", {/*seed=*/123}}, oracle, items);
    orders.push_back((oracle.num_models() + 1) / 2.0);  // uniform expectation
    times.push_back(util::Mean(random_costs.time_s));
    order_table.AddRow(util::FormatDouble(kThetas[ti], 0), orders, 1);
    time_table.AddRow(util::FormatDouble(kThetas[ti], 0), times, 2);
  }

  bench::Banner(
      "Fig. 9(a) — average execution order of the boosted face-detection "
      "model (paper DuelingDQN: 28.9 / 27.4 / 4.0 / 3.0)");
  order_table.Print(std::cout);
  bench::Banner(
      "Fig. 9(b) — average execution time at full recall (s); priority "
      "shifts must not break the time optimization");
  time_table.Print(std::cout);
}

}  // namespace

int main() {
  Run();
  return 0;
}
