// Ablation of the transfer limits (§VI-D "Limitations"): the paper reports
// that training agents only on dog-related images and testing on human-
// action images (and vice versa) performs *worse than random* — transfer
// needs intersecting content distributions. This bench reproduces that
// extreme case with the DogsOnly / ActionsOnly profiles.

#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "eval/recall_curve.h"
#include "eval/world.h"
#include "rl/trainer.h"
#include "util/stats.h"
#include "util/table.h"
#include "zoo/model_zoo.h"

namespace {

using namespace ams;

void Run() {
  const eval::WorldConfig world_config = eval::WorldConfig::FromEnv();
  const zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();

  const data::Dataset dogs = data::Dataset::Generate(
      data::DatasetProfile::DogsOnly(), zoo.labels(),
      world_config.items_per_dataset, world_config.seed);
  const data::Dataset actions = data::Dataset::Generate(
      data::DatasetProfile::ActionsOnly(), zoo.labels(),
      world_config.items_per_dataset, world_config.seed + 1);
  const data::Oracle dogs_oracle(&zoo, &dogs);
  const data::Oracle actions_oracle(&zoo, &actions);

  auto train_on = [&](const data::Oracle* oracle) {
    rl::TrainConfig config;
    config.scheme = rl::DrlScheme::kDuelingDqn;
    config.hidden_dim = world_config.hidden_dim;
    config.episodes = world_config.train_episodes;
    config.eps_decay_steps = world_config.train_episodes * 4;
    config.seed = world_config.seed;
    rl::AgentTrainer trainer(oracle, config);
    return trainer.Train();
  };
  std::unique_ptr<rl::Agent> dog_agent = train_on(&dogs_oracle);
  std::unique_ptr<rl::Agent> action_agent = train_on(&actions_oracle);

  auto evaluate = [&](rl::Agent* agent, const data::Oracle& oracle,
                      const data::Dataset& dataset) {
    std::vector<int> items = dataset.test_indices();
    items.resize(std::min<size_t>(
        items.size(), static_cast<size_t>(world_config.eval_items)));
    const eval::FullRecallCosts agent_costs = eval::ComputeFullRecallCosts(
        eval::PolicySpec{"q_greedy", {}, agent}, oracle, items);
    const eval::FullRecallCosts random_costs = eval::ComputeFullRecallCosts(
        eval::PolicySpec{"random", {/*seed=*/3}}, oracle, items);
    return std::pair<double, double>{util::Mean(agent_costs.time_s),
                                     util::Mean(random_costs.time_s)};
  };

  bench::Banner(
      "Ablation (SVI-D limitations) — transfer across disjoint content "
      "distributions");
  util::AsciiTable table;
  table.SetHeader({"agent -> test set", "agent time (s)", "random time (s)",
                   "verdict"});
  struct Case {
    const char* name;
    rl::Agent* agent;
    const data::Oracle* oracle;
    const data::Dataset* dataset;
  };
  const Case cases[] = {
      {"dogs_only -> dogs_only", dog_agent.get(), &dogs_oracle, &dogs},
      {"dogs_only -> actions_only", dog_agent.get(), &actions_oracle,
       &actions},
      {"actions_only -> actions_only", action_agent.get(), &actions_oracle,
       &actions},
      {"actions_only -> dogs_only", action_agent.get(), &dogs_oracle, &dogs},
  };
  for (const Case& c : cases) {
    const auto [agent_time, random_time] = evaluate(c.agent, *c.oracle,
                                                    *c.dataset);
    table.AddRow({c.name, util::FormatDouble(agent_time, 2),
                  util::FormatDouble(random_time, 2),
                  agent_time < random_time * 0.95 ? "transfers"
                                                  : "does NOT transfer"});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: strong savings on the in-distribution "
               "diagonal, little or none across — matching the paper's "
               "'worse model scheduling than the random policy' caveat for "
               "disjoint content.\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
