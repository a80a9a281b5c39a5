#ifndef AMS_RL_TRAINER_H_
#define AMS_RL_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/env.h"
#include "data/oracle.h"
#include "rl/agent.h"

namespace ams::rl {

/// The four Q-value-network training schemes evaluated in §VI-B.
enum class DrlScheme : int {
  kDqn = 0,
  kDoubleDqn = 1,
  kDuelingDqn = 2,
  kDeepSarsa = 3,
};

/// Short scheme name ("dqn", "double", "dueling", "sarsa").
std::string SchemeName(DrlScheme scheme);

/// Hyperparameters of agent training. Defaults reproduce the paper's setup
/// (one 256-unit ReLU hidden layer, §IV-B) at a CPU-friendly scale. The
/// trainer minimizes the Huber TD loss (nn::QLoss) with Adam.
struct TrainConfig {
  DrlScheme scheme = DrlScheme::kDuelingDqn;
  /// Width of the hidden layer(s). The paper uses 256.
  int hidden_dim = 256;
  /// Training episodes (one episode = one item labeled to completion).
  int episodes = 600;
  int batch_size = 32;
  double gamma = 0.95;
  double learning_rate = 1e-3;
  double eps_start = 1.0;
  double eps_end = 0.05;
  /// Environment steps over which epsilon decays linearly.
  int eps_decay_steps = 5000;
  /// Gradient updates between target-network syncs.
  int target_sync_interval = 250;
  size_t replay_capacity = 20000;
  /// Minimum buffer fill before learning starts.
  int min_replay = 400;
  /// Gradient updates per environment step.
  int updates_per_step = 1;
  core::RewardShaping shaping = core::RewardShaping::kLogSum;
  /// §IV-B: the END action speeds up convergence; disable for the ablation.
  bool enable_end_action = true;
  uint64_t seed = 42;
};

/// Diagnostics collected during training.
struct TrainStats {
  std::vector<double> episode_rewards;
  std::vector<double> episode_lengths;
  int total_steps = 0;
  int total_updates = 0;
  /// Mean episode reward over the final 10% of episodes.
  double final_avg_reward = 0.0;
  double wall_seconds = 0.0;
};

/// Trains a DRL agent on an oracle's stored execution results, exactly as
/// the paper trains on pre-executed outputs (§VI-A). Episodes sample items
/// from the provided index set (normally the dataset's train split).
class AgentTrainer {
 public:
  AgentTrainer(const data::Oracle* oracle, const TrainConfig& config);

  /// Trains on `item_indices`; empty means the dataset's train split.
  std::unique_ptr<Agent> Train(const std::vector<int>& item_indices = {},
                               TrainStats* stats = nullptr);

 private:
  const data::Oracle* oracle_;
  TrainConfig config_;
};

}  // namespace ams::rl

#endif  // AMS_RL_TRAINER_H_
