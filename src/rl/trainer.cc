#include "rl/trainer.h"

#include <algorithm>
#include <cmath>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "rl/epsilon.h"
#include "rl/replay_buffer.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ams::rl {

std::string SchemeName(DrlScheme scheme) {
  switch (scheme) {
    case DrlScheme::kDqn:
      return "dqn";
    case DrlScheme::kDoubleDqn:
      return "double";
    case DrlScheme::kDuelingDqn:
      return "dueling";
    case DrlScheme::kDeepSarsa:
      return "sarsa";
  }
  AMS_CHECK(false, "invalid scheme");
  return "";
}

namespace {

// Extracts the sparse set-bit indices of a dense binary feature vector.
std::vector<int32_t> SparseLabels(const std::vector<float>& features) {
  std::vector<int32_t> out;
  for (size_t i = 0; i < features.size(); ++i) {
    if (features[i] != 0.0f) out.push_back(static_cast<int32_t>(i));
  }
  return out;
}

}  // namespace

AgentTrainer::AgentTrainer(const data::Oracle* oracle, const TrainConfig& config)
    : oracle_(oracle), config_(config) {
  AMS_CHECK(oracle != nullptr);
  AMS_CHECK(config.episodes > 0 && config.batch_size > 0);
  AMS_CHECK(config.gamma >= 0.0 && config.gamma < 1.0);
}

std::unique_ptr<Agent> AgentTrainer::Train(const std::vector<int>& item_indices,
                                           TrainStats* stats) {
  util::Timer timer;
  const std::vector<int>& items = item_indices.empty()
                                      ? oracle_->dataset().train_indices()
                                      : item_indices;
  AMS_CHECK(!items.empty(), "no training items");

  core::EnvConfig env_config;
  env_config.shaping = config_.shaping;
  env_config.enable_end_action = config_.enable_end_action;
  core::SchedulingEnv env(oracle_, env_config);

  const int feature_dim = env.feature_dim();
  const int num_actions = env.num_actions();
  const int num_models = env.num_models();
  const int end_action = env.end_action();

  nn::MlpConfig net_config;
  net_config.input_dim = feature_dim;
  net_config.hidden_dims = {config_.hidden_dim};
  net_config.output_dim = num_actions;

  std::unique_ptr<nn::QValueNet> online;
  nn::NetKind kind;
  if (config_.scheme == DrlScheme::kDuelingDqn) {
    online = std::make_unique<nn::DuelingMlp>(net_config, config_.seed);
    kind = nn::NetKind::kDueling;
  } else {
    online = std::make_unique<nn::Mlp>(net_config, config_.seed);
    kind = nn::NetKind::kMlp;
  }
  std::unique_ptr<nn::QValueNet> target = online->Clone();

  std::vector<nn::ParamGrad> params;
  online->CollectParams(&params);
  nn::Adam optimizer(static_cast<float>(config_.learning_rate));

  ReplayBuffer buffer(config_.replay_capacity);
  EpsilonSchedule epsilon(config_.eps_start, config_.eps_end,
                          config_.eps_decay_steps);
  util::Rng rng(util::HashCombine(config_.seed, 0x7124A1u));

  // Scratch batch tensors reused across updates.
  nn::Matrix batch_states, batch_next, q_pred, q_next_target, q_next_online,
      grad;
  std::vector<int> actions(static_cast<size_t>(config_.batch_size));
  std::vector<float> targets(static_cast<size_t>(config_.batch_size));

  // Selects an epsilon-greedy action among valid ones; q_values may be null
  // when exploring (saves a forward pass).
  auto select_action = [&](const std::vector<int>& valid, double eps) {
    AMS_CHECK(!valid.empty());
    if (rng.NextDouble() < eps) {
      return valid[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(valid.size()) - 1))];
    }
    const std::vector<float> q = online->Predict1(env.Features());
    int best = valid[0];
    float best_q = q[static_cast<size_t>(valid[0])];
    for (int a : valid) {
      if (q[static_cast<size_t>(a)] > best_q) {
        best = a;
        best_q = q[static_cast<size_t>(a)];
      }
    }
    return best;
  };

  // One gradient update on a sampled minibatch.
  auto update = [&]() {
    const auto batch =
        buffer.SampleBatch(static_cast<size_t>(config_.batch_size), &rng);
    const int bs = static_cast<int>(batch.size());
    batch_states.Resize(bs, feature_dim);
    batch_states.Fill(0.0f);
    batch_next.Resize(bs, feature_dim);
    batch_next.Fill(0.0f);
    for (int b = 0; b < bs; ++b) {
      ScatterLabels(batch[static_cast<size_t>(b)]->state_labels,
                    batch_states.Row(b));
      ScatterLabels(batch[static_cast<size_t>(b)]->next_state_labels,
                    batch_next.Row(b));
    }
    target->Forward(batch_next, &q_next_target);
    if (config_.scheme == DrlScheme::kDoubleDqn) {
      online->Forward(batch_next, &q_next_online);
    }
    for (int b = 0; b < bs; ++b) {
      const Transition& t = *batch[static_cast<size_t>(b)];
      actions[static_cast<size_t>(b)] = t.action;
      if (t.done) {
        targets[static_cast<size_t>(b)] = t.reward;
        continue;
      }
      // Valid actions at s': models not in the executed mask, plus END when
      // enabled during training.
      auto valid_at_next = [&](int a) {
        if (a == end_action) return config_.enable_end_action;
        return (t.next_executed_mask & (1u << a)) == 0;
      };
      double bootstrap = 0.0;
      if (config_.scheme == DrlScheme::kDeepSarsa) {
        AMS_DCHECK(t.next_action >= 0);
        bootstrap = q_next_target.At(b, t.next_action);
      } else if (config_.scheme == DrlScheme::kDoubleDqn) {
        int best = -1;
        float best_q = 0.0f;
        for (int a = 0; a < num_actions; ++a) {
          if (!valid_at_next(a)) continue;
          if (best == -1 || q_next_online.At(b, a) > best_q) {
            best = a;
            best_q = q_next_online.At(b, a);
          }
        }
        AMS_DCHECK(best >= 0);
        bootstrap = q_next_target.At(b, best);
      } else {  // DQN / DuelingDQN: max over valid actions of the target net
        bool any = false;
        float best_q = 0.0f;
        for (int a = 0; a < num_actions; ++a) {
          if (!valid_at_next(a)) continue;
          if (!any || q_next_target.At(b, a) > best_q) {
            any = true;
            best_q = q_next_target.At(b, a);
          }
        }
        AMS_DCHECK(any);
        bootstrap = best_q;
      }
      targets[static_cast<size_t>(b)] =
          t.reward + static_cast<float>(config_.gamma * bootstrap);
    }
    actions.resize(static_cast<size_t>(bs));
    targets.resize(static_cast<size_t>(bs));
    online->Forward(batch_states, &q_pred);
    nn::QLoss(q_pred, actions, targets, &grad);
    online->Backward(grad);
    optimizer.Step(params);
  };

  int global_step = 0;
  int updates = 0;
  std::vector<int> order(items.begin(), items.end());
  if (stats != nullptr) {
    stats->episode_rewards.clear();
    stats->episode_lengths.clear();
  }

  for (int episode = 0; episode < config_.episodes; ++episode) {
    if (episode % static_cast<int>(order.size()) == 0) rng.Shuffle(&order);
    const int item = order[static_cast<size_t>(
        episode % static_cast<int>(order.size()))];
    env.Reset(item);
    double episode_reward = 0.0;
    int episode_len = 0;

    int action = select_action(env.ValidActions(), epsilon.Value(global_step));
    while (!env.done()) {
      Transition t;
      t.state_labels = SparseLabels(env.Features());
      t.action = action;
      const core::StepResult step = env.Step(action);
      t.reward = static_cast<float>(step.reward);
      t.done = step.done;
      episode_reward += step.reward;
      ++episode_len;
      ++global_step;
      if (!step.done) {
        t.next_state_labels = SparseLabels(env.Features());
        uint32_t mask = 0;
        for (int m = 0; m < num_models; ++m) {
          if (env.state().model_executed(m)) mask |= (1u << m);
        }
        t.next_executed_mask = mask;
        // SARSA is on-policy: commit to the next action now and follow it.
        action = select_action(env.ValidActions(), epsilon.Value(global_step));
        t.next_action = action;
      }
      buffer.Add(std::move(t));
      if (static_cast<int>(buffer.size()) >= config_.min_replay) {
        for (int u = 0; u < config_.updates_per_step; ++u) {
          update();
          ++updates;
          if (updates % config_.target_sync_interval == 0) {
            target->CopyWeightsFrom(online.get());
          }
        }
      }
    }
    if (stats != nullptr) {
      stats->episode_rewards.push_back(episode_reward);
      stats->episode_lengths.push_back(static_cast<double>(episode_len));
    }
  }

  if (stats != nullptr) {
    stats->total_steps = global_step;
    stats->total_updates = updates;
    const size_t n = stats->episode_rewards.size();
    const size_t tail = std::max<size_t>(1, n / 10);
    double sum = 0.0;
    for (size_t i = n - tail; i < n; ++i) sum += stats->episode_rewards[i];
    stats->final_avg_reward = sum / static_cast<double>(tail);
    stats->wall_seconds = timer.ElapsedSeconds();
  }
  return std::make_unique<Agent>(std::move(online), kind);
}

}  // namespace ams::rl
