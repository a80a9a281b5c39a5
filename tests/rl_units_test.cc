// Unit tests of the RL building blocks: replay buffer, epsilon schedule,
// loss/optimizer learning sanity, and agent checkpoints with corrupt
// headers.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>

#include "nn/loss.h"
#include "nn/net.h"
#include "nn/optimizer.h"
#include "rl/agent.h"
#include "rl/epsilon.h"
#include "rl/replay_buffer.h"
#include "util/rng.h"

namespace ams::rl {
namespace {

Transition MakeTransition(int id) {
  Transition t;
  t.state_labels = {id % 7};
  t.next_state_labels = {id % 7, (id + 1) % 7};
  t.action = id % 31;
  t.reward = static_cast<float>(id);
  t.done = (id % 5 == 0);
  t.next_executed_mask = static_cast<uint32_t>(id);
  t.next_action = (id + 1) % 31;
  return t;
}

TEST(ReplayBufferTest, GrowsThenWrapsAsARing) {
  ReplayBuffer buffer(4);
  for (int i = 0; i < 3; ++i) buffer.Add(MakeTransition(i));
  EXPECT_EQ(buffer.size(), 3u);
  for (int i = 3; i < 10; ++i) buffer.Add(MakeTransition(i));
  EXPECT_EQ(buffer.size(), 4u);
  // The buffer must contain exactly the last 4 rewards {6,7,8,9}.
  std::multiset<float> rewards;
  for (size_t i = 0; i < buffer.size(); ++i) rewards.insert(buffer.at(i).reward);
  EXPECT_EQ(rewards, (std::multiset<float>{6.0f, 7.0f, 8.0f, 9.0f}));
}

TEST(ReplayBufferTest, SampleBatchReturnsValidPointers) {
  ReplayBuffer buffer(16);
  for (int i = 0; i < 10; ++i) buffer.Add(MakeTransition(i));
  util::Rng rng(3);
  const auto batch = buffer.SampleBatch(32, &rng);  // with replacement
  ASSERT_EQ(batch.size(), 32u);
  for (const Transition* t : batch) {
    ASSERT_NE(t, nullptr);
    EXPECT_GE(t->reward, 0.0f);
    EXPECT_LT(t->reward, 10.0f);
  }
}

TEST(ReplayBufferTest, ScatterLabelsDensifies) {
  std::vector<float> row(8, 0.0f);
  ScatterLabels({1, 4, 7}, row.data());
  EXPECT_FLOAT_EQ(row[0], 0.0f);
  EXPECT_FLOAT_EQ(row[1], 1.0f);
  EXPECT_FLOAT_EQ(row[4], 1.0f);
  EXPECT_FLOAT_EQ(row[7], 1.0f);
}

TEST(EpsilonScheduleTest, LinearDecayContract) {
  EpsilonSchedule schedule(1.0, 0.05, 1000);
  EXPECT_DOUBLE_EQ(schedule.Value(0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.Value(-5), 1.0);
  EXPECT_DOUBLE_EQ(schedule.Value(1000), 0.05);
  EXPECT_DOUBLE_EQ(schedule.Value(999999), 0.05);
  EXPECT_NEAR(schedule.Value(500), 0.525, 1e-12);
  // Monotone non-increasing.
  for (int s = 1; s <= 1000; s += 37) {
    EXPECT_LE(schedule.Value(s), schedule.Value(s - 1));
  }
}

TEST(QLossTest, GradientOnlyAtSelectedActions) {
  nn::Matrix q(2, 4);
  q.At(0, 1) = 2.0f;
  q.At(1, 3) = -1.0f;
  nn::Matrix grad;
  const double loss = nn::QLoss(q, {1, 3}, {1.0f, -1.0f}, &grad);
  // errors: (2-1)=1 and (-1 - -1)=0, both within the Huber threshold, so
  // the loss is quadratic: (0.5*1 + 0)/2
  EXPECT_NEAR(loss, 0.25, 1e-6);
  EXPECT_FLOAT_EQ(grad.At(0, 1), 0.5f);  // err / batch
  EXPECT_FLOAT_EQ(grad.At(1, 3), 0.0f);
  EXPECT_FLOAT_EQ(grad.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad.At(1, 0), 0.0f);
}

TEST(QLossTest, HuberSaturatesLargeErrors) {
  nn::Matrix q(1, 2);
  q.At(0, 0) = 10.0f;  // error 10 vs target 0
  nn::Matrix grad;
  const double loss = nn::QLoss(q, {0}, {0.0f}, &grad);
  EXPECT_NEAR(loss, 9.5, 1e-6);          // |e| - 0.5
  EXPECT_FLOAT_EQ(grad.At(0, 0), 1.0f);  // clipped gradient
}

// Learning sanity: Adam must fit a tiny regression task with a two-layer
// net, i.e. drive the MSE down by >10x.
TEST(OptimizerLearningTest, AdamFitsTinyRegression) {
  nn::MlpConfig config{3, {16}, 2};
  nn::Mlp net(config, 5);
  std::vector<nn::ParamGrad> params;
  net.CollectParams(&params);
  nn::Adam optimizer(0.01f);

  util::Rng rng(8);
  nn::Matrix x(16, 3);
  nn::Matrix target(16, 2);
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 3; ++c) {
      x.At(r, c) = static_cast<float>(rng.Uniform(-1, 1));
    }
    target.At(r, 0) = x.At(r, 0) + 0.5f * x.At(r, 1);
    target.At(r, 1) = x.At(r, 2) - x.At(r, 0);
  }
  nn::Matrix q, grad;
  net.Forward(x, &q);
  const double initial = nn::MseLoss(q, target, &grad);
  double final_loss = initial;
  for (int step = 0; step < 500; ++step) {
    net.Forward(x, &q);
    final_loss = nn::MseLoss(q, target, &grad);
    net.Backward(grad);
    optimizer.Step(params);
  }
  EXPECT_LT(final_loss, initial / 10.0);
}

TEST(OptimizerTest, AdamFirstStepIsLrSized) {
  float param = 0.0f;
  float grad = 0.123f;
  nn::Adam adam(0.01f);
  std::vector<nn::ParamGrad> params = {{&param, &grad, 1}};
  adam.Step(params);
  // With bias correction the first Adam step is ~lr * sign(grad).
  EXPECT_NEAR(param, -0.01f, 1e-4);
}

TEST(AgentCheckpointTest, CorruptHeadersLoadAsNullptr) {
  // eval::AgentCache retrains whenever Agent::Load returns nullptr, so a
  // corrupt cache file must cost a retrain, never the process. Flips every
  // bit of the header of a 40 -> 16 -> 5 checkpoint: the magic, the net
  // kind, and the config (input dim, hidden count, hidden dim, output dim).
  nn::MlpConfig config{40, {16}, 5};
  const Agent agent(std::make_unique<nn::Mlp>(config, 7), nn::NetKind::kMlp);
  const std::string path = ::testing::TempDir() + "/corrupt_header.agent";
  agent.Save(path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_NE(Agent::Load(path), nullptr);
  constexpr size_t kHeaderBytes = 6 * sizeof(int32_t);
  ASSERT_GT(bytes.size(), kHeaderBytes);
  for (size_t at = 0; at < kHeaderBytes; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[at] = static_cast<char>(mutated[at] ^ (1 << bit));
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << mutated;
      }
      EXPECT_EQ(Agent::Load(path), nullptr)
          << "bit " << bit << " of byte " << at;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ams::rl
