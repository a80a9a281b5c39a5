// Unit tests of the dense networks: numerically checked gradients for both
// architectures, serialization round trips and corrupt-checkpoint
// rejection, and clone independence.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nn/grad_check.h"
#include "nn/net.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace ams::nn {
namespace {

Matrix RandomBatch(int rows, int cols, uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m.At(r, c) = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  return m;
}

struct NetCase {
  bool dueling;
  MlpConfig config;
};

class NetGradTest : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetGradTest, AnalyticGradientsMatchNumeric) {
  const NetCase& c = GetParam();
  std::unique_ptr<QValueNet> net;
  if (c.dueling) {
    net = std::make_unique<DuelingMlp>(c.config, 33);
  } else {
    net = std::make_unique<Mlp>(c.config, 33);
  }
  const Matrix x = RandomBatch(3, c.config.input_dim, 1);
  const Matrix target = RandomBatch(3, c.config.output_dim, 2);
  const GradCheckResult result = CheckGradients(net.get(), x, target);
  EXPECT_GT(result.params_checked, 0u);
  EXPECT_LT(result.max_rel_diff, 2e-2)
      << "abs diff " << result.max_abs_diff;
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, NetGradTest,
    ::testing::Values(NetCase{false, {5, {8}, 4}},
                      NetCase{false, {7, {6, 5}, 3}},
                      NetCase{false, {4, {}, 2}},  // linear model
                      NetCase{true, {5, {8}, 4}},
                      NetCase{true, {6, {7, 5}, 3}}));

TEST(MlpTest, ForwardShapesAndDeterminism) {
  MlpConfig config{10, {16}, 4};
  Mlp net(config, 7);
  const Matrix x = RandomBatch(5, 10, 3);
  Matrix q1, q2;
  net.Forward(x, &q1);
  net.Forward(x, &q2);
  ASSERT_EQ(q1.rows(), 5);
  ASSERT_EQ(q1.cols(), 4);
  for (int i = 0; i < q1.size(); ++i) {
    EXPECT_FLOAT_EQ(q1.data()[i], q2.data()[i]);
  }
}

TEST(MlpTest, Predict1MatchesBatchForward) {
  MlpConfig config{6, {8}, 3};
  Mlp net(config, 9);
  const Matrix x = RandomBatch(1, 6, 4);
  std::vector<float> row(x.Row(0), x.Row(0) + 6);
  const std::vector<float> single = net.Predict1(row);
  Matrix q;
  net.Forward(x, &q);
  for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(single[static_cast<size_t>(j)], q.At(0, j));
}

TEST(PredictBatchTest, SetIndexListsAreBitwiseIdenticalToDenseScan) {
  // Sparse binary rows like the scheduling states: the index-list fast path
  // must be bit-for-bit the dense zero-skipping scan, per architecture.
  const MlpConfig config{24, {16}, 5};
  std::vector<std::vector<float>> rows;
  std::vector<std::vector<int>> index_lists;
  util::Rng rng(21);
  for (int r = 0; r < 6; ++r) {
    std::vector<float> row(24, 0.0f);
    std::vector<int> indices;
    for (int k = 0; k < 24; ++k) {
      if (rng.Uniform(0.0, 1.0) < 0.2) {
        row[static_cast<size_t>(k)] = 1.0f;
        indices.push_back(k);  // ascending by construction
      }
    }
    rows.push_back(std::move(row));
    index_lists.push_back(std::move(indices));  // row 0 may be all-zero
  }
  std::vector<const std::vector<float>*> row_ptrs;
  std::vector<const std::vector<int>*> index_ptrs;
  for (size_t r = 0; r < rows.size(); ++r) {
    row_ptrs.push_back(&rows[r]);
    index_ptrs.push_back(&index_lists[r]);
  }
  for (const bool dueling : {false, true}) {
    std::unique_ptr<QValueNet> net;
    if (dueling) {
      net = std::make_unique<DuelingMlp>(config, 13);
    } else {
      net = std::make_unique<Mlp>(config, 13);
    }
    Matrix dense_q, sparse_q;
    net->PredictBatch(row_ptrs, &dense_q);
    net->PredictBatch(row_ptrs, index_ptrs, &sparse_q);
    ASSERT_EQ(sparse_q.rows(), dense_q.rows());
    ASSERT_EQ(sparse_q.cols(), dense_q.cols());
    for (int i = 0; i < dense_q.size(); ++i) {
      EXPECT_EQ(sparse_q.data()[i], dense_q.data()[i])
          << "dueling=" << dueling << " flat index " << i;
    }
  }
}

TEST(DuelingTest, QDecomposesIntoValuePlusCenteredAdvantage) {
  // Property of the dueling head: mean_a Q(s, a) equals the value head
  // output, because the advantage is mean-centered.
  MlpConfig config{6, {8}, 5};
  DuelingMlp net(config, 11);
  const Matrix x = RandomBatch(4, 6, 5);
  Matrix q;
  net.Forward(x, &q);
  // Compare against an independent forward with a different batch ordering:
  // mean-centering means row means must be identical for identical inputs
  // regardless of batching.
  Matrix single_q;
  for (int b = 0; b < 4; ++b) {
    Matrix row(1, 6);
    row.CopyRowFrom(x, b, 0);
    net.Forward(row, &single_q);
    for (int j = 0; j < 5; ++j) {
      EXPECT_NEAR(single_q.At(0, j), q.At(b, j), 1e-5);
    }
  }
}

TEST(NetSerializationTest, SaveLoadRoundTripBothKinds) {
  for (const bool dueling : {false, true}) {
    MlpConfig config{9, {12}, 5};
    std::unique_ptr<QValueNet> original;
    if (dueling) {
      original = std::make_unique<DuelingMlp>(config, 21);
    } else {
      original = std::make_unique<Mlp>(config, 21);
    }
    std::stringstream buffer;
    util::BinaryWriter writer(&buffer);
    SaveNet(*original, dueling ? NetKind::kDueling : NetKind::kMlp, &writer);
    util::BinaryReader reader(&buffer);
    NetKind kind;
    std::unique_ptr<QValueNet> loaded = LoadNet(&reader, &kind);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(kind, dueling ? NetKind::kDueling : NetKind::kMlp);
    const Matrix x = RandomBatch(2, 9, 6);
    Matrix q1, q2;
    original->Forward(x, &q1);
    loaded->Forward(x, &q2);
    for (int i = 0; i < q1.size(); ++i) {
      EXPECT_FLOAT_EQ(q1.data()[i], q2.data()[i]);
    }
  }
}

TEST(NetSerializationTest, LoadRejectsGarbage) {
  std::stringstream buffer;
  util::BinaryWriter writer(&buffer);
  writer.WriteI32(999);  // unknown kind tag
  util::BinaryReader reader(&buffer);
  EXPECT_EQ(LoadNet(&reader, nullptr), nullptr);
}

// Checkpoint bytes of `net` as SaveNet writes them.
std::string SavedBytes(const QValueNet& net, NetKind kind) {
  std::stringstream buffer;
  util::BinaryWriter writer(&buffer);
  SaveNet(net, kind, &writer);
  return buffer.str();
}

enum class LoadResult { kRejected, kRoundTrips, kWrong };

// Loads `bytes` through LoadNet. A clean outcome is either a rejection or a
// net that re-saves to exactly `bytes`; anything else accepted a corrupt
// checkpoint as some other net.
LoadResult TryLoad(const std::string& bytes) {
  std::stringstream buffer(bytes);
  util::BinaryReader reader(&buffer);
  NetKind kind;
  const std::unique_ptr<QValueNet> net = LoadNet(&reader, &kind);
  if (net == nullptr) return LoadResult::kRejected;
  return SavedBytes(*net, kind) == bytes ? LoadResult::kRoundTrips
                                         : LoadResult::kWrong;
}

TEST(NetSerializationTest, CorruptCheckpointsFailCleanly) {
  // Small checkpoints of both kinds: 40 -> 16 -> 5, and the dueling trunk
  // 40 -> 16 with its 1- and 5-wide heads.
  const MlpConfig config{40, {16}, 5};
  for (const NetKind kind : {NetKind::kMlp, NetKind::kDueling}) {
    SCOPED_TRACE(kind == NetKind::kMlp ? "mlp" : "dueling");
    std::unique_ptr<QValueNet> net;
    if (kind == NetKind::kMlp) {
      net = std::make_unique<Mlp>(config, 41);
    } else {
      net = std::make_unique<DuelingMlp>(config, 41);
    }
    const std::string bytes = SavedBytes(*net, kind);
    ASSERT_EQ(TryLoad(bytes), LoadResult::kRoundTrips);

    // Every byte offset that holds structure rather than a weight: the kind
    // tag and config header (kind, input dim, hidden count, one hidden dim,
    // output dim), then per layer its two dims and the u64 length prefixes
    // of its weights and bias.
    std::vector<size_t> structural;
    for (size_t b = 0; b < 5 * sizeof(int32_t); ++b) structural.push_back(b);
    std::vector<std::pair<int, int>> layers = {{40, 16}};
    if (kind == NetKind::kDueling) layers.emplace_back(16, 1);
    layers.emplace_back(16, 5);
    size_t offset = 5 * sizeof(int32_t);
    for (const auto& [in_dim, out_dim] : layers) {
      const size_t weights = sizeof(float) * static_cast<size_t>(in_dim) *
                             static_cast<size_t>(out_dim);
      const size_t bias = sizeof(float) * static_cast<size_t>(out_dim);
      for (size_t b = 0; b < 16; ++b) structural.push_back(offset + b);
      offset += 16 + weights;  // dims + weight length prefix, weights
      for (size_t b = 0; b < 8; ++b) structural.push_back(offset + b);
      offset += 8 + bias;
    }
    ASSERT_EQ(offset, bytes.size());

    for (size_t length = 0; length < bytes.size(); ++length) {
      EXPECT_EQ(TryLoad(bytes.substr(0, length)), LoadResult::kRejected)
          << "truncated to " << length << " bytes";
    }
    for (const size_t at : structural) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = bytes;
        mutated[at] = static_cast<char>(mutated[at] ^ (1 << bit));
        EXPECT_EQ(TryLoad(mutated), LoadResult::kRejected)
            << "bit " << bit << " of byte " << at;
      }
    }
    // Seeded flips anywhere: a flipped weight is a valid (different) net,
    // so each mutant must be rejected or load and re-save bit for bit.
    util::Rng rng(43);
    for (int trial = 0; trial < 256; ++trial) {
      std::string mutated = bytes;
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(bytes.size()) - 1));
      const int bit = rng.UniformInt(0, 7);
      mutated[at] = static_cast<char>(mutated[at] ^ (1 << bit));
      EXPECT_NE(TryLoad(mutated), LoadResult::kWrong)
          << "bit " << bit << " of byte " << at;
    }
  }
}

TEST(NetTest, CloneIsDeepCopy) {
  MlpConfig config{5, {6}, 3};
  Mlp net(config, 13);
  std::unique_ptr<QValueNet> clone = net.Clone();
  const Matrix x = RandomBatch(1, 5, 7);
  Matrix q_before;
  clone->Forward(x, &q_before);
  // Mutate the original's weights; the clone must be unaffected.
  std::vector<ParamGrad> params;
  net.CollectParams(&params);
  for (auto& p : params) {
    for (size_t i = 0; i < p.size; ++i) p.param[i] += 1.0f;
  }
  Matrix q_after;
  clone->Forward(x, &q_after);
  for (int i = 0; i < q_before.size(); ++i) {
    EXPECT_FLOAT_EQ(q_before.data()[i], q_after.data()[i]);
  }
}

TEST(NetTest, CopyWeightsFromSynchronizesTargets) {
  MlpConfig config{5, {6}, 3};
  Mlp online(config, 1);
  Mlp target(config, 2);
  const Matrix x = RandomBatch(2, 5, 8);
  Matrix q_online, q_target;
  online.Forward(x, &q_online);
  target.Forward(x, &q_target);
  bool differ = false;
  for (int i = 0; i < q_online.size(); ++i) {
    if (q_online.data()[i] != q_target.data()[i]) differ = true;
  }
  EXPECT_TRUE(differ) << "differently seeded nets should differ";
  target.CopyWeightsFrom(&online);
  online.Forward(x, &q_online);
  target.Forward(x, &q_target);
  for (int i = 0; i < q_online.size(); ++i) {
    EXPECT_FLOAT_EQ(q_online.data()[i], q_target.data()[i]);
  }
}

TEST(NetTest, NumParamsMatchesArchitecture) {
  MlpConfig config{10, {16}, 4};
  Mlp net(config, 3);
  EXPECT_EQ(net.NumParams(), 10u * 16u + 16u + 16u * 4u + 4u);
  DuelingMlp dueling(config, 3);
  EXPECT_EQ(dueling.NumParams(),
            10u * 16u + 16u + (16u * 1u + 1u) + (16u * 4u + 4u));
}

}  // namespace
}  // namespace ams::nn
