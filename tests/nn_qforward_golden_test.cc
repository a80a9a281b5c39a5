// Locks the Q-forward to committed bits. The parity tests elsewhere compare
// one forward path or kernel tier with another, so a change that moved every
// path at once (a new accumulation order, the bias added first) would pass
// them all. This test compares against tests/fixtures/qforward_golden.inc
// instead: the Q rows of a seeded paper-shaped Mlp (1104 -> 256 -> 31) and
// DuelingMlp over 64 label states replayed from a seeded oracle, stored as
// uint32 float bit patterns in C++ initializers.
//
// The fixture was written by the disabled WriteFixture case below, run from
// the build directory and then copied into tests/fixtures:
//
//   ./tests/nn_qforward_golden_test --gtest_filter='*WriteFixture'
//       --gtest_also_run_disabled_tests
//
// Regenerate it only from a forward whose bits are already trusted; a fixture
// rewritten by the code under test locks nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/labeling_state.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "nn/simd.h"
#include "rl/agent.h"
#include "util/rng.h"
#include "zoo/model_zoo.h"

namespace ams::rl {
namespace {

constexpr int kInputDim = 1104;
constexpr int kHiddenDim = 256;
constexpr int kOutputDim = 31;
constexpr int kStates = 64;
constexpr uint64_t kMlpSeed = 1401;
constexpr uint64_t kDuelingSeed = 1402;
constexpr uint64_t kBiasSeed = 1403;
constexpr uint64_t kOracleSeed = 1404;

using Rows = std::vector<std::vector<uint32_t>>;

// Defines kGoldenStates (the set indices of each state) and kGoldenMlpQBits
// and kGoldenDuelingQBits (each state's Q row as float bits).
#include "fixtures/qforward_golden.inc"

nn::MlpConfig PaperConfig() {
  nn::MlpConfig config;
  config.input_dim = kInputDim;
  config.hidden_dims = {kHiddenDim};
  config.output_dim = kOutputDim;
  return config;
}

// Fresh nets have zero biases, which would hide a bias added first or twice;
// seeded nonzero biases make every such reordering change the bits.
void SeedBiases(nn::QValueNet* net, uint64_t seed) {
  std::vector<nn::ParamGrad> params;
  net->CollectParams(&params);
  util::Rng rng(seed);
  // Each dense layer contributes its weights, then its bias.
  for (size_t p = 1; p < params.size(); p += 2) {
    for (size_t i = 0; i < params[p].size; ++i) {
      params[p].param[i] = static_cast<float>(rng.Normal(0.0, 0.5));
    }
  }
}

std::unique_ptr<Agent> GoldenAgent(nn::NetKind kind) {
  std::unique_ptr<nn::QValueNet> net;
  if (kind == nn::NetKind::kMlp) {
    net = std::make_unique<nn::Mlp>(PaperConfig(), kMlpSeed);
  } else {
    net = std::make_unique<nn::DuelingMlp>(PaperConfig(), kDuelingSeed);
  }
  SeedBiases(net.get(), kBiasSeed);
  return std::make_unique<Agent>(std::move(net), kind);
}

uint32_t Bits(double q) {
  const float f = static_cast<float>(q);
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

/// The binary feature vectors and set-index lists of the golden states.
struct States {
  std::vector<std::vector<float>> features;
  std::vector<std::vector<int>> indices;
};

States FromIndices(const Rows& rows) {
  States states;
  for (const std::vector<uint32_t>& row : rows) {
    std::vector<float> x(static_cast<size_t>(kInputDim), 0.0f);
    std::vector<int> idx;
    for (const uint32_t i : row) {
      x[i] = 1.0f;
      idx.push_back(static_cast<int>(i));
    }
    states.features.push_back(std::move(x));
    states.indices.push_back(std::move(idx));
  }
  return states;
}

// --- fixture output ----------------------------------------------------------

void WriteRows(const std::string& name, const Rows& rows, std::ostream& out) {
  out << "const Rows " << name << " = {\n";
  for (const std::vector<uint32_t>& row : rows) {
    out << "    {";
    for (size_t i = 0; i < row.size(); ++i) {
      out << (i == 0 ? "" : i % 8 == 0 ? ",\n     " : ", ") << row[i];
    }
    out << "},\n";
  }
  out << "};\n";
}

// --- the lock ---------------------------------------------------------------

class QForwardGoldenTest : public ::testing::Test {
 protected:
  void TearDown() override { nn::simd::ResetForcedTier(); }

  /// Checks PredictValues and PredictValuesBatchTo at several batch sizes,
  /// with and without set-index hints, against the fixture rows.
  static void ExpectGolden(nn::NetKind kind, const Rows& want) {
    const Rows& state_rows = kGoldenStates;
    ASSERT_EQ(state_rows.size(), static_cast<size_t>(kStates));
    ASSERT_EQ(want.size(), static_cast<size_t>(kStates));
    for (int s = 0; s < kStates; ++s) {
      for (const uint32_t i : state_rows[static_cast<size_t>(s)]) {
        ASSERT_LT(i, static_cast<uint32_t>(kInputDim)) << "state " << s;
      }
      ASSERT_EQ(want[static_cast<size_t>(s)].size(),
                static_cast<size_t>(kOutputDim))
          << "row " << s;
    }
    const States states = FromIndices(state_rows);

    const std::unique_ptr<Agent> agent = GoldenAgent(kind);
    for (const bool scalar : {true, false}) {
      if (scalar) {
        nn::simd::ForceTier(nn::simd::Tier::kScalar);
      } else {
        nn::simd::ResetForcedTier();
      }
      const std::string tier = nn::simd::TierName(nn::simd::ActiveTier());
      int differing = 0;
      std::string first;
      // Counts every Q value that is not the golden float, widened exactly.
      const auto check = [&](const double* q, int s, const std::string& path) {
        const std::vector<uint32_t>& golden = want[static_cast<size_t>(s)];
        for (int a = 0; a < kOutputDim; ++a) {
          const uint32_t got = Bits(q[a]);
          const uint32_t expect = golden[static_cast<size_t>(a)];
          if (got == expect && static_cast<float>(q[a]) == q[a]) continue;
          if (differing++ == 0) {
            first = path + " state " + std::to_string(s) + " action " +
                    std::to_string(a) + ": bits " + std::to_string(got) +
                    ", golden " + std::to_string(expect);
          }
        }
      };

      for (int s = 0; s < kStates; ++s) {
        const std::vector<double> q =
            agent->PredictValues(states.features[static_cast<size_t>(s)]);
        ASSERT_EQ(q.size(), static_cast<size_t>(kOutputDim));
        check(q.data(), s, "PredictValues");
      }
      for (const int batch : {1, 3, 4, 7}) {
        for (const bool hinted : {true, false}) {
          std::vector<double> out(static_cast<size_t>(batch * kOutputDim));
          for (int s0 = 0; s0 < kStates; s0 += batch) {
            const int n = std::min(batch, kStates - s0);
            std::vector<const std::vector<float>*> rows;
            std::vector<const std::vector<int>*> idx;
            for (int s = s0; s < s0 + n; ++s) {
              rows.push_back(&states.features[static_cast<size_t>(s)]);
              idx.push_back(&states.indices[static_cast<size_t>(s)]);
            }
            agent->PredictValuesBatchTo(rows.data(),
                                        hinted ? idx.data() : nullptr,
                                        static_cast<size_t>(n), out.data());
            for (int r = 0; r < n; ++r) {
              check(out.data() + static_cast<size_t>(r) * kOutputDim, s0 + r,
                    "PredictValuesBatchTo batch " + std::to_string(batch) +
                        (hinted ? " (indexed)" : " (dense)"));
            }
          }
        }
      }
      EXPECT_EQ(differing, 0) << "on tier " << tier << ": "
                              << differing
                              << " Q values differ from the golden bits; "
                                 "first: "
                              << first;
    }
  }
};

TEST_F(QForwardGoldenTest, MlpReproducesGoldenBits) {
  ExpectGolden(nn::NetKind::kMlp, kGoldenMlpQBits);
}

TEST_F(QForwardGoldenTest, DuelingMlpReproducesGoldenBits) {
  ExpectGolden(nn::NetKind::kDueling, kGoldenDuelingQBits);
}

// --- the generator ----------------------------------------------------------

// Replays seeded model executions over a generated corpus and records the
// label state after each prefix. State 0 is the empty state (the first
// decision of every item); the rest run 8..30 models on distinct items.
Rows ReplayStates() {
  const zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  EXPECT_EQ(zoo.labels().total_labels(), kInputDim);
  EXPECT_EQ(zoo.num_models() + 1, kOutputDim);
  const data::Dataset dataset = data::Dataset::Generate(
      data::DatasetProfile::MsCoco(), zoo.labels(), kStates, kOracleSeed);
  const data::Oracle oracle(&zoo, &dataset);
  util::Rng rng(kOracleSeed);
  Rows rows;
  for (int s = 0; s < kStates; ++s) {
    core::LabelingState state(zoo.labels().total_labels(), zoo.num_models());
    std::vector<int> order(static_cast<size_t>(zoo.num_models()));
    for (int m = 0; m < zoo.num_models(); ++m) {
      order[static_cast<size_t>(m)] = m;
    }
    rng.Shuffle(&order);
    const int executed = s == 0 ? 0 : rng.UniformInt(8, zoo.num_models());
    for (int k = 0; k < executed; ++k) {
      const int model = order[static_cast<size_t>(k)];
      state.Apply(model, oracle.Output(s, model));
    }
    rows.emplace_back(state.SetIndices().begin(), state.SetIndices().end());
  }
  return rows;
}

TEST(QForwardGoldenFixture, DISABLED_WriteFixture) {
  const Rows state_rows = ReplayStates();
  const States states = FromIndices(state_rows);
  nn::simd::ForceTier(nn::simd::Tier::kScalar);
  std::ofstream out("qforward_golden.inc");
  ASSERT_TRUE(out.good());
  out << "// Q rows of seeded nets over replayed label states, as float bit\n"
         "// patterns. Written by the disabled WriteFixture case of\n"
         "// tests/nn_qforward_golden_test.cc; read it before regenerating.\n";
  WriteRows("kGoldenStates", state_rows, out);
  for (const nn::NetKind kind : {nn::NetKind::kMlp, nn::NetKind::kDueling}) {
    const std::unique_ptr<Agent> agent = GoldenAgent(kind);
    Rows q_bits;
    for (const std::vector<float>& x : states.features) {
      q_bits.emplace_back();
      for (const double q : agent->PredictValues(x)) {
        q_bits.back().push_back(Bits(q));
      }
    }
    WriteRows(kind == nn::NetKind::kMlp ? "kGoldenMlpQBits"
                                        : "kGoldenDuelingQBits",
              q_bits, out);
  }
  nn::simd::ResetForcedTier();
}

}  // namespace
}  // namespace ams::rl
