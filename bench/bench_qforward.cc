// Q-forward kernel microbenchmark: the batched value prediction at the heart
// of every scheduling decision (rl::Agent::PredictValuesBatchTo), swept over
// batch size x input sparsity x hidden width at the serving shape (input =
// the zoo's label space, output = models + END), through two kernel paths:
//
//   fp32_scalar     the portable scalar kernels (simd::Tier::kScalar forced)
//   fp32_simd       the runtime-dispatched vector kernels (AVX2/NEON when
//                   the CPU has them; identical bits, fewer cycles)
//
// The first JSON config is fp32_scalar, so the gate's normalized throughput
// for fp32_simd IS its speedup over scalar — the number the SIMD dispatch
// exists to move. The bench is also a bitwise-parity check: both paths'
// outputs are compared at every grid point (the kernel-level lock lives in
// nn_simd_test).
//
// Emits BENCH_qforward.json for tools/bench_compare.py. Env knobs:
// AMS_BENCH_QF_REPEATS (best-of trials, default 5), AMS_BENCH_QF_ITERS
// (forward calls per trial per grid point, default 40).

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/predictor.h"
#include "nn/net.h"
#include "nn/simd.h"
#include "rl/agent.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"
#include "zoo/model_zoo.h"

namespace {

using namespace ams;

struct GridPoint {
  int hidden = 0;
  int batch = 0;
  int set_bits = 0;  // active (binary) features per row
};

struct PathTotals {
  double wall_s = 0.0;
  double rows = 0.0;
  double rows_per_s() const { return wall_s > 0.0 ? rows / wall_s : 0.0; }
};

/// One batch of sparse binary rows plus the index hints the serving path
/// always carries.
struct Workload {
  std::vector<std::vector<float>> rows;
  std::vector<std::vector<int>> indices;
  std::vector<const std::vector<float>*> row_ptrs;
  std::vector<const std::vector<int>*> index_ptrs;
};

Workload MakeWorkload(int batch, int input_dim, int set_bits, util::Rng* rng) {
  Workload w;
  w.rows.assign(static_cast<size_t>(batch),
                std::vector<float>(static_cast<size_t>(input_dim), 0.0f));
  w.indices.resize(static_cast<size_t>(batch));
  for (int r = 0; r < batch; ++r) {
    for (const int i : rng->SampleWithoutReplacement(input_dim, set_bits)) {
      w.rows[static_cast<size_t>(r)][static_cast<size_t>(i)] = 1.0f;
      w.indices[static_cast<size_t>(r)].push_back(i);
    }
  }
  for (int r = 0; r < batch; ++r) {
    w.row_ptrs.push_back(&w.rows[static_cast<size_t>(r)]);
    w.index_ptrs.push_back(&w.indices[static_cast<size_t>(r)]);
  }
  return w;
}

/// Best-of-`repeats` wall time for `iters` batched forwards.
double TimeForward(core::ModelValuePredictor* predictor, const Workload& w,
                   int iters, int repeats, std::vector<double>* out) {
  double best = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    util::Timer timer;
    for (int it = 0; it < iters; ++it) {
      predictor->PredictValuesBatchTo(w.row_ptrs.data(), w.index_ptrs.data(),
                                      w.row_ptrs.size(), out->data());
    }
    const double wall = timer.ElapsedSeconds();
    if (rep == 0 || wall < best) best = wall;
  }
  return best;
}

}  // namespace

int main() {
  const int repeats = bench::EnvInt("AMS_BENCH_QF_REPEATS", 5);
  const int iters = bench::EnvInt("AMS_BENCH_QF_ITERS", 40);

  const zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  const int input_dim = zoo.labels().total_labels();
  const int output_dim = zoo.num_models() + 1;

  bench::Banner("Q-forward kernels: scalar vs " +
                std::string(nn::simd::TierName(nn::simd::BestSupportedTier())) +
                " (input " + std::to_string(input_dim) + ", output " +
                std::to_string(output_dim) + ")");

  const std::vector<GridPoint> grid = {
      {64, 1, 4},   {64, 16, 4},  {64, 64, 4},  {64, 64, 32},
      {256, 1, 4},  {256, 16, 4}, {256, 64, 4}, {256, 64, 32},
  };

  PathTotals scalar_total, simd_total;
  util::AsciiTable table;
  table.SetHeader({"hidden", "batch", "bits", "scalar rows/s", "simd rows/s",
                   "simd x"});

  for (const GridPoint& point : grid) {
    nn::MlpConfig config;
    config.input_dim = input_dim;
    config.hidden_dims = {point.hidden};
    config.output_dim = output_dim;
    rl::Agent agent(std::make_unique<nn::Mlp>(config, /*seed=*/17),
                    nn::NetKind::kMlp);

    util::Rng rng(static_cast<uint64_t>(point.hidden * 1000 + point.batch * 10 +
                                        point.set_bits));
    const Workload w = MakeWorkload(point.batch, input_dim, point.set_bits,
                                    &rng);
    std::vector<double> out(w.rows.size() * static_cast<size_t>(output_dim));
    std::vector<double> out_scalar(out.size());

    nn::simd::ForceTier(nn::simd::Tier::kScalar);
    const double scalar_wall =
        TimeForward(&agent, w, iters, repeats, &out_scalar);
    nn::simd::ResetForcedTier();
    const double simd_wall = TimeForward(&agent, w, iters, repeats, &out);

    // The bitwise lock across the dispatch boundary, at this grid point.
    AMS_CHECK(std::memcmp(out.data(), out_scalar.data(),
                          out.size() * sizeof(double)) == 0,
              "SIMD forward diverged bitwise from scalar");

    const double rows = static_cast<double>(w.rows.size()) * iters;
    scalar_total.wall_s += scalar_wall;
    scalar_total.rows += rows;
    simd_total.wall_s += simd_wall;
    simd_total.rows += rows;

    table.AddRow(std::to_string(point.hidden) + "/" +
                     std::to_string(point.batch) + "/" +
                     std::to_string(point.set_bits),
                 {static_cast<double>(point.batch),
                  static_cast<double>(point.set_bits), rows / scalar_wall,
                  rows / simd_wall, scalar_wall / simd_wall});
  }
  table.Print(std::cout);

  const double simd_speedup = simd_total.rows_per_s() /
                              scalar_total.rows_per_s();
  std::cout << "\nactive tier: " << nn::simd::TierName(nn::simd::ActiveTier())
            << "\naggregate simd speedup vs scalar: " << simd_speedup << "\n";

  std::ofstream json("BENCH_qforward.json");
  AMS_CHECK(json.good(), "cannot open BENCH_qforward.json for writing");
  json << "{\n";
  json << "  \"workload\": {\"input_dim\": " << input_dim
       << ", \"output_dim\": " << output_dim << ", \"grid_points\": "
       << grid.size() << ", \"iters\": " << iters << ", \"repeats\": "
       << repeats << ", \"active_tier\": \""
       << nn::simd::TierName(nn::simd::ActiveTier()) << "\"},\n";
  json << "  \"configs\": [\n";
  json << "    {\"name\": \"fp32_scalar\", \"wall_s\": " << scalar_total.wall_s
       << ", \"items_per_s\": " << scalar_total.rows_per_s()
       << ", \"speedup_vs_scalar\": 1},\n";
  json << "    {\"name\": \"fp32_simd\", \"wall_s\": " << simd_total.wall_s
       << ", \"items_per_s\": " << simd_total.rows_per_s()
       << ", \"speedup_vs_scalar\": " << simd_speedup << "}\n";
  json << "  ],\n";
  json << "  \"simd_speedup_vs_scalar\": " << simd_speedup << "\n";
  json << "}\n";
  std::cout << "wrote BENCH_qforward.json\n";
  return 0;
}
