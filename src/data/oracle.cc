#include "data/oracle.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace ams::data {

Oracle::Oracle(const zoo::ModelZoo* zoo, const Dataset* dataset)
    : zoo_(zoo), dataset_(dataset) {
  AMS_CHECK(zoo != nullptr && dataset != nullptr);
  num_models_ = zoo->num_models();
  const int n = dataset->size();
  const size_t cells =
      static_cast<size_t>(n) * static_cast<size_t>(num_models_);
  exec_time_.resize(cells);
  true_total_value_.resize(static_cast<size_t>(n));
  const int num_blocks = (n + kBuildBlockItems - 1) / kBuildBlockItems;
  blocks_.resize(static_cast<size_t>(num_blocks));
  util::ParallelFor(0, num_blocks, util::ThreadPool::DefaultThreads(),
                    [this](int block) { BuildBlock(block); });
}

void Oracle::BuildBlock(int block) {
  const int first = block * kBuildBlockItems;
  const int last = std::min(first + kBuildBlockItems, num_items());
  // The block's outputs grow here and are copied once, exactly sized, into
  // its storage, so the build's slack is one block per thread.
  std::vector<zoo::LabelOutput> outputs;
  std::vector<uint32_t> offsets;
  offsets.reserve(static_cast<size_t>(last - first) *
                      static_cast<size_t>(num_models_) +
                  1);
  // Best confidence per label on the current item (0 = none yet: stored
  // confidences are positive) and the labels it touched.
  std::vector<double> best(static_cast<size_t>(zoo_->labels().total_labels()),
                           0.0);
  std::vector<int> touched;
  for (int i = first; i < last; ++i) {
    const zoo::LatentScene& scene = dataset_->item(i).scene;
    for (int m = 0; m < num_models_; ++m) {
      const size_t begin = outputs.size();
      offsets.push_back(static_cast<uint32_t>(begin));
      zoo_->ExecuteInto(m, scene, &outputs);
      exec_time_[Cell(i, m)] = zoo_->SampleExecutionTime(m, scene);
      for (size_t k = begin; k < outputs.size(); ++k) {
        const zoo::LabelOutput& out = outputs[k];
        double& label_best = best[static_cast<size_t>(out.label_id)];
        if (label_best == 0.0) touched.push_back(out.label_id);
        label_best = std::max(label_best, out.confidence);
      }
    }
    // f(M, d): the per-label maxima summed in ascending label order.
    std::sort(touched.begin(), touched.end());
    double total = 0.0;
    for (const int label : touched) {
      total += best[static_cast<size_t>(label)];
      best[static_cast<size_t>(label)] = 0.0;
    }
    touched.clear();
    true_total_value_[static_cast<size_t>(i)] = total;
  }
  AMS_CHECK(outputs.size() <= std::numeric_limits<uint32_t>::max(),
            "an oracle block holds more outputs than uint32_t offsets reach");
  offsets.push_back(static_cast<uint32_t>(outputs.size()));
  Block& stored = blocks_[static_cast<size_t>(block)];
  stored.outputs.assign(outputs.begin(), outputs.end());
  stored.offsets = std::move(offsets);
}

zoo::LabelOutputView Oracle::Output(int item, int model) const {
  const Block& block =
      blocks_[static_cast<size_t>(item) / kBuildBlockItems];
  const size_t pair =
      static_cast<size_t>(item) % kBuildBlockItems *
          static_cast<size_t>(num_models_) +
      static_cast<size_t>(model);
  const uint32_t begin = block.offsets[pair];
  return {block.outputs.data() + begin, block.offsets[pair + 1] - begin};
}

double Oracle::ModelSoloValue(int item, int model) const {
  double solo = 0.0;
  for (const zoo::LabelOutput& out : Output(item, model)) {
    solo += out.confidence;
  }
  return solo;
}

double Oracle::TrueTotalValue(int item) const {
  return true_total_value_[static_cast<size_t>(item)];
}

double Oracle::LabelProfit(int item, int label) const {
  double profit = 0.0;
  for (int m = 0; m < num_models(); ++m) {
    for (const zoo::LabelOutput& out : Output(item, m)) {
      if (out.label_id == label) profit = std::max(profit, out.confidence);
    }
  }
  return profit;
}

double Oracle::ValuableTime(int item) const {
  double total = 0.0;
  for (int j = 0; j < num_models(); ++j) {
    if (ModelValuable(item, j)) total += ExecutionTime(item, j);
  }
  return total;
}

double Oracle::TotalTime(int item) const {
  double total = 0.0;
  for (int j = 0; j < num_models(); ++j) total += ExecutionTime(item, j);
  return total;
}

}  // namespace ams::data
