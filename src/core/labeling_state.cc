#include "core/labeling_state.h"

#include <algorithm>

#include "util/check.h"

namespace ams::core {

LabelingState::LabelingState(int num_labels, int num_models)
    : labels_(static_cast<size_t>(num_labels), 0.0f),
      executed_(static_cast<size_t>(num_models), false) {
  AMS_CHECK(num_labels > 0 && num_models > 0);
  // Worst-case capacities so MarkExecuted and SetLabel never allocate.
  set_indices_.reserve(static_cast<size_t>(num_labels));
  order_.reserve(static_cast<size_t>(num_models));
}

void LabelingState::Reset() {
  for (const int label : set_indices_) {
    labels_[static_cast<size_t>(label)] = 0.0f;
  }
  set_indices_.clear();
  for (const int model : order_) executed_[static_cast<size_t>(model)] = false;
  order_.clear();
  num_executed_ = 0;
  num_labels_set_ = 0;
}

std::vector<zoo::LabelOutput> LabelingState::Apply(
    int model_id, zoo::LabelOutputView outputs) {
  MarkExecuted(model_id);
  std::vector<zoo::LabelOutput> fresh;
  for (const auto& out : outputs) {
    if (SetLabel(out.label_id)) fresh.push_back(out);
  }
  return fresh;
}

void LabelingState::MarkExecuted(int model_id) {
  AMS_CHECK(model_id >= 0 && model_id < num_models());
  AMS_CHECK(!executed_[static_cast<size_t>(model_id)],
            "model executed twice on one item");
  executed_[static_cast<size_t>(model_id)] = true;
  order_.push_back(model_id);
  ++num_executed_;
}

bool LabelingState::SetLabel(int label_id) {
  float& bit = labels_[static_cast<size_t>(label_id)];
  if (bit != 0.0f) return false;
  bit = 1.0f;
  ++num_labels_set_;
  // Sorted insert keeps SetIndices ascending; states carry tens of set
  // labels at most, so the shift stays cheap.
  set_indices_.insert(
      std::lower_bound(set_indices_.begin(), set_indices_.end(), label_id),
      label_id);
  return true;
}

}  // namespace ams::core
