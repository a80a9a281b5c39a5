#include "core/value.h"

#include "util/check.h"

namespace ams::core {

ValueAccumulator::ValueAccumulator(const data::Oracle* oracle, int item)
    : oracle_(oracle),
      item_(item),
      best_conf_(static_cast<size_t>(oracle->zoo().labels().total_labels()), 0.0),
      added_(static_cast<size_t>(oracle->num_models()), false) {
  AMS_CHECK(item >= 0 && item < oracle->num_items());
}

double ValueAccumulator::MarginalGain(int model) const {
  if (added_[static_cast<size_t>(model)]) return 0.0;
  double gain = 0.0;
  for (const zoo::LabelOutput out : oracle_->Output(item_, model)) {
    const double prev = best_conf_[static_cast<size_t>(out.label_id)];
    if (out.confidence > prev) gain += out.confidence - prev;
  }
  return gain;
}

double ValueAccumulator::AddModel(int model) {
  AMS_CHECK(!added_[static_cast<size_t>(model)], "model added twice");
  added_[static_cast<size_t>(model)] = true;
  double gain = 0.0;
  for (const zoo::LabelOutput out : oracle_->Output(item_, model)) {
    double& best = best_conf_[static_cast<size_t>(out.label_id)];
    if (out.confidence > best) {
      gain += out.confidence - best;
      best = out.confidence;
    }
  }
  value_ += gain;
  return gain;
}

double ValueAccumulator::Recall() const {
  return ValueRecall(value_, oracle_->TrueTotalValue(item_));
}

}  // namespace ams::core
