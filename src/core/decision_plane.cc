#include "core/decision_plane.h"

#include <algorithm>

#include "util/check.h"

namespace ams::core {

DecisionPlane::DecisionPlane(ModelValuePredictor* predictor, DecisionRow row,
                             bool memoize_rows)
    : predictor_(predictor), row_kind_(row), memoize_rows_(memoize_rows) {
  AMS_CHECK(predictor != nullptr);
  stride_ = static_cast<size_t>(predictor->num_actions());
}

void DecisionPlane::ToDecisionRow(double* row) const {
  if (row_kind_ == DecisionRow::kQ) return;
  for (size_t a = 0; a < stride_; ++a) row[a] = SchedulingProfit(row[a]);
}

bool DecisionPlane::ServeFromMemo(Slot* slot, const LabelingState& state) {
  if (!memoize_rows_) return false;
  const auto it = row_memo_.find(state.SetIndices());
  if (it == row_memo_.end()) return false;
  slot->row_ = it->second;
  slot->labels_at_ = state.num_labels_set();
  ++memo_hits_;
  return true;
}

void DecisionPlane::MemoizeRow(const std::vector<int>& indices,
                               const double* row) {
  if (!memoize_rows_ || row_memo_.size() >= kRowMemoCap) return;
  std::vector<double>& entry = row_memo_[indices];
  if (entry.empty()) entry.assign(row, row + stride_);
}

const std::vector<double>& DecisionPlane::Slot::Row(
    const LabelingState& state) {
  if (Fresh(state) || plane_->ServeFromMemo(this, state)) return row_;
  // One row through the batched inference forward rather than
  // PredictValues: the rows are bitwise identical, but the scalar entry is
  // the training forward, which caches activations for Backward and
  // allocates on every call.
  const std::vector<float>* features = &state.Features();
  const std::vector<int>* indices = &state.SetIndices();
  row_.resize(plane_->stride_);
  plane_->predictor_->PredictValuesBatchTo(&features, &indices, 1,
                                           row_.data());
  plane_->ToDecisionRow(row_.data());
  labels_at_ = state.num_labels_set();
  plane_->MemoizeRow(state.SetIndices(), row_.data());
  return row_;
}

DecisionPlane::Slot* DecisionPlane::NewSlot() {
  slots_.emplace_back(Slot(this));
  return &slots_.back();
}

void DecisionPlane::Prefetch(const std::vector<SlotView>& views,
                             util::Arena* arena) {
  AMS_CHECK(arena != nullptr);
  // Parallel arrays instead of a SlotView array: std::pair is not
  // trivially copyable, which Arena::AllocArray requires.
  Slot** stale_slots = arena->AllocArray<Slot*>(views.size());
  const LabelingState** stale_states =
      arena->AllocArray<const LabelingState*>(views.size());
  size_t n_stale = 0;
  for (const SlotView& view : views) {
    AMS_CHECK(view.first != nullptr && view.second != nullptr);
    if (view.first->Fresh(*view.second)) continue;
    // States seen before — by any item, any time in the plane's life — are
    // served straight from the row memo without a forward pass.
    if (ServeFromMemo(view.first, *view.second)) continue;
    stale_slots[n_stale] = view.first;
    stale_states[n_stale] = view.second;
    ++n_stale;
  }
  if (n_stale == 0) return;

  // Deduplicate identical states across items: items resident in one tick
  // share feature vectors often (every item starts all-zero, and sparse label
  // states collide), and the predictor is a pure function of the features,
  // so duplicates ride along on one forward row. This cross-item sharing is
  // exactly what per-item caches cannot see. States are compared through
  // their sorted set-index lists — tens of ints instead of the full
  // 1000+-entry feature vector — which fully determine the binary features.
  const std::vector<float>** features =
      arena->AllocArray<const std::vector<float>*>(n_stale);
  const std::vector<int>** indices =
      arena->AllocArray<const std::vector<int>*>(n_stale);
  size_t* row_of = arena->AllocArray<size_t>(n_stale);
  size_t n_rows = 0;
  for (size_t i = 0; i < n_stale; ++i) {
    const std::vector<int>& idx = stale_states[i]->SetIndices();
    size_t row = n_rows;
    for (size_t u = 0; u < n_rows; ++u) {
      if (indices[u]->size() == idx.size() &&
          std::equal(idx.begin(), idx.end(), indices[u]->begin())) {
        row = u;
        break;
      }
    }
    if (row == n_rows) {
      features[n_rows] = &stale_states[i]->Features();
      indices[n_rows] = &idx;
      ++n_rows;
    }
    row_of[i] = row;
  }

  double* flat = arena->AllocArray<double>(n_rows * stride_);
  predictor_->PredictValuesBatchTo(features, indices, n_rows, flat);
  batched_rows_ += static_cast<long>(n_rows);
  for (size_t u = 0; u < n_rows; ++u) {
    double* row = flat + u * stride_;
    ToDecisionRow(row);
    MemoizeRow(*indices[u], row);
  }
  for (size_t i = 0; i < n_stale; ++i) {
    const double* row = flat + row_of[i] * stride_;
    stale_slots[i]->row_.assign(row, row + stride_);
    stale_slots[i]->labels_at_ = stale_states[i]->num_labels_set();
  }
}

}  // namespace ams::core
