#include "core/decision_plane.h"

#include <algorithm>

#include "util/check.h"

namespace ams::core {

DecisionPlane::DecisionPlane(ModelValuePredictor* predictor, DecisionRow row,
                             bool memoize_rows)
    : predictor_(predictor), row_kind_(row), memoize_rows_(memoize_rows) {
  AMS_CHECK(predictor != nullptr);
  stride_ = static_cast<size_t>(predictor->num_actions());
  AMS_CHECK(stride_ <= 64,
            "a decision row tracks its transformed entries in a 64-bit mask");
  // Raw Q is already a kQ row's value.
  new_row_mask_ = row_kind_ == DecisionRow::kQ ? ~uint64_t{0} : 0;
}

bool DecisionPlane::ServeFromMemo(Slot* slot, const LabelingState& state) {
  if (!memoize_rows_) return false;
  const auto it = row_memo_.find(state.SetIndices());
  if (it == row_memo_.end()) return false;
  Attach(slot, &it->second, state);
  ++memo_hits_;
  return true;
}

DecisionPlane::StoredRow* DecisionPlane::NewMemoRow(
    const std::vector<int>& indices) {
  if (!memoize_rows_ || row_memo_.size() >= kRowMemoCap) return nullptr;
  StoredRow* row = &row_memo_[indices];
  row->values.resize(stride_);
  row->transformed = new_row_mask_;
  return row;
}

DecisionPlane::StoredRow* DecisionPlane::OwnRow(Slot* slot) const {
  slot->own_.values.resize(stride_);
  slot->own_.transformed = new_row_mask_;
  return &slot->own_;
}

void DecisionPlane::Attach(Slot* slot, StoredRow* row,
                           const LabelingState& state) {
  slot->row_ = row;
  slot->labels_at_ = state.num_labels_set();
}

void DecisionPlane::Slot::Refresh(const LabelingState& state) {
  if (plane_->ServeFromMemo(this, state)) return;
  // One row through the batched inference forward rather than
  // PredictValues: the rows are bitwise identical, but the scalar entry is
  // the training forward, which caches activations for Backward and
  // allocates on every call.
  StoredRow* row = plane_->NewMemoRow(state.SetIndices());
  if (row == nullptr) row = plane_->OwnRow(this);
  const std::vector<float>* features = &state.Features();
  const std::vector<int>* indices = &state.SetIndices();
  plane_->predictor_->PredictValuesBatchTo(&features, &indices, 1,
                                           row->values.data());
  plane_->Attach(this, row, state);
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
  // A unique row the memo takes is shared in place by every stale slot at
  // its state; a row it does not take is copied into each one's own buffer.
  StoredRow** memo_rows = arena->AllocArray<StoredRow*>(n_rows);
  for (size_t u = 0; u < n_rows; ++u) {
    memo_rows[u] = NewMemoRow(*indices[u]);
    if (memo_rows[u] != nullptr) {
      std::copy(flat + u * stride_, flat + (u + 1) * stride_,
                memo_rows[u]->values.begin());
    }
  }
  for (size_t i = 0; i < n_stale; ++i) {
    Slot* slot = stale_slots[i];
    StoredRow* row = memo_rows[row_of[i]];
    if (row == nullptr) {
      row = OwnRow(slot);
      const double* q = flat + row_of[i] * stride_;
      std::copy(q, q + stride_, row->values.begin());
    }
    Attach(slot, row, *stale_states[i]);
  }
}

}  // namespace ams::core
