#include "core/decision_plane.h"

#include <algorithm>
#include <memory>

#include "util/check.h"

namespace ams::core {

DecisionPlane::DecisionPlane(ModelValuePredictor* predictor, DecisionRow row,
                             bool memoize_rows)
    : predictor_(predictor), row_kind_(row), memoize_rows_(memoize_rows) {
  AMS_CHECK(predictor != nullptr);
  stride_ = static_cast<size_t>(predictor->num_actions());
  AMS_CHECK(stride_ <= 64,
            "a decision row tracks its transformed entries in a 64-bit mask");
  row_words_ = stride_ + 1;
  // Raw Q is already a kQ row's value.
  new_row_mask_ = row_kind_ == DecisionRow::kQ ? ~uint64_t{0} : 0;
}

uint32_t DecisionPlane::KeyHash(const std::vector<int>& indices) {
  uint64_t h = 1469598103934665603ull;
  for (const int i : indices) {
    h ^= static_cast<uint64_t>(i) + 0x9E3779B9u;
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

bool DecisionPlane::KeyIs(uint32_t row,
                          const std::vector<int>& indices) const {
  const uint32_t begin = key_begin_[row];
  const size_t n = indices.size();
  if (key_begin_[row + 1] - begin != n) return false;
  // No early exit, so the compare vectorizes.
  const uint16_t* key = memo_keys_.data() + begin;
  unsigned diff = 0;
  for (size_t i = 0; i < n; ++i) {
    diff |= static_cast<unsigned>(indices[i]) ^ key[i];
  }
  return diff == 0;
}

bool DecisionPlane::ServeFromMemo(Slot* slot, const LabelingState& state,
                                  uint32_t hash) {
  if (memo_index_.empty()) return false;
  const size_t mask = memo_index_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexEntry entry = memo_index_[i];
    if (entry.row == 0) return false;
    if (entry.hash == hash && KeyIs(entry.row - 1, state.SetIndices())) {
      Attach(slot, MemoRow(entry.row - 1), state);
      ++memo_hits_;
      return true;
    }
  }
}

void DecisionPlane::InsertEntry(std::vector<IndexEntry>* index,
                                IndexEntry entry) {
  const size_t mask = index->size() - 1;
  size_t i = entry.hash & mask;
  while ((*index)[i].row != 0) i = (i + 1) & mask;
  (*index)[i] = entry;
}

void DecisionPlane::GrowIndex() {
  std::vector<IndexEntry> grown(memo_index_.size() * 2, IndexEntry{0, 0});
  for (const IndexEntry entry : memo_index_) {
    if (entry.row != 0) InsertEntry(&grown, entry);
  }
  memo_index_.swap(grown);
}

double* DecisionPlane::NewMemoRow(const LabelingState& state, uint32_t hash) {
  if (!memoize_rows_ || memo_rows_ >= kRowMemoCap) return nullptr;
  if (memo_index_.empty()) {
    // Every state of a plane has the predictor's label count.
    AMS_CHECK(state.num_labels() <= 65536,
              "row memo keys hold label ids as uint16_t");
    memo_index_.assign(kMinIndexEntries, IndexEntry{0, 0});
    key_begin_.reserve(kRowMemoCap + 1);
    key_begin_.push_back(0);
  } else if (2 * (size_t{memo_rows_} + 1) > memo_index_.size()) {
    GrowIndex();
  }
  const uint32_t row = memo_rows_++;
  InsertEntry(&memo_index_, IndexEntry{hash, row + 1});
  for (const int label : state.SetIndices()) {
    memo_keys_.push_back(static_cast<uint16_t>(label));
  }
  key_begin_.push_back(static_cast<uint32_t>(memo_keys_.size()));
  if (row % kSlabRows == 0) {
    // Left uninitialized: the forward writes the values, and the pages of a
    // slab's unused rows stay out of the resident set.
    Slab& slab = slabs_[row / kSlabRows];
    const size_t words = kSlabRows * row_words_;
    constexpr size_t kSpare = kSlabAlign / sizeof(double) - 1;
    slab.storage.reset(new double[words + kSpare]);
    void* rows = slab.storage.get();
    size_t space = (words + kSpare) * sizeof(double);
    slab.rows = static_cast<double*>(
        std::align(kSlabAlign, words * sizeof(double), rows, space));
  }
  double* memo_row = MemoRow(row);
  StoreMask(memo_row, new_row_mask_);
  return memo_row;
}

double* DecisionPlane::OwnRow(Slot* slot) const {
  slot->own_.resize(row_words_);
  StoreMask(slot->own_.data(), new_row_mask_);
  return slot->own_.data();
}

void DecisionPlane::Attach(Slot* slot, double* row,
                           const LabelingState& state) {
  slot->row_ = row;
  slot->labels_at_ = state.num_labels_set();
}

void DecisionPlane::ForwardRow(const LabelingState& state, double* row) {
  // One row through the batched inference forward rather than
  // PredictValues: the rows are bitwise identical, but the scalar entry is
  // the training forward, which caches activations for Backward and
  // allocates on every call.
  const std::vector<float>* features = &state.Features();
  const std::vector<int>* indices = &state.SetIndices();
  predictor_->PredictValuesBatchTo(&features, &indices, 1, row + 1);
}

void DecisionPlane::AttachOpeningRow(Slot* slot, const LabelingState& state) {
  if (opening_.empty()) {
    // After a drop, resize reuses the buffer.
    opening_.resize(row_words_);
    StoreMask(opening_.data(), new_row_mask_);
    ForwardRow(state, opening_.data());
  }
  Attach(slot, opening_.data(), state);
}

void DecisionPlane::Slot::Refresh(const LabelingState& state) {
  if (!plane_->memoize_rows_ && state.num_labels_set() == 0) {
    plane_->AttachOpeningRow(this, state);
    return;
  }
  const uint32_t hash =
      plane_->memoize_rows_ ? KeyHash(state.SetIndices()) : 0;
  if (plane_->ServeFromMemo(this, state, hash)) return;
  double* row = plane_->NewMemoRow(state, hash);
  if (row == nullptr) row = plane_->OwnRow(this);
  plane_->ForwardRow(state, row);
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
  uint32_t* stale_hashes = arena->AllocArray<uint32_t>(views.size());
  size_t n_stale = 0;
  for (const SlotView& view : views) {
    AMS_CHECK(view.first != nullptr && view.second != nullptr);
    if (view.first->Fresh(*view.second)) continue;
    // States seen before — by any item, any time in the plane's life — are
    // served straight from the row memo without a forward pass.
    const uint32_t hash =
        memoize_rows_ ? KeyHash(view.second->SetIndices()) : 0;
    if (ServeFromMemo(view.first, *view.second, hash)) continue;
    stale_slots[n_stale] = view.first;
    stale_states[n_stale] = view.second;
    stale_hashes[n_stale] = hash;
    ++n_stale;
  }
  if (n_stale == 0) return;

  // Deduplicate identical states across items: items resident in one tick
  // share feature vectors often (every item starts all-zero, and sparse label
  // states collide), and the predictor is a pure function of the features,
  // so duplicates ride along on one forward row. This cross-item sharing is
  // exactly what per-item caches cannot see. States are compared through
  // their sorted set-index lists — tens of ints instead of the full
  // 1000+-entry feature vector — which fully determine the binary features
  // (on a memoizing plane, their hashes first).
  const std::vector<float>** features =
      arena->AllocArray<const std::vector<float>*>(n_stale);
  const std::vector<int>** indices =
      arena->AllocArray<const std::vector<int>*>(n_stale);
  size_t* first_of = arena->AllocArray<size_t>(n_stale);
  size_t* row_of = arena->AllocArray<size_t>(n_stale);
  size_t n_rows = 0;
  for (size_t i = 0; i < n_stale; ++i) {
    const std::vector<int>& idx = stale_states[i]->SetIndices();
    size_t row = n_rows;
    for (size_t u = 0; u < n_rows; ++u) {
      if (stale_hashes[first_of[u]] == stale_hashes[i] &&
          indices[u]->size() == idx.size() &&
          std::equal(idx.begin(), idx.end(), indices[u]->begin())) {
        row = u;
        break;
      }
    }
    if (row == n_rows) {
      features[n_rows] = &stale_states[i]->Features();
      indices[n_rows] = &idx;
      first_of[n_rows] = i;
      ++n_rows;
    }
    row_of[i] = row;
  }

  double* flat = arena->AllocArray<double>(n_rows * stride_);
  predictor_->PredictValuesBatchTo(features, indices, n_rows, flat);
  batched_rows_ += static_cast<long>(n_rows);
  // A unique row the memo takes is shared in place by every stale slot at
  // its state; a row it does not take is copied into each one's own buffer.
  double** memo_rows = arena->AllocArray<double*>(n_rows);
  for (size_t u = 0; u < n_rows; ++u) {
    memo_rows[u] = NewMemoRow(*stale_states[first_of[u]],
                              stale_hashes[first_of[u]]);
    if (memo_rows[u] != nullptr) {
      std::copy(flat + u * stride_, flat + (u + 1) * stride_,
                memo_rows[u] + 1);
    }
  }
  for (size_t i = 0; i < n_stale; ++i) {
    Slot* slot = stale_slots[i];
    double* row = memo_rows[row_of[i]];
    if (row == nullptr) {
      row = OwnRow(slot);
      const double* q = flat + row_of[i] * stride_;
      std::copy(q, q + stride_, row + 1);
    }
    Attach(slot, row, *stale_states[i]);
  }
}

}  // namespace ams::core
