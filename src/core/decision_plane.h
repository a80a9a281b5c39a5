#ifndef AMS_CORE_DECISION_PLANE_H_
#define AMS_CORE_DECISION_PLANE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/labeling_state.h"
#include "core/predictor.h"
#include "util/arena.h"

namespace ams::core {

/// What a decision row's entries read as. Fixed per plane by the pickers the
/// plane serves.
enum class DecisionRow {
  /// Raw predicted Q per action. The greedy picker compares each model's Q
  /// against END's, and in floating point SchedulingProfit ties values that
  /// Q separates: it clamps at q >= 10 and rounds very negative q to 0.
  kQ,
  /// SchedulingProfit(Q) per action: Algorithms 1 and 2 rank feasible
  /// models by profit per unit cost, never by Q itself. A row stores the
  /// net's Q values and replaces an entry by its profit the first time a
  /// picker reads it (see RowView), so only the models a picker scores are
  /// transformed, once per label state.
  kSchedulingProfit,
};

/// The decision plane of the scheduling substrate: every picker query goes
/// through a DecisionPlane slot instead of hitting the predictor directly.
///
/// A slot caches one item's decision row keyed by the item's state version
/// (the labeling state changes exactly at finish events), so a pick round
/// costs at most one forward pass regardless of how many models it starts.
/// A row holds the predictor's Q values as PredictValuesBatchTo produced
/// them, plus a mask of the entries already turned into the plane's
/// DecisionRow value; pickers read it through a RowView, which does the
/// turning on first read. A slot refers to its row in place: a memoized row
/// lives in the plane's row memo and is shared by every slot at that state
/// (a memo hit copies nothing), any other row in the slot's own buffer. On
/// top of that, LabelingService::ItemStepper, which multiplexes the serve::
/// runtime's in-flight items, calls Prefetch() once per tick to coalesce all
/// stale slots into ONE batched forward pass — one prediction per tick
/// instead of one per item. Slots left stale still fall back to a
/// single-row forward (the per-item pickers of Submit/SubmitBatch never
/// prefetch), so Prefetch is an optimization, never a correctness
/// requirement.
///
/// Not thread-safe: one plane per worker, like the predictor it wraps.
/// Picks write the profits they compute back into shared memo rows, so two
/// threads must never read rows of one plane either.
class DecisionPlane {
 public:
  class Slot;  // declared ahead: RowView's constructor is Slot's alone

  /// `row` fixes what the plane's rows read as (see DecisionRow); the
  /// predictor's action count must fit a row's 64-bit transformed mask.
  /// `memoize_rows` opts into the plane-lifetime row memo (see row_memo_
  /// below): computed rows are kept keyed by state signature and later
  /// queries for the same state skip the forward pass entirely. Worth it
  /// only for long-lived planes (the serve runtime's steppers, where steady
  /// state becomes mostly memo hits). A per-call plane pays the inserts
  /// without living long enough to profit: a SubmitBatch driver that ticked
  /// a fresh stepper per call measured 33.6-37.0 us per item with the memo
  /// and 27.2-34.7 us without it on one worker over 5,000-item calls
  /// (4-vCPU Xeon guest, g++ 12.2 Release), and the per-item path it would
  /// have replaced beat both, so SubmitBatch keeps per-item pickers.
  DecisionPlane(ModelValuePredictor* predictor, DecisionRow row,
                bool memoize_rows = false);

  /// Bound on memoized rows; beyond it new states simply stay unmemoized
  /// (first-come: the common early states are exactly the hot ones) and
  /// their rows live in slot buffers. A full memo holds about 15 MB: one
  /// stepper's resident set grew by 15.1 MB while its memo filled on
  /// mscoco label states (31 actions, about 9,900 album_cold items, g++
  /// 12.2 on x86-64 Linux), so each serving worker adds that much.
  static constexpr size_t kRowMemoCap = 32768;

  /// One state's decision row: the net's Q values, one per action, and the
  /// mask of the entries that already read as the plane's DecisionRow value.
  /// A kQ row starts with every bit set (raw Q is its value); a
  /// kSchedulingProfit row starts with none, and a pick sets bit a when it
  /// replaces entry a by SchedulingProfit(entry a).
  struct StoredRow {
    std::vector<double> values;
    uint64_t transformed = 0;
  };

  /// One pick's view of a slot's decision row (Slot::Row). Reading entry `a`
  /// returns raw Q on a kQ plane and SchedulingProfit(Q) on a
  /// kSchedulingProfit plane, computed the first time any pick reads it and
  /// stored back into the row, so the transform runs at most once per
  /// (label state, action) and only for the actions a picker scores. The
  /// mask lives in the view for the pick and is stored back once, when the
  /// view goes away; hold a view only within one pick, one at a time per
  /// row.
  class RowView {
   public:
    RowView(const RowView&) = delete;
    RowView& operator=(const RowView&) = delete;
    ~RowView() {
      // Nothing new: leave a shared memo row's cache line clean.
      if (evaluated_ == 0) return;
      row_->transformed = transformed_;
      *evaluations_ += evaluated_;
    }

    double operator[](int a) {
      if (((transformed_ >> a) & 1) == 0) {
        values_[a] = SchedulingProfit(values_[a]);
        transformed_ |= uint64_t{1} << a;
        ++evaluated_;
      }
      return values_[a];
    }

   private:
    friend class Slot;
    RowView(StoredRow* row, long* evaluations)
        : row_(row),
          values_(row->values.data()),
          transformed_(row->transformed),
          evaluations_(evaluations) {}

    StoredRow* row_;
    double* values_;
    uint64_t transformed_;
    long* evaluations_;
    long evaluated_ = 0;
  };

  /// One item's cached view of the predictor.
  class Slot {
   public:
    /// The decision row for `state`: from cache when fresh, from the
    /// plane's row memo when the state was seen before, and otherwise
    /// computed with a single-row batched forward (the inference path,
    /// bitwise identical to PredictValues). Inline, so the view lives in the
    /// picker's registers rather than in memory the transform's libm calls
    /// could reach.
    RowView Row(const LabelingState& state) {
      if (!Fresh(state)) Refresh(state);
      return RowView(row_, &plane_->profit_evaluations_);
    }

    /// True when the cache already matches `state` (no forward pass
    /// needed). Keyed on the number of set labels, not executions: the
    /// Q-net's input is the label bit-vector alone, so an execution that
    /// emitted nothing fresh cannot change any predicted value — a large
    /// fraction of per-event recomputes skip entirely.
    bool Fresh(const LabelingState& state) const {
      return labels_at_ == state.num_labels_set();
    }

    /// Marks the cache stale. A slot that moves on to another item must be
    /// invalidated first (LabelingService's resident item records do so on
    /// every re-arm): freshness is keyed on the label count alone, so a
    /// slot left valid would hand the next item the row cached for the
    /// previous one whenever their label counts match. Each item's first
    /// query is at the empty state, so with a frozen predictor that row is
    /// the empty state's and still right; after the predictor changed
    /// between the two items (Submit decides from the session's own
    /// predictor) it is stale.
    void Invalidate() { labels_at_ = -1; }

    DecisionPlane* plane() const { return plane_; }

   private:
    friend class DecisionPlane;
    explicit Slot(DecisionPlane* plane) : plane_(plane) {}

    /// Points the slot at `state`'s row, from the memo or a forward.
    void Refresh(const LabelingState& state);

    DecisionPlane* plane_;
    StoredRow* row_ = nullptr;  // a row_memo_ entry or &own_
    StoredRow own_;             // the row when the memo does not hold it
    int labels_at_ = -1;        // num_labels_set() the cache was computed at
  };

  /// A (slot, state) pair eligible for batched refresh.
  using SlotView = std::pair<Slot*, const LabelingState*>;

  /// Creates a stale slot owned by the plane (pointer stays valid for the
  /// plane's lifetime). Callers keep a slot per resident item record and
  /// Invalidate() it for each new item, so a long-lived driver admitting an
  /// unbounded stream of items (serve::ServerRuntime) holds a bounded slot
  /// set.
  Slot* NewSlot();

  /// Refreshes every stale slot among `views` with one batched forward pass
  /// (fresh slots are skipped; memo-servable slots point at the memo's row;
  /// an all-fresh call costs nothing). Identical states across items share
  /// one forward row. Scratch — the stale list, the dedup tables and the
  /// flat result buffer — comes from `arena`, which the caller rewinds once
  /// per tick/round, so a steady-state refresh never mallocs. Arena storage
  /// is only used within the call. Rows are bitwise identical to the
  /// single-row path for batch-capable predictors.
  void Prefetch(const std::vector<SlotView>& views, util::Arena* arena);

  ModelValuePredictor* predictor() const { return predictor_; }
  DecisionRow row_kind() const { return row_kind_; }

  /// Unique rows computed by Prefetch's batched forwards so far.
  long batched_rows() const { return batched_rows_; }
  /// Rows served from the plane-lifetime row memo without any forward.
  long memo_hits() const { return memo_hits_; }
  /// SchedulingProfit evaluations made by picks reading rows so far (zero
  /// on a kQ plane).
  long profit_evaluations() const { return profit_evaluations_; }

 private:
  /// FNV-1a over a state's sorted set-index list — the state's identity
  /// (the binary features are fully determined by the set indices).
  struct IndexListHash {
    size_t operator()(const std::vector<int>& indices) const {
      size_t h = 1469598103934665603ull;
      for (const int i : indices) {
        h ^= static_cast<size_t>(i) + 0x9E3779B9u;
        h *= 1099511628211ull;
      }
      return h;
    }
  };

  /// Points `slot` at the plane's row memo entry for `state`; false on miss.
  bool ServeFromMemo(Slot* slot, const LabelingState& state);
  /// A new row memo entry for `indices`, sized and marked untransformed
  /// for the Q values about to be written (first-come bounded; see
  /// kRowMemoCap), or null when the plane does not memoize or is full.
  StoredRow* NewMemoRow(const std::vector<int>& indices);
  /// `slot`'s own buffer, sized and marked untransformed likewise.
  StoredRow* OwnRow(Slot* slot) const;
  /// Points `slot` at `row` as the row for `state`.
  void Attach(Slot* slot, StoredRow* row, const LabelingState& state);

  ModelValuePredictor* predictor_;
  DecisionRow row_kind_;
  size_t stride_ = 0;  // entries per row: predictor_->num_actions()
  uint64_t new_row_mask_ = 0;  // StoredRow::transformed of a fresh row
  std::deque<Slot> slots_;  // deque: slot pointers must stay stable
  /// Plane-lifetime decision-row memo keyed by state signature: items pass
  /// through shared sparse label-states (every item starts all-zero, common
  /// label combinations recur across items), so a long-lived driver — the
  /// serve runtime's steppers above all — serves most decision points
  /// without any forward pass at steady state, and each profit it reads was
  /// transformed once for every item that reaches the state. Sound because
  /// a plane wraps one frozen predictor instance (the same assumption every
  /// slot cache already makes), and rows are bitwise identical however they
  /// were computed. Slots point into it: unordered_map nodes never move and
  /// the memo never erases.
  std::unordered_map<std::vector<int>, StoredRow, IndexListHash> row_memo_;
  bool memoize_rows_ = false;
  long batched_rows_ = 0;
  long memo_hits_ = 0;
  long profit_evaluations_ = 0;
};

}  // namespace ams::core

#endif  // AMS_CORE_DECISION_PLANE_H_
