#ifndef AMS_CORE_DECISION_PLANE_H_
#define AMS_CORE_DECISION_PLANE_H_

#include <cstddef>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/labeling_state.h"
#include "core/predictor.h"
#include "util/arena.h"

namespace ams::core {

/// What a decision row holds. Fixed per plane by the pickers the plane
/// serves, so the row is transformed once when it is produced rather than
/// once per pick.
enum class DecisionRow {
  /// Raw predicted Q per action. The greedy picker compares each model's Q
  /// against END's, and in floating point SchedulingProfit ties values that
  /// Q separates: it clamps at q >= 10 and rounds very negative q to 0.
  kQ,
  /// SchedulingProfit(Q) per action: Algorithms 1 and 2 rank feasible
  /// models by profit per unit cost, never by Q itself.
  kSchedulingProfit,
};

/// The decision plane of the scheduling substrate: every picker query goes
/// through a DecisionPlane slot instead of hitting the predictor directly.
///
/// A slot caches one item's decision row keyed by the item's state version
/// (the labeling state changes exactly at finish events), so a pick round
/// costs at most one forward pass regardless of how many models it starts.
/// A row is the predictor's Q row passed through the plane's DecisionRow
/// transform, applied once per produced row before the row reaches the slot
/// or the row memo; a memo hit is a copy. On top of that,
/// LabelingService::ItemStepper, which multiplexes the serve:: runtime's
/// in-flight items, calls Prefetch() once per tick to coalesce all stale
/// slots into ONE batched forward pass — one prediction per tick instead of
/// one per item. Slots left stale still fall back to a single-row forward
/// (the per-item pickers of Submit/SubmitBatch never prefetch), so Prefetch
/// is an optimization, never a correctness requirement.
///
/// Not thread-safe: one plane per worker, like the predictor it wraps.
class DecisionPlane {
 public:
  /// `row` fixes what the plane's rows hold (see DecisionRow).
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

  /// One item's cached view of the predictor.
  class Slot {
   public:
    /// The decision row for `state`, one entry per action: served from
    /// cache when fresh, from the plane's row memo when the state was seen
    /// before, and otherwise computed with a single-row batched forward
    /// (the inference path, bitwise identical to PredictValues).
    const std::vector<double>& Row(const LabelingState& state);

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

    DecisionPlane* plane_;
    std::vector<double> row_;
    int labels_at_ = -1;  // num_labels_set() the cache was computed at
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
  /// (fresh slots are skipped; memo-servable slots are copied from the memo;
  /// an all-fresh call costs nothing). Identical states across items share
  /// one forward row, and each unique row is transformed once. Scratch — the
  /// stale list, the dedup tables and the flat result buffer — comes from
  /// `arena`, which the caller rewinds once per tick/round, so a steady-state
  /// refresh never mallocs. Arena storage is only used within the call. Rows
  /// are bitwise identical to the single-row path for batch-capable
  /// predictors.
  void Prefetch(const std::vector<SlotView>& views, util::Arena* arena);

  ModelValuePredictor* predictor() const { return predictor_; }
  DecisionRow row_kind() const { return row_kind_; }

  /// Unique rows computed by Prefetch's batched forwards so far.
  long batched_rows() const { return batched_rows_; }
  /// Rows served from the plane-lifetime row memo without any forward.
  long memo_hits() const { return memo_hits_; }

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

  /// Turns one freshly predicted Q row (stride_ entries) into this plane's
  /// decision row, in place.
  void ToDecisionRow(double* row) const;
  /// Serves `slot` from the plane-lifetime row memo; false on miss.
  bool ServeFromMemo(Slot* slot, const LabelingState& state);
  /// Memoizes a decision row (first-come bounded; see kRowMemoCap).
  void MemoizeRow(const std::vector<int>& indices, const double* row);

  /// Bound on memoized rows. ~31 doubles + key per entry keeps the memo in
  /// the tens of MB at the cap; beyond it new states simply stay unmemoized
  /// (first-come: the common early states are exactly the hot ones).
  static constexpr size_t kRowMemoCap = 32768;

  ModelValuePredictor* predictor_;
  DecisionRow row_kind_;
  size_t stride_ = 0;  // entries per row: predictor_->num_actions()
  std::deque<Slot> slots_;  // deque: slot pointers must stay stable
  /// Plane-lifetime decision-row memo keyed by state signature: items pass
  /// through shared sparse label-states (every item starts all-zero, common
  /// label combinations recur across items), so a long-lived driver — the
  /// serve runtime's steppers above all — serves most decision points
  /// without any forward pass or transform at steady state. Sound because a
  /// plane wraps one frozen predictor instance (the same assumption every
  /// slot cache already makes), and rows are bitwise identical however they
  /// were computed.
  std::unordered_map<std::vector<int>, std::vector<double>, IndexListHash>
      row_memo_;
  bool memoize_rows_ = false;
  long batched_rows_ = 0;
  long memo_hits_ = 0;
};

}  // namespace ams::core

#endif  // AMS_CORE_DECISION_PLANE_H_
