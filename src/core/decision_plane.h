#ifndef AMS_CORE_DECISION_PLANE_H_
#define AMS_CORE_DECISION_PLANE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
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
/// (a memo hit copies nothing), the opening row (below) in the plane, any
/// other row in the slot's own buffer. On
/// top of that, LabelingService::ItemStepper, which multiplexes the serve::
/// runtime's in-flight items, calls Prefetch() once per tick to coalesce all
/// stale slots into ONE batched forward pass — one prediction per tick
/// instead of one per item. Slots left stale still fall back to a
/// single-row forward (the per-item pickers of Submit/SubmitBatch never
/// prefetch), so Prefetch is an optimization, never a correctness
/// requirement.
///
/// Every item opens on the state with no labels set, so a plane without a
/// row memo keeps that state's row, the opening row, after the single-row
/// path first forwards it: every later item's first pick reads it, and the
/// profits earlier picks transformed in it, without a forward. A
/// SubmitBatch worker builds its plane per call over a predictor clone
/// synced at the call's start, so the empty state is forwarded once per
/// worker per call instead of once per item. Like a slot's cached row, the
/// opening row is right only while the predictor stays frozen: Submit's
/// plane outlives calls and wraps the session's own predictor, which may
/// change between calls, so Submit drops it (DropOpeningRow) at every call.
/// A memoizing plane's memo already holds the empty state's row.
///
/// Not thread-safe: one plane per worker, like the predictor it wraps.
/// Picks write the profits they compute back into shared rows (memo rows,
/// the opening row), so two threads must never read rows of one plane
/// either.
class DecisionPlane {
 public:
  class Slot;  // declared ahead: RowView's constructor is Slot's alone

  /// `row` fixes what the plane's rows read as (see DecisionRow); the
  /// predictor's action count must fit a row's 64-bit transformed mask.
  /// `memoize_rows` opts into the plane-lifetime row memo (see slabs_
  /// below): computed rows are kept keyed by state signature and later
  /// queries for the same state skip the forward pass entirely. Worth it
  /// only for long-lived planes (the serve runtime's steppers, where steady
  /// state becomes mostly memo hits). A per-call plane pays the inserts
  /// without living long enough to profit, and the opening row alone saves
  /// more than a per-call memo would: the empty state is 1.0 of the 4.99
  /// rows each SubmitBatch item forwarded, and 30.0 of its 45.8 profit
  /// transforms (1,667 offline_batch items on one worker). In a
  /// one-worker SubmitBatch harness (1,667-item calls, 200 rounds
  /// alternating in one process; 4-vCPU Intel Xeon KVM guest, g++ 12.2
  /// Release), a per-call flat memo took 8.7% off the CPU per item and the
  /// opening row 10.8%: the opening row read 2.0% below the memo (138 of
  /// 200 rounds) with no key hashing and no slab fills, so SubmitBatch
  /// keeps memo-less per-record planes.
  DecisionPlane(ModelValuePredictor* predictor, DecisionRow row,
                bool memoize_rows = false);

  /// Bound on memoized rows; beyond it new states simply stay unmemoized
  /// (first-come: the common early states are exactly the hot ones) and
  /// their rows live in slot buffers. A full memo of 31-action rows holds
  /// about 10 MB: 8 MB of rows, 1.4 MB of keys (22.7 labels a key on
  /// mscoco states), a 0.5 MB index and 0.1 MB of key offsets. One
  /// stepper's resident set (VmRSS) grew by 11.6 MB from its first admit
  /// until its memo was full: one ItemStepper over the album_cold stack
  /// (50,000 mscoco items, 32 resident, 9,909 items served; g++ 12.2
  /// Release on x86-64 Linux). Each serving worker adds that much.
  static constexpr size_t kRowMemoCap = 32768;

  // One state's decision row is num_actions() + 1 doubles in a row: first
  // the mask of the entries that already read as the plane's DecisionRow
  // value (its 64 bits kept in the first double's storage, read and written
  // through memcpy), then the net's Q values, one per action. A kQ row
  // starts with every bit set (raw Q is its value); a kSchedulingProfit row
  // starts with none, and a pick sets bit a when it replaces entry a by
  // SchedulingProfit(entry a).

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
      StoreMask(values_ - 1, transformed_);
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
    RowView(double* row, long* evaluations)
        : values_(row + 1),
          transformed_(LoadMask(row)),
          evaluations_(evaluations) {}

    double* values_;  // the row's Q values; its mask word sits just before
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
    /// previous one whenever their label counts match. A stale row of the
    /// empty state is the one exception, and only under a frozen
    /// predictor: every item's first query is at the empty state, and its
    /// row is a function of the predictor alone, which is why the plane
    /// keeps it as the opening row. After the predictor changed between two
    /// items (Submit decides from the session's own predictor) that row is
    /// stale too: invalidating the slot then refreshes it only together
    /// with DropOpeningRow.
    void Invalidate() { labels_at_ = -1; }

    DecisionPlane* plane() const { return plane_; }

   private:
    friend class DecisionPlane;
    explicit Slot(DecisionPlane* plane) : plane_(plane) {}

    /// Points the slot at `state`'s row, from the memo or a forward.
    void Refresh(const LabelingState& state);

    DecisionPlane* plane_;
    double* row_ = nullptr;    // a row memo row or own_.data()
    std::vector<double> own_;  // the row when the memo does not hold it
    int labels_at_ = -1;       // num_labels_set() the cache was computed at
  };

  /// A (slot, state) pair eligible for batched refresh.
  using SlotView = std::pair<Slot*, const LabelingState*>;

  /// Creates a stale slot owned by the plane (pointer stays valid for the
  /// plane's lifetime). Callers keep a slot per resident item record and
  /// Invalidate() it for each new item, so a long-lived driver admitting an
  /// unbounded stream of items (serve::ServerRuntime) holds a bounded slot
  /// set.
  Slot* NewSlot();

  /// Forgets the opening row, so the next slot refreshed at the empty state
  /// forwards it again; its buffer is kept. For a plane whose predictor may
  /// have changed since the row was forwarded. A slot attached to the row
  /// must be invalidated as well, or it keeps reading the old values.
  void DropOpeningRow() { opening_.clear(); }

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
  /// Memo rows per slab: 128 KB of 31-action rows, so a full memo takes 64
  /// slabs and a memo of a few thousand rows only a few.
  static constexpr size_t kSlabRows = 512;
  /// Bytes a slab's first row is aligned to: a cache line, so a 31-action
  /// row of 32 doubles spans exactly four.
  static constexpr size_t kSlabAlign = 64;
  /// The memo index's first size, in entries; it doubles at load 1/2, up to
  /// 2 * kRowMemoCap entries for a full memo.
  static constexpr size_t kMinIndexEntries = 16;

  /// One open-addressed index entry: the key's 32-bit hash and its row
  /// number plus one (0 marks an empty entry).
  struct IndexEntry {
    uint32_t hash;
    uint32_t row;
  };
  /// kSlabRows memo rows in one allocation; `rows` is its first row.
  struct Slab {
    std::unique_ptr<double[]> storage;
    double* rows = nullptr;
  };

  /// Reads and writes a row's mask word.
  static uint64_t LoadMask(const double* row) {
    uint64_t mask = 0;
    std::memcpy(&mask, row, sizeof(mask));
    return mask;
  }
  static void StoreMask(double* row, uint64_t mask) {
    std::memcpy(row, &mask, sizeof(mask));
  }
  /// FNV-1a over a state's sorted set-index list — the state's identity
  /// (the binary features are fully determined by the set indices) —
  /// folded to 32 bits.
  static uint32_t KeyHash(const std::vector<int>& indices);

  /// Memo row `row`, in place in its slab.
  double* MemoRow(uint32_t row) const {
    return slabs_[row / kSlabRows].rows + (row % kSlabRows) * row_words_;
  }
  /// True when memo row `row`'s key is `indices`.
  bool KeyIs(uint32_t row, const std::vector<int>& indices) const;
  /// Points `slot` at the plane's memo row for `state`, whose key hashes to
  /// `hash`; false on miss.
  bool ServeFromMemo(Slot* slot, const LabelingState& state, uint32_t hash);
  /// A new memo row for `state`, whose key hashes to `hash`, marked
  /// untransformed for the Q values about to be written (first-come
  /// bounded; see kRowMemoCap), or null when the plane does not memoize or
  /// is full. Only for a state the memo does not hold.
  double* NewMemoRow(const LabelingState& state, uint32_t hash);
  /// Puts `entry` in the first empty entry of its probe sequence.
  static void InsertEntry(std::vector<IndexEntry>* index, IndexEntry entry);
  /// Doubles the memo index and re-inserts its entries.
  void GrowIndex();
  /// `slot`'s own buffer, sized and marked untransformed likewise.
  double* OwnRow(Slot* slot) const;
  /// Writes `state`'s Q values after `row`'s mask word, with one single-row
  /// forward.
  void ForwardRow(const LabelingState& state, double* row);
  /// Points `slot` at the opening row for the empty `state`, forwarding it
  /// first when the plane holds none.
  void AttachOpeningRow(Slot* slot, const LabelingState& state);
  /// Points `slot` at `row` as the row for `state`.
  void Attach(Slot* slot, double* row, const LabelingState& state);

  ModelValuePredictor* predictor_;
  DecisionRow row_kind_;
  size_t stride_ = 0;  // entries per row: predictor_->num_actions()
  size_t row_words_ = 0;  // doubles per row: the mask word and stride_ values
  uint64_t new_row_mask_ = 0;  // the mask of a fresh row
  std::deque<Slot> slots_;  // deque: slot pointers must stay stable
  /// The empty state's row on a plane without a memo, or empty when the
  /// plane holds none (never forwarded, or dropped).
  std::vector<double> opening_;
  /// Plane-lifetime decision-row memo keyed by state signature: items pass
  /// through shared sparse label-states (every item starts all-zero, common
  /// label combinations recur across items), so a long-lived driver — the
  /// serve runtime's steppers above all — serves most decision points
  /// without any forward pass at steady state, and each profit it reads was
  /// transformed once for every item that reaches the state. Sound because
  /// a plane wraps one frozen predictor instance (the same assumption every
  /// slot cache already makes), and rows are bitwise identical however they
  /// were computed. The memo is flat, and a plane allocates none of it
  /// before its first insert (a plane that never memoizes, none at all):
  /// - rows, numbered in insertion order, live in slabs of kSlabRows rows
  ///   allocated as the memo grows; slabs never move and the memo never
  ///   erases, so slots point into them in place;
  /// - row r's key, the state's sorted set indices narrowed to uint16_t
  ///   (label ids stop at 1,103; the first insert checks the width), is
  ///   memo_keys_[key_begin_[r], key_begin_[r + 1]), one pool for all keys;
  /// - memo_index_ finds a key's row by linear probing over 8-byte entries.
  ///   It doubles at load 1/2, up to 2 * kRowMemoCap entries, so a memo of
  ///   a few thousand rows keeps a small, cache-resident index.
  /// A hit reads the probed index entries, the key and the row. Filling the
  /// memo allocates once per slab and per growth, never per row.
  Slab slabs_[kRowMemoCap / kSlabRows];
  std::vector<uint16_t> memo_keys_;
  std::vector<uint32_t> key_begin_;  // memo rows + 1 offsets once nonempty
  std::vector<IndexEntry> memo_index_;  // a power of two entries, or none
  uint32_t memo_rows_ = 0;
  bool memoize_rows_ = false;
  long batched_rows_ = 0;
  long memo_hits_ = 0;
  long profit_evaluations_ = 0;
};

}  // namespace ams::core

#endif  // AMS_CORE_DECISION_PLANE_H_
