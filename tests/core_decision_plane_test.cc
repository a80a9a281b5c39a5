// Locks DecisionPlane's lazy decision rows. A kSchedulingProfit row keeps
// the predictor's Q values and replaces an entry by SchedulingProfit(q) the
// first time a RowView reads it, so every entry read must equal
// SchedulingProfit(q) bit for bit, and profit_evaluations() must count one
// transform per (label state, action) read: none for a second read, none
// for a slot served the same state from the row memo, and none on a kQ
// plane, which returns raw Q. The Q rows include the transform's edge
// cases: q at and above its clamp at 10, q so negative that exp underflows
// to 0, and q == 0. Slots point into the row memo, so its rows must never
// move: one case fills the memo past kRowMemoCap and reads its first row
// through a slot attached before the fill.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "core/decision_plane.h"
#include "core/labeling_state.h"
#include "util/arena.h"

namespace ams::core {
namespace {

constexpr int kActions = 31;  // 30 models and END, as in the zoo
constexpr int kLabels = 16;
constexpr int kModels = kActions - 1;
// Q of the first actions at every state: above and at the profit clamp,
// below exp underflow, zero, and two ordinary values.
constexpr double kEdgeQ[] = {12.0, 10.5, 10.0, -300.0, -400.0, 0.0, 1.5,
                             -2.25};
constexpr int kEdges = sizeof(kEdgeQ) / sizeof(kEdgeQ[0]);

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// The edge values, then ordinary values shifted by the state's set labels,
// so distinct states have distinct rows.
class EdgeQPredictor : public ModelValuePredictor {
 public:
  std::vector<double> PredictValues(
      const std::vector<float>& features) override {
    return Q(features);
  }
  int num_actions() const override { return kActions; }

  static std::vector<double> Q(const std::vector<float>& features) {
    double shift = 0.0;
    for (size_t i = 0; i < features.size(); ++i) {
      if (features[i] != 0.0f) shift += 0.03125 * static_cast<double>(i + 1);
    }
    std::vector<double> q(kActions);
    for (int a = 0; a < kActions; ++a) {
      q[static_cast<size_t>(a)] =
          a < kEdges ? kEdgeQ[a] : -3.0 + 0.25 * a + shift;
    }
    return q;
  }
};

// Rows that tell every state apart: entry a is 0.125 a - 1 plus the state's
// label set read as a binary fraction.
class StateCodeQPredictor : public ModelValuePredictor {
 public:
  std::vector<double> PredictValues(
      const std::vector<float>& features) override {
    return Q(features);
  }
  int num_actions() const override { return kActions; }

  static std::vector<double> Q(const std::vector<float>& features) {
    double code = 0.0;
    for (size_t i = 0; i < features.size(); ++i) {
      if (features[i] != 0.0f) {
        code += std::ldexp(1.0, static_cast<int>(i) - kLabels);
      }
    }
    std::vector<double> q(kActions);
    for (int a = 0; a < kActions; ++a) {
      q[static_cast<size_t>(a)] = 0.125 * a - 1.0 + code;
    }
    return q;
  }
};

class WideQPredictor : public ModelValuePredictor {
 public:
  std::vector<double> PredictValues(const std::vector<float>&) override {
    return std::vector<double>(65, 0.0);
  }
  int num_actions() const override { return 65; }
};

LabelingState StateWith(std::initializer_list<int> labels) {
  LabelingState state(kLabels, kModels);
  for (const int label : labels) state.SetLabel(label);
  return state;
}

// Sets `state` to the labels whose bits `subset` holds.
void SetSubset(LabelingState* state, int subset) {
  state->Reset();
  for (int label = 0; label < kLabels; ++label) {
    if (subset & (1 << label)) state->SetLabel(label);
  }
}

// Reads `actions` of `slot`'s row at `state` through one RowView and
// expects each to be the plane's decision value for the state's Q, as
// `Predictor` computes it.
template <typename Predictor = EdgeQPredictor>
void ExpectRow(DecisionPlane::Slot* slot, const LabelingState& state,
               const std::vector<int>& actions) {
  const std::vector<double> q = Predictor::Q(state.Features());
  const bool profit =
      slot->plane()->row_kind() == DecisionRow::kSchedulingProfit;
  DecisionPlane::RowView row = slot->Row(state);
  for (const int a : actions) {
    const double want = profit ? SchedulingProfit(q[static_cast<size_t>(a)])
                               : q[static_cast<size_t>(a)];
    EXPECT_EQ(Bits(row[a]), Bits(want)) << "action " << a;
  }
}

std::vector<int> Actions(int first, int step) {
  std::vector<int> actions;
  for (int a = first; a < kActions; a += step) actions.push_back(a);
  return actions;
}

TEST(DecisionPlaneTest, ProfitRowTransformsEachEntryOnceOnFirstRead) {
  // The edge cases really are edges: the clamp ties q >= 10 and exp
  // underflow ties very negative q at 0.
  ASSERT_EQ(SchedulingProfit(12.0), SchedulingProfit(10.0));
  ASSERT_EQ(SchedulingProfit(-300.0), 0.0);

  EdgeQPredictor predictor;
  DecisionPlane plane(&predictor, DecisionRow::kSchedulingProfit);
  DecisionPlane::Slot* slot = plane.NewSlot();
  const LabelingState state = StateWith({2, 5});

  ExpectRow(slot, state, Actions(0, 2));  // the 16 even actions
  EXPECT_EQ(plane.profit_evaluations(), 16);
  ExpectRow(slot, state, Actions(0, 1));  // all: only the odd ones are new
  EXPECT_EQ(plane.profit_evaluations(), kActions);
  ExpectRow(slot, state, Actions(0, 1));
  EXPECT_EQ(plane.profit_evaluations(), kActions);

  // A new label state is a new row of Q values.
  const LabelingState next = StateWith({2, 5, 9});
  ExpectRow(slot, next, Actions(0, 1));
  EXPECT_EQ(plane.profit_evaluations(), 2 * kActions);
  EXPECT_EQ(plane.memo_hits(), 0);
}

TEST(DecisionPlaneTest, QRowReturnsRawQAndEvaluatesNothing) {
  EdgeQPredictor predictor;
  DecisionPlane plane(&predictor, DecisionRow::kQ, /*memoize_rows=*/true);
  DecisionPlane::Slot* first = plane.NewSlot();
  DecisionPlane::Slot* second = plane.NewSlot();
  const LabelingState state = StateWith({1});
  ExpectRow(first, state, Actions(0, 1));
  ExpectRow(second, state, Actions(0, 1));  // a memo hit
  EXPECT_EQ(plane.memo_hits(), 1);
  EXPECT_EQ(plane.profit_evaluations(), 0);
}

TEST(DecisionPlaneTest, MemoRowIsSharedBetweenSlots) {
  EdgeQPredictor predictor;
  DecisionPlane plane(&predictor, DecisionRow::kSchedulingProfit,
                      /*memoize_rows=*/true);
  DecisionPlane::Slot* first = plane.NewSlot();
  DecisionPlane::Slot* second = plane.NewSlot();
  const LabelingState state = StateWith({0, 7});

  ExpectRow(first, state, Actions(0, 2));
  EXPECT_EQ(plane.profit_evaluations(), 16);
  // The second slot points at the memo's row: the profits the first slot
  // stored serve it, and what it transforms serves the first.
  ExpectRow(second, state, Actions(0, 1));
  EXPECT_EQ(plane.memo_hits(), 1);
  EXPECT_EQ(plane.profit_evaluations(), kActions);
  ExpectRow(first, state, Actions(0, 1));
  EXPECT_EQ(plane.profit_evaluations(), kActions);
}

TEST(DecisionPlaneTest, DuplicateStatesInOnePrefetchShareOneForwardRow) {
  EdgeQPredictor predictor;
  for (const bool memoize : {true, false}) {
    SCOPED_TRACE(memoize ? "memoized plane" : "private plane");
    DecisionPlane plane(&predictor, DecisionRow::kSchedulingProfit, memoize);
    DecisionPlane::Slot* a = plane.NewSlot();
    DecisionPlane::Slot* b = plane.NewSlot();
    DecisionPlane::Slot* c = plane.NewSlot();
    const LabelingState x1 = StateWith({3, 4});
    const LabelingState x2 = StateWith({3, 4});
    const LabelingState y = StateWith({3});
    util::Arena arena;
    plane.Prefetch({{a, &x1}, {b, &x2}, {c, &y}}, &arena);
    EXPECT_EQ(plane.batched_rows(), 2);
    EXPECT_EQ(plane.memo_hits(), 0);

    ExpectRow(a, x1, Actions(0, 1));
    EXPECT_EQ(plane.profit_evaluations(), kActions);
    // With the memo, b shares a's row; without it, b holds its own copy of
    // the forward row and transforms it itself.
    ExpectRow(b, x2, Actions(0, 1));
    const long after_b = memoize ? kActions : 2 * kActions;
    EXPECT_EQ(plane.profit_evaluations(), after_b);
    ExpectRow(c, y, Actions(0, 1));
    EXPECT_EQ(plane.profit_evaluations(), after_b + kActions);

    // Fresh slots are skipped: no forward, no memo lookup.
    plane.Prefetch({{a, &x1}, {b, &x2}, {c, &y}}, &arena);
    EXPECT_EQ(plane.batched_rows(), 2);
    EXPECT_EQ(plane.memo_hits(), 0);
  }
}

TEST(DecisionPlaneTest, PastTheMemoCapRowsLandInSlotBuffers) {
  EdgeQPredictor predictor;
  DecisionPlane plane(&predictor, DecisionRow::kSchedulingProfit,
                      /*memoize_rows=*/true);
  // Fill the memo with exactly kRowMemoCap states: every subset of the
  // first 15 labels.
  ASSERT_EQ(DecisionPlane::kRowMemoCap, size_t{1} << 15);
  DecisionPlane::Slot* filler = plane.NewSlot();
  LabelingState state(kLabels, kModels);
  for (int subset = 0; subset < (1 << 15); ++subset) {
    state.Reset();
    for (int label = 0; label < 15; ++label) {
      if (subset & (1 << label)) state.SetLabel(label);
    }
    filler->Invalidate();
    ExpectRow(filler, state, {kEdges});
  }
  EXPECT_EQ(plane.profit_evaluations(), 1 << 15);
  EXPECT_EQ(plane.memo_hits(), 0);
  long evaluations = plane.profit_evaluations();

  // A state past the cap: two slots each get the row in their own buffer
  // and transform it themselves, through the single-row path and through
  // Prefetch alike.
  const LabelingState past = StateWith({15});
  DecisionPlane::Slot* a = plane.NewSlot();
  DecisionPlane::Slot* b = plane.NewSlot();
  ExpectRow(a, past, Actions(0, 1));
  ExpectRow(b, past, Actions(0, 1));
  evaluations += 2 * kActions;
  EXPECT_EQ(plane.profit_evaluations(), evaluations);
  EXPECT_EQ(plane.memo_hits(), 0);

  const LabelingState also_past = StateWith({0, 15});
  DecisionPlane::Slot* c = plane.NewSlot();
  DecisionPlane::Slot* d = plane.NewSlot();
  util::Arena arena;
  plane.Prefetch({{c, &also_past}, {d, &also_past}}, &arena);
  EXPECT_EQ(plane.batched_rows(), 1);
  ExpectRow(c, also_past, Actions(0, 1));
  ExpectRow(d, also_past, Actions(0, 1));
  evaluations += 2 * kActions;
  EXPECT_EQ(plane.profit_evaluations(), evaluations);

  // States memoized before the cap are still served, and shared.
  const LabelingState early = StateWith({0, 2});
  ExpectRow(a, early, Actions(0, 1));
  EXPECT_EQ(plane.memo_hits(), 1);
  EXPECT_EQ(plane.profit_evaluations(), evaluations + kActions - 1);
}

TEST(DecisionPlaneTest, MemoRowsStayInPlaceWhileTheMemoFillsPastItsCap) {
  StateCodeQPredictor predictor;
  DecisionPlane plane(&predictor, DecisionRow::kSchedulingProfit,
                      /*memoize_rows=*/true);
  // The memo's first row, the empty state's, read in part by a slot that
  // stays attached to it.
  const LabelingState empty = StateWith({});
  DecisionPlane::Slot* early = plane.NewSlot();
  ExpectRow<StateCodeQPredictor>(early, empty, Actions(0, 2));
  long evaluations = plane.profit_evaluations();

  // Fill the memo through Prefetch, 64 states a call, past kRowMemoCap:
  // the states are subsets 1 to kStates of the 16 labels (subset 0 is the
  // empty state). This crosses every slab and every index growth, and the
  // states past the cap land in slot buffers.
  constexpr int kBatch = 64;
  constexpr int kCap = static_cast<int>(DecisionPlane::kRowMemoCap);
  constexpr int kStates = kCap + 4 * kBatch;
  ASSERT_LT(kStates, 1 << kLabels);
  std::vector<DecisionPlane::Slot*> slots;
  std::vector<LabelingState> states(kBatch, LabelingState(kLabels, kModels));
  for (int i = 0; i < kBatch; ++i) slots.push_back(plane.NewSlot());
  util::Arena arena;
  std::vector<DecisionPlane::SlotView> views;
  for (int first = 1; first <= kStates; first += kBatch) {
    views.clear();
    for (int i = 0; i < kBatch; ++i) {
      SetSubset(&states[static_cast<size_t>(i)], first + i);
      slots[static_cast<size_t>(i)]->Invalidate();
      views.emplace_back(slots[static_cast<size_t>(i)],
                         &states[static_cast<size_t>(i)]);
    }
    arena.Reset();
    plane.Prefetch(views, &arena);
  }
  EXPECT_EQ(plane.batched_rows(), kStates);
  EXPECT_EQ(plane.memo_hits(), 0);

  // The early slot still reads its row where it was, bit for bit, and
  // transforms the odd entries in place: a slot the memo serves the empty
  // state now finds every entry transformed.
  ExpectRow<StateCodeQPredictor>(early, empty, Actions(0, 1));
  evaluations += kActions / 2;
  EXPECT_EQ(plane.profit_evaluations(), evaluations);
  DecisionPlane::Slot* late = plane.NewSlot();
  ExpectRow<StateCodeQPredictor>(late, empty, Actions(0, 1));
  EXPECT_EQ(plane.memo_hits(), 1);
  EXPECT_EQ(plane.profit_evaluations(), evaluations);

  // Every memoized state, queried again in reverse insertion order, is a
  // memo hit with its own row; the states past the cap are not.
  LabelingState state(kLabels, kModels);
  long hits = plane.memo_hits();
  for (int subset = kStates; subset >= 1; --subset) {
    SetSubset(&state, subset);
    late->Invalidate();
    ExpectRow<StateCodeQPredictor>(late, state, {kEdges});
    if (subset < kCap) ++hits;
    ASSERT_EQ(plane.memo_hits(), hits) << "subset " << subset;
  }
  EXPECT_EQ(plane.memo_hits(), kCap);
  EXPECT_EQ(plane.profit_evaluations(), evaluations + kStates);
}

TEST(DecisionPlaneDeathTest, RowsTrackAtMost64Actions) {
  WideQPredictor predictor;
  EXPECT_DEATH(DecisionPlane(&predictor, DecisionRow::kSchedulingProfit),
               "64-bit mask");
}

}  // namespace
}  // namespace ams::core
