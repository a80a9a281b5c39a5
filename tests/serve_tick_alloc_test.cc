// Allocation-counting regression for the serving hot path: with the
// worker-affine scratch arena attached (the default for ItemStepper) and the
// kernel in lean mode, steady-state admission — re-arming a resident item
// record — and a steady-state Tick — batched Q refresh through the
// DecisionPlane, one kernel step per resident item, completion handling —
// must perform ZERO heap allocations once the first pass over the workload
// has sized every buffer. A warm lean Submit, which labels on the session's
// resident record, carries the same contract, and so does the raw-buffer
// Agent forward underneath, checked on its own. Filling a plane's row memo
// to its cap may allocate per slab and per index or key-pool growth, never
// per row. Cloning an agent allocates one copy of its weights and little
// more, and syncing a clone's weights allocates next to nothing. A warm
// admission queue fills and drains without allocating.
//
// The hook is a global operator new/delete replacement with flag-gated
// call and byte counters. It is compiled out under sanitizers (they
// interpose allocation themselves); the tests skip there.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/decision_plane.h"
#include "core/labeling_service.h"
#include "core/labeling_state.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "obs/trace.h"
#include "rl/agent.h"
#include "serve/admission_queue.h"
#include "util/arena.h"
#include "util/clock.h"
#include "util/rng.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AMS_ALLOC_HOOKS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define AMS_ALLOC_HOOKS 0
#else
#define AMS_ALLOC_HOOKS 1
#endif
#else
#define AMS_ALLOC_HOOKS 1
#endif

namespace ams::alloc_hooks {
std::atomic<bool> counting{false};
std::atomic<size_t> allocations{0};
std::atomic<size_t> bytes{0};
}  // namespace ams::alloc_hooks

#if AMS_ALLOC_HOOKS

namespace {

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (ams::alloc_hooks::counting.load(std::memory_order_relaxed)) {
    ams::alloc_hooks::allocations.fetch_add(1, std::memory_order_relaxed);
    ams::alloc_hooks::bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* ptr = nullptr;
  if (align <= alignof(std::max_align_t)) {
    ptr = std::malloc(size);
  } else if (posix_memalign(&ptr, align < sizeof(void*) ? sizeof(void*) : align,
                            size) != 0) {
    ptr = nullptr;
  }
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

#endif  // AMS_ALLOC_HOOKS

namespace ams {
namespace {

/// Runs `fn` with the allocation counters armed and returns how many heap
/// allocations it performed; `bytes`, when non-null, receives how many
/// bytes they asked for.
template <typename Fn>
size_t CountAllocations(Fn&& fn, size_t* bytes = nullptr) {
  alloc_hooks::allocations.store(0, std::memory_order_relaxed);
  alloc_hooks::bytes.store(0, std::memory_order_relaxed);
  alloc_hooks::counting.store(true, std::memory_order_relaxed);
  fn();
  alloc_hooks::counting.store(false, std::memory_order_relaxed);
  if (bytes != nullptr) {
    *bytes = alloc_hooks::bytes.load(std::memory_order_relaxed);
  }
  return alloc_hooks::allocations.load(std::memory_order_relaxed);
}

#if !AMS_ALLOC_HOOKS
#define AMS_SKIP_WITHOUT_ALLOC_HOOKS() \
  GTEST_SKIP() << "allocation hooks are disabled under sanitizers"
#else
#define AMS_SKIP_WITHOUT_ALLOC_HOOKS() (void)0
#endif

std::unique_ptr<rl::Agent> MakeAgent(int input_dim, int output_dim,
                                     nn::NetKind kind, uint64_t seed) {
  nn::MlpConfig config;
  config.input_dim = input_dim;
  config.hidden_dims = {24};
  config.output_dim = output_dim;
  std::unique_ptr<nn::QValueNet> net;
  if (kind == nn::NetKind::kDueling) {
    net = std::make_unique<nn::DuelingMlp>(config, seed);
  } else {
    net = std::make_unique<nn::Mlp>(config, seed);
  }
  return std::make_unique<rl::Agent>(std::move(net), kind);
}

TEST(AgentAllocTest, PredictValuesBatchToIsAllocationFreeAfterWarmup) {
  AMS_SKIP_WITHOUT_ALLOC_HOOKS();
  constexpr int kInput = 40;
  constexpr int kOutput = 9;
  constexpr size_t kRows = 6;
  for (const nn::NetKind kind : {nn::NetKind::kMlp, nn::NetKind::kDueling}) {
    std::unique_ptr<rl::Agent> agent = MakeAgent(kInput, kOutput, kind, 11);

    util::Rng rng(3);
    std::vector<std::vector<float>> rows(kRows,
                                         std::vector<float>(kInput, 0.0f));
    std::vector<std::vector<int>> indices(kRows);
    for (size_t r = 0; r < kRows; ++r) {
      // PredictValuesBatchTo takes ascending set-index hints.
      indices[r] = rng.SampleWithoutReplacement(kInput, 5);
      std::sort(indices[r].begin(), indices[r].end());
      for (const int i : indices[r]) rows[r][static_cast<size_t>(i)] = 1.0f;
    }
    std::vector<const std::vector<float>*> row_ptrs;
    std::vector<const std::vector<int>*> index_ptrs;
    for (size_t r = 0; r < kRows; ++r) {
      row_ptrs.push_back(&rows[r]);
      index_ptrs.push_back(&indices[r]);
    }
    std::vector<double> out(kRows * kOutput, 0.0);

    // Two warm-up passes size the pointer scratch and the net's activation
    // matrices; every later same-shape call must stay off the heap.
    for (int warm = 0; warm < 2; ++warm) {
      agent->PredictValuesBatchTo(row_ptrs.data(), index_ptrs.data(), kRows,
                                  out.data());
    }
    const size_t allocs = CountAllocations([&] {
      agent->PredictValuesBatchTo(row_ptrs.data(), index_ptrs.data(), kRows,
                                  out.data());
    });
    EXPECT_EQ(allocs, 0u) << "net kind " << static_cast<int>(kind);
  }
}

TEST(AgentAllocTest, LargerBatchesAllocateOnlyWhenABufferDoubles) {
  AMS_SKIP_WITHOUT_ALLOC_HOOKS();
  // A stepper's forwards grow now and then by a row. The caller's pointer
  // arrays go straight through to the net, and its output and activations
  // grow by Matrix::Resize, whose capacity at least doubles: warmed at 8
  // rows and then 9, every buffer holds 16 rows, so no call from 10 to 16
  // rows allocates.
  constexpr int kInput = 40;
  constexpr int kOutput = 9;
  constexpr size_t kMaxRows = 16;
  util::Rng rng(5);
  std::vector<std::vector<float>> rows(kMaxRows,
                                       std::vector<float>(kInput, 0.0f));
  std::vector<std::vector<int>> indices(kMaxRows);
  std::vector<const std::vector<float>*> row_ptrs;
  std::vector<const std::vector<int>*> index_ptrs;
  for (size_t r = 0; r < kMaxRows; ++r) {
    indices[r] = rng.SampleWithoutReplacement(kInput, 5);
    std::sort(indices[r].begin(), indices[r].end());
    for (const int i : indices[r]) rows[r][static_cast<size_t>(i)] = 1.0f;
    row_ptrs.push_back(&rows[r]);
    index_ptrs.push_back(&indices[r]);
  }
  std::vector<double> out(kMaxRows * kOutput, 0.0);
  for (const nn::NetKind kind : {nn::NetKind::kMlp, nn::NetKind::kDueling}) {
    std::unique_ptr<rl::Agent> agent = MakeAgent(kInput, kOutput, kind, 12);
    for (const size_t warm : {size_t{8}, size_t{9}}) {
      agent->PredictValuesBatchTo(row_ptrs.data(), index_ptrs.data(), warm,
                                  out.data());
    }
    for (size_t count = 10; count <= kMaxRows; ++count) {
      const size_t allocs = CountAllocations([&] {
        agent->PredictValuesBatchTo(row_ptrs.data(), index_ptrs.data(), count,
                                    out.data());
      });
      EXPECT_EQ(allocs, 0u)
          << "net kind " << static_cast<int>(kind) << ", " << count << " rows";
    }
  }
}

TEST(AgentAllocTest, CloneAllocatesOneCopyOfTheWeights) {
  AMS_SKIP_WITHOUT_ALLOC_HOOKS();
  // The paper's net, 1104 -> 256 -> 31 (1.1 MB of weights). A clone is
  // built without a random draw and gets the weights copied in, with no
  // checkpoint round trip and no gradient buffers, so it allocates its
  // parameters' bytes plus the objects around them. Syncing its weights
  // from the source copies in place and reports its size without creating
  // gradient buffers either.
  constexpr size_t kSlackBytes = 4096;
  nn::MlpConfig config;
  config.input_dim = 1104;
  config.hidden_dims = {256};
  config.output_dim = 31;
  for (const nn::NetKind kind : {nn::NetKind::kMlp, nn::NetKind::kDueling}) {
    std::unique_ptr<nn::QValueNet> net;
    if (kind == nn::NetKind::kDueling) {
      net = std::make_unique<nn::DuelingMlp>(config, 17);
    } else {
      net = std::make_unique<nn::Mlp>(config, 17);
    }
    const rl::Agent agent(std::move(net), kind);
    const size_t param_bytes =
        sizeof(float) * agent.Clone()->net()->NumParams();
    std::unique_ptr<rl::Agent> clone;
    size_t bytes = 0;
    CountAllocations([&] { clone = agent.Clone(); }, &bytes);
    EXPECT_GE(bytes, param_bytes) << "net kind " << static_cast<int>(kind);
    EXPECT_LE(bytes, param_bytes + kSlackBytes)
        << "net kind " << static_cast<int>(kind);

    std::unique_ptr<rl::Agent> source = agent.Clone();
    CountAllocations(
        [&] {
          ASSERT_TRUE(clone->SyncWeightsFrom(source.get()));
          EXPECT_EQ(clone->net()->NumParams() * sizeof(float), param_bytes);
        },
        &bytes);
    EXPECT_LE(bytes, kSlackBytes) << "net kind " << static_cast<int>(kind);
  }
}

// Rows written straight into the caller's buffer, so the predictor itself
// never allocates: entry a is a plus the state's set-label count.
class RawRowPredictor : public core::ModelValuePredictor {
 public:
  static constexpr int kActions = 31;

  std::vector<double> PredictValues(
      const std::vector<float>& features) override {
    const std::vector<float>* state = &features;
    std::vector<double> row(kActions);
    PredictValuesBatchTo(&state, nullptr, 1, row.data());
    return row;
  }
  void PredictValuesBatchTo(const std::vector<float>* const* states,
                            const std::vector<int>* const*, size_t count,
                            double* out) override {
    for (size_t i = 0; i < count; ++i) {
      double labels = 0.0;
      for (const float f : *states[i]) labels += f;
      for (int a = 0; a < kActions; ++a) *out++ = a + labels;
    }
  }
  int num_actions() const override { return kActions; }
};

TEST(RowMemoAllocTest, FillingTheMemoAllocatesPerSlabNotPerRow) {
  AMS_SKIP_WITHOUT_ALLOC_HOOKS();
  // A stepper's plane fills its row memo with kRowMemoCap distinct label
  // states, here subsets of 16 labels, 64 per Prefetch. Rows go to slabs,
  // keys to one pool and the index doubles, so the whole fill may allocate
  // only per slab and per growth, never per row.
  constexpr int kLabels = 16;
  constexpr int kBatch = 64;
  constexpr int kCap = static_cast<int>(core::DecisionPlane::kRowMemoCap);
  ASSERT_LE(kCap, 1 << kLabels);
  RawRowPredictor predictor;
  core::DecisionPlane plane(&predictor, core::DecisionRow::kSchedulingProfit,
                            /*memoize_rows=*/true);
  // Constructed in place: a state reserves its label lists up front, and a
  // copy would not keep the capacity.
  std::vector<core::LabelingState> states;
  states.reserve(kBatch);
  std::vector<core::DecisionPlane::SlotView> views;
  views.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    states.emplace_back(kLabels, RawRowPredictor::kActions - 1);
    views.emplace_back(plane.NewSlot(), &states.back());
  }
  util::Arena arena;

  const size_t allocs = CountAllocations([&] {
    for (int first = 0; first < kCap; first += kBatch) {
      for (int i = 0; i < kBatch; ++i) {
        core::LabelingState& state = states[static_cast<size_t>(i)];
        state.Reset();
        for (int label = 0; label < kLabels; ++label) {
          if ((first + i) & (1 << label)) state.SetLabel(label);
        }
        views[static_cast<size_t>(i)].first->Invalidate();
      }
      arena.Reset();
      plane.Prefetch(views, &arena);
    }
  });
  EXPECT_EQ(plane.batched_rows(), kCap);
  EXPECT_EQ(plane.memo_hits(), 0);
  EXPECT_LT(allocs, 256u);
}

TEST(AdmissionQueueAllocTest, WarmFillAndDrainAllocateNothing) {
  AMS_SKIP_WITHOUT_ALLOC_HOOKS();
  // The admission queue parks requests in a slot pool that grows to the
  // deepest fill and is reused from then on; its key arrays, sorted or
  // heaps, and its free list keep their capacity too. Once one fill to
  // 2,048 requests and a drain in 32-request batches has sized them, an
  // identical cycle allocates nothing. The requests and their promises are
  // built before each counted cycle, and the drained requests are
  // destroyed after it.
  constexpr int kDepth = 2048;
  constexpr int kBatch = 32;
  util::ManualClock clock;
  serve::AdmissionConfig config;
  config.capacity = kDepth;
  config.overload = serve::OverloadPolicy::kReject;
  config.clock = &clock;
  serve::AdmissionQueue queue(config);
  std::vector<serve::QueuedRequest> bounced;
  bounced.reserve(kDepth);
  std::vector<serve::QueuedRequest> drained;
  drained.reserve(kDepth);

  const auto make_requests = [] {
    std::vector<serve::QueuedRequest> requests(kDepth);
    for (int i = 0; i < kDepth; ++i) {
      serve::QueuedRequest& request = requests[static_cast<size_t>(i)];
      request.sequence = static_cast<uint64_t>(i);
      // Batch arrivals come in deadline order (their band stays sorted);
      // the other classes' do not (their bands turn into heaps).
      request.priority_class = static_cast<serve::PriorityClass>(i % 3);
      request.slack_s = request.priority_class == serve::PriorityClass::kBatch
                            ? 1.0
                            : 0.25 * static_cast<double>((i * 7) % 11);
      request.item = core::WorkItem::Stored(i);
    }
    return requests;
  };
  const auto fill_and_drain = [&](std::vector<serve::QueuedRequest>* requests) {
    for (serve::QueuedRequest& request : *requests) {
      queue.Enqueue(std::move(request), &bounced);
    }
    while (queue.TryPopBatch(kBatch, &drained) > 0) {
    }
  };

  std::vector<serve::QueuedRequest> requests = make_requests();
  fill_and_drain(&requests);
  ASSERT_EQ(drained.size(), static_cast<size_t>(kDepth));
  ASSERT_TRUE(bounced.empty());
  drained.clear();

  requests = make_requests();
  const size_t allocs = CountAllocations([&] { fill_and_drain(&requests); });
  EXPECT_EQ(allocs, 0u) << "a warm fill and drain touched the heap";
  ASSERT_EQ(drained.size(), static_cast<size_t>(kDepth));
  EXPECT_TRUE(bounced.empty());
  EXPECT_EQ(queue.size(), 0u);
}

class TickAllocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MirFlickr25(), zoo_->labels(), 48, 31));
    oracle_ = new data::Oracle(zoo_, dataset_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }

  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* TickAllocTest::zoo_ = nullptr;
data::Dataset* TickAllocTest::dataset_ = nullptr;
data::Oracle* TickAllocTest::oracle_ = nullptr;

TEST_F(TickAllocTest, SteadyStateLeanStepperTicksAreAllocationFree) {
  AMS_SKIP_WITHOUT_ALLOC_HOOKS();
  // Lean kernels reuse one scratch record per step; kFull materializes an
  // ExecutionRecord (outputs copy + fresh-label list) per execution event by
  // design, so the zero-allocation steady-state contract is lean-mode only.
  std::unique_ptr<rl::Agent> agent = MakeAgent(
      zoo_->labels().total_labels(), zoo_->num_models() + 1, nn::NetKind::kMlp,
      7);
  core::ScheduleConstraints constraints;
  constraints.time_budget_s = 1.0;
  constraints.memory_budget_mb = 8000.0;
  core::LabelingService session =
      core::LabelingServiceBuilder(zoo_)
          .WithOracle(oracle_)
          .WithPredictor(agent.get())
          .WithMode(core::ExecutionMode::kParallel)
          .WithConstraints(constraints)
          .WithKernelMode(core::KernelMode::kLean)
          .WithWorkers(1)
          .Build();
  std::unique_ptr<core::LabelingService::ItemStepper> stepper =
      session.NewItemStepper(0);

  constexpr int kItems = 8;
  constexpr int kTickBound = 10000;
  std::vector<core::LabelingService::ItemStepper::Completion> completed;
  completed.reserve(kItems * 2);

  // Warm-up pass: runs the full workload once, sizing the arena, the plane's
  // row memo + slot buffers, the agent's batch scratch, and the resident
  // item records (one per slot, each with its kernel's tables).
  for (int i = 0; i < kItems; ++i) {
    stepper->Admit(core::WorkItem::Stored(i), static_cast<uint64_t>(i));
  }
  for (int t = 0; !stepper->idle(); ++t) {
    ASSERT_LT(t, kTickBound) << "warm-up did not converge";
    stepper->Tick(&completed);
  }
  ASSERT_EQ(completed.size(), static_cast<size_t>(kItems));
  completed.clear();

  // Measured pass: identical workload. Admission re-arms the warm resident
  // records and every Tick reuses their buffers, so neither may allocate.
  for (int i = 0; i < kItems; ++i) {
    const size_t allocs = CountAllocations([&] {
      stepper->Admit(core::WorkItem::Stored(i), static_cast<uint64_t>(i));
    });
    EXPECT_EQ(allocs, 0u) << "admitting item " << i << " touched the heap";
  }
  int measured_ticks = 0;
  for (int t = 0; !stepper->idle(); ++t) {
    ASSERT_LT(t, kTickBound) << "measured pass did not converge";
    const size_t allocs = CountAllocations([&] { stepper->Tick(&completed); });
    EXPECT_EQ(allocs, 0u) << "tick " << t << " touched the heap";
    ++measured_ticks;
  }
  EXPECT_EQ(completed.size(), static_cast<size_t>(kItems));
  // The contract is about steady-state work, so the workload must actually
  // tick a few times (admission skips would trivially pass).
  EXPECT_GE(measured_ticks, 3);
}

TEST_F(TickAllocTest, TracedSteadyStateTicksAreStillAllocationFree) {
  AMS_SKIP_WITHOUT_ALLOC_HOOKS();
  // The obs:: contract: with a tracer attached and enabled, every tick
  // records kTick/kForward spans into the preallocated ring — and the
  // steady-state tick still never touches the heap. ScopedSpan lives on the
  // stack, Record() writes a claimed ring slot, and TickStats is plain
  // member assignment; nothing else is allowed in the instrumented path.
  std::unique_ptr<rl::Agent> agent = MakeAgent(
      zoo_->labels().total_labels(), zoo_->num_models() + 1, nn::NetKind::kMlp,
      7);
  core::ScheduleConstraints constraints;
  constraints.time_budget_s = 1.0;
  constraints.memory_budget_mb = 8000.0;
  core::LabelingService session =
      core::LabelingServiceBuilder(zoo_)
          .WithOracle(oracle_)
          .WithPredictor(agent.get())
          .WithMode(core::ExecutionMode::kParallel)
          .WithConstraints(constraints)
          .WithKernelMode(core::KernelMode::kLean)
          .WithWorkers(1)
          .Build();
  std::unique_ptr<core::LabelingService::ItemStepper> stepper =
      session.NewItemStepper(0);

  obs::Tracer tracer;
  obs::TraceBuffer* lane = tracer.EnsureLane(0, 0);
  stepper->AttachTracer(&tracer, lane, &util::Clock::Monotonic());

  constexpr int kItems = 8;
  constexpr int kTickBound = 10000;
  std::vector<core::LabelingService::ItemStepper::Completion> completed;
  completed.reserve(kItems * 2);

  for (int i = 0; i < kItems; ++i) {
    stepper->Admit(core::WorkItem::Stored(i), static_cast<uint64_t>(i));
  }
  for (int t = 0; !stepper->idle(); ++t) {
    ASSERT_LT(t, kTickBound) << "warm-up did not converge";
    stepper->Tick(&completed);
  }
  ASSERT_EQ(completed.size(), static_cast<size_t>(kItems));
  completed.clear();
  const uint64_t warmup_events = lane->recorded();
  EXPECT_GT(warmup_events, 0u) << "tracing was attached but recorded nothing";

  for (int i = 0; i < kItems; ++i) {
    const size_t allocs = CountAllocations([&] {
      stepper->Admit(core::WorkItem::Stored(i), static_cast<uint64_t>(i));
    });
    EXPECT_EQ(allocs, 0u) << "admitting item " << i << " touched the heap";
  }
  int measured_ticks = 0;
  for (int t = 0; !stepper->idle(); ++t) {
    ASSERT_LT(t, kTickBound) << "measured pass did not converge";
    const size_t allocs = CountAllocations([&] { stepper->Tick(&completed); });
    EXPECT_EQ(allocs, 0u) << "traced tick " << t << " touched the heap";
    ++measured_ticks;
  }
  EXPECT_EQ(completed.size(), static_cast<size_t>(kItems));
  EXPECT_GE(measured_ticks, 3);
  // The measured ticks were actually traced, not silently skipped.
  EXPECT_GT(lane->recorded(), warmup_events);
  EXPECT_TRUE(stepper->last_tick_stats().traced);
}

TEST_F(TickAllocTest, WarmLeanSubmitIsAllocationFree) {
  AMS_SKIP_WITHOUT_ALLOC_HOOKS();
  // Submit labels every item on the session's resident record: its private
  // plane, replay context and kernel tables are built by the first item and
  // re-armed for each later one, so once the workload has run once a lean
  // Submit of a stored item performs no heap allocation at all.
  std::unique_ptr<rl::Agent> agent = MakeAgent(
      zoo_->labels().total_labels(), zoo_->num_models() + 1, nn::NetKind::kMlp,
      7);
  core::ScheduleConstraints constraints;
  constraints.time_budget_s = 1.0;
  constraints.memory_budget_mb = 8000.0;
  core::LabelingService session =
      core::LabelingServiceBuilder(zoo_)
          .WithOracle(oracle_)
          .WithPredictor(agent.get())
          .WithMode(core::ExecutionMode::kParallel)
          .WithConstraints(constraints)
          .WithKernelMode(core::KernelMode::kLean)
          .WithWorkers(1)
          .Build();

  constexpr int kItems = 8;
  std::vector<int> warm_executions;
  for (int i = 0; i < kItems; ++i) {
    warm_executions.push_back(
        session.Submit(core::WorkItem::Stored(i)).schedule.num_executions);
  }
  int executions = 0;
  for (int i = 0; i < kItems; ++i) {
    core::LabelOutcome outcome;
    const size_t allocs = CountAllocations(
        [&] { outcome = session.Submit(core::WorkItem::Stored(i)); });
    EXPECT_EQ(allocs, 0u) << "submitting item " << i << " touched the heap";
    EXPECT_EQ(outcome.schedule.num_executions,
              warm_executions[static_cast<size_t>(i)]);
    executions += outcome.schedule.num_executions;
  }
  // The items must actually schedule work (skips would trivially pass).
  EXPECT_GE(executions, kItems);
}

}  // namespace
}  // namespace ams
