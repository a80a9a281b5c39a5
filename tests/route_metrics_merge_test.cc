// Regression lock for the cross-shard metrics merge policy: counters SUM,
// high-water gauges take the MAX. An aggregation bug here is invisible in
// single-shard runs and quietly poisons capacity planning in sharded ones —
// a 4-shard cluster reporting arena_high_water_bytes as the SUM of four
// identical high-water marks would claim 4x the scratch footprint any
// worker ever had. The audit behind this PR found Metrics::MergeFrom
// already max-merges every high-water gauge (arena_high_water_bytes,
// forward_rows_max, histogram max); these tests pin
// that policy down so it cannot regress silently.
//
// Gauge taxonomy, as documented in serve/metrics.h:
//   - high-water marks (arena_high_water_bytes, forward_rows_max,
//     LatencyHistogram::max): max-merged — "the largest any shard ever
//     saw" is the only cluster reading that means anything;
//   - instantaneous occupancy (queue_depth, in_flight): summed — cluster
//     occupancy really is the sum of per-shard occupancies.

#include <gtest/gtest.h>

#include <vector>

#include "route/aggregated_metrics.h"
#include "serve/metrics.h"

namespace ams::route {
namespace {

using serve::Metrics;

/// Four shard registries with identical phase activity — the worst case
/// for a sum-vs-max confusion, because the wrong merge is exactly 4x the
/// right one (never accidentally equal).
void FillIdentically(Metrics* metrics) {
  metrics->enqueued.store(100);
  metrics->completed.store(90);
  metrics->rejected.store(10);
  metrics->queue_depth.store(5);
  metrics->in_flight.store(3);
  // Real recording paths, not raw stores: RecordTick/RecordForward own the
  // CAS-max updates under audit here.
  metrics->RecordTick(/*tick_s=*/1e-4, /*arena_used_bytes=*/4096);
  metrics->RecordTick(/*tick_s=*/2e-4, /*arena_used_bytes=*/8192);
  metrics->RecordForward(/*forward_s=*/5e-5, /*rows=*/6);
  metrics->RecordForward(/*forward_s=*/8e-5, /*rows=*/12);
  metrics->queue_delay.Record(0.002);
  metrics->queue_delay.Record(0.004);
}

TEST(MetricsMergeTest, HighWaterGaugesMergeAsMaxNotSum) {
  constexpr int kShards = 4;
  std::vector<Metrics> shards(kShards);
  for (Metrics& shard : shards) FillIdentically(&shard);

  Metrics merged;
  for (const Metrics& shard : shards) merged.MergeFrom(shard);

  // Counters: per-shard activity sums across the cluster.
  EXPECT_EQ(merged.enqueued.load(), 400);
  EXPECT_EQ(merged.completed.load(), 360);
  EXPECT_EQ(merged.rejected.load(), 40);
  EXPECT_EQ(merged.forward_batches.load(), 8);
  EXPECT_EQ(merged.forward_rows.load(), 72);

  // Occupancy gauges: summed by design (cluster occupancy is additive).
  EXPECT_EQ(merged.queue_depth.load(), 20);
  EXPECT_EQ(merged.in_flight.load(), 12);

  // High-water gauges: the aggregate of four identical shards must read
  // exactly one shard's high water, not four times it.
  EXPECT_EQ(merged.arena_high_water_bytes.load(), 8192);
  EXPECT_EQ(merged.forward_rows_max.load(), 12);
  EXPECT_EQ(merged.queue_delay.max(), 0.004);
  EXPECT_EQ(merged.tick_duration.max(), 2e-4);
  EXPECT_EQ(merged.forward_duration.max(), 8e-5);
}

TEST(MetricsMergeTest, MaxMergeKeepsTheLargestShardNotTheLast) {
  // Unequal shards: the max must win regardless of merge order.
  Metrics low;
  Metrics high;
  low.RecordTick(1e-4, 1000);
  low.RecordForward(1e-5, 3);
  low.queue_delay.Record(0.001);
  high.RecordTick(1e-4, 9000);
  high.RecordForward(1e-5, 40);
  high.queue_delay.Record(0.009);

  Metrics high_then_low;
  high_then_low.MergeFrom(high);
  high_then_low.MergeFrom(low);
  Metrics low_then_high;
  low_then_high.MergeFrom(low);
  low_then_high.MergeFrom(high);

  for (const Metrics* merged : {&high_then_low, &low_then_high}) {
    EXPECT_EQ(merged->arena_high_water_bytes.load(), 9000);
    EXPECT_EQ(merged->forward_rows_max.load(), 40);
    EXPECT_EQ(merged->queue_delay.max(), 0.009);
  }
}

TEST(MetricsMergeTest, AggregatedMetricsViewAppliesTheSamePolicy) {
  // The router's actual aggregation path (AggregatedMetrics::MergeInto)
  // must inherit the policy — it delegates to MergeFrom, and this pins
  // that it keeps doing so.
  constexpr int kShards = 4;
  std::vector<Metrics> shards(kShards);
  for (Metrics& shard : shards) FillIdentically(&shard);
  std::vector<const Metrics*> pointers;
  for (const Metrics& shard : shards) pointers.push_back(&shard);

  Metrics merged;
  AggregatedMetrics(pointers).MergeInto(&merged);
  EXPECT_EQ(merged.enqueued.load(), 400);
  EXPECT_EQ(merged.arena_high_water_bytes.load(), 8192);
  EXPECT_EQ(merged.forward_rows_max.load(), 12);
  EXPECT_EQ(merged.queue_delay.max(), 0.004);
}

}  // namespace
}  // namespace ams::route
