// Tests for the observability subsystem (src/obs/): event counters,
// latency histograms, the StatsRegistry, and the per-structure
// CollectStats hooks. Event-counter expectations branch on
// obs::kStatsEnabled so the same test source passes in both the default
// and the DAVINCI_STATS=OFF (CI preset `stats-off`) builds — in the OFF
// build every hook must compile to a no-op and report zero.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/concurrent_davinci.h"
#include "core/davinci_sketch.h"
#include "core/element_filter.h"
#include "core/frequent_part.h"
#include "core/infrequent_part.h"
#include "obs/health.h"
#include "obs/stats.h"

namespace davinci {
namespace {

uint64_t IfEnabled(uint64_t value) { return obs::kStatsEnabled ? value : 0; }

TEST(EventCounterTest, CompilesToNoOpWhenStatsOff) {
  obs::EventCounter counter;
  counter.Inc();
  counter.Inc(41);
  EXPECT_EQ(counter.value(), IfEnabled(42));
#ifndef DAVINCI_STATS
  // The stats-off stub must never accumulate anything.
  EXPECT_EQ(counter.value(), 0u);
#endif
}

TEST(LatencyHistogramTest, PercentilesBracketRecordedValues) {
  obs::LatencyHistogram histogram;
  // 97% of samples at 100ns, a 3% tail at 100µs: p50 reports the 100ns
  // bucket, p99 the tail bucket.
  for (int i = 0; i < 97; ++i) histogram.Record(100);
  for (int i = 0; i < 3; ++i) histogram.Record(100000);
  EXPECT_EQ(histogram.Count(), 100u);
  EXPECT_EQ(histogram.MaxNanos(), 100000u);
  // Log-scale bucket upper bound for values in [64, 127] is 127.
  EXPECT_GE(histogram.PercentileNanos(0.50), 100u);
  EXPECT_LE(histogram.PercentileNanos(0.50), 127u);
  // The tail bucket's nominal bound (131071) is clamped to the observed
  // maximum.
  EXPECT_EQ(histogram.PercentileNanos(0.99), 100000u);
  // p=0 degrades to the smallest non-empty bucket.
  EXPECT_LE(histogram.PercentileNanos(0.0), 127u);
}

TEST(StatsRegistryTest, CountersAndJsonDump) {
  obs::StatsRegistry registry;
  registry.Counter("inserts") += 3;
  registry.Counter("inserts") += 4;
  registry.Histogram("op_ns").Record(1000);
  std::ostringstream out;
  registry.DumpJson(out);
  std::string json = out.str();
  EXPECT_NE(json.find("\"inserts\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"op_ns\":{\"count\":1"), std::string::npos) << json;
  registry.Reset();
  EXPECT_EQ(registry.Counter("inserts").load(), 0u);
}

TEST(FrequentPartStatsTest, CaseCountersConserveInserts) {
  FrequentPart fp(1, 2, /*evict_lambda=*/1, /*seed=*/3);
  // Two slots, one bucket: two distinct keys fill, a third key exercises
  // the eviction/rejection path, repeats hit.
  for (int round = 0; round < 4; ++round) {
    for (uint32_t key = 1; key <= 5; ++key) fp.Insert(key, 1);
  }
  obs::FpHealth health;
  fp.CollectStats(&health);
  EXPECT_EQ(health.buckets, 1u);
  EXPECT_EQ(health.slots, 2u);
  EXPECT_EQ(health.live_slots, 2u);
  EXPECT_EQ(health.inserts, IfEnabled(20));
  // Every insert lands in exactly one of the four Algorithm-1 cases.
  EXPECT_EQ(health.hits + health.fills + health.evictions + health.rejections,
            health.inserts);
}

TEST(ElementFilterStatsTest, DistinctKeysPastThresholdCountPromotions) {
  constexpr int kKeys = 50;
  ElementFilter ef(4096, {8, 16}, /*threshold=*/16, /*seed=*/5);
  int promotions_seen = 0;
  for (uint32_t key = 1; key <= kKeys; ++key) {
    // 20 > T=16: every key overflows past the filter exactly once,
    // regardless of tower collisions (the overflow can only grow).
    if (ef.Insert(key, 20) != 0) ++promotions_seen;
  }
  EXPECT_EQ(promotions_seen, kKeys);
  obs::EfHealth health;
  ef.CollectStats(&health);
  EXPECT_EQ(health.threshold, 16);
  EXPECT_EQ(health.inserts, IfEnabled(kKeys));
  EXPECT_EQ(health.promotions, IfEnabled(kKeys));
  // Each key promoted at least 20 - 16 = 4 units.
  EXPECT_GE(health.promoted_units, IfEnabled(4 * kKeys));
  ASSERT_EQ(health.levels.size(), 2u);
  EXPECT_EQ(health.levels[0].bits, 8);
  EXPECT_EQ(health.levels[1].bits, 16);
  // The 8-bit level absorbed real traffic: some slots are non-zero.
  EXPECT_LT(health.levels[0].zeros, health.levels[0].width);
}

TEST(InfrequentPartStatsTest, CorruptedBucketSurfacesAsRejectedDecode) {
  InfrequentPart ifp(3, 64, /*use_signs=*/true, /*seed=*/9);
  ElementFilter ef(4096, {8, 16}, /*threshold=*/16, /*seed=*/9);
  // The IFP holds a flow the element filter never saw — the state the
  // paper's double verification exists to reject (a "pure-looking" bucket
  // whose candidate fails the cross-check).
  ifp.Insert(777, 5);
  auto flows = ifp.Decode(&ef);
  EXPECT_TRUE(flows.empty());
  obs::IfpHealth health;
  ifp.CollectStats(&health);
  EXPECT_EQ(health.rows, 3u);
  EXPECT_EQ(health.inserts, IfEnabled(1));
  EXPECT_EQ(health.decode_runs, IfEnabled(1));
  EXPECT_EQ(health.decoded_flows, 0u);
  EXPECT_GE(health.decode_rejected_by_filter, IfEnabled(1));
  // One insert touched one bucket per row.
  EXPECT_EQ(health.empty_buckets, 3u * 64u - 3u);
}

TEST(DaVinciSketchStatsTest, SnapshotReflectsStreamAndBuildMode) {
  constexpr size_t kInserts = 20000;
  DaVinciSketch sketch(64 * 1024, 11);
  for (uint32_t i = 0; i < kInserts; ++i) sketch.Insert(i % 997, 1);
  (void)sketch.Query(1);
  obs::HealthSnapshot snapshot;
  sketch.CollectStats(&snapshot);
  EXPECT_EQ(snapshot.stats_enabled, obs::kStatsEnabled);
  EXPECT_EQ(snapshot.shards, 1u);
  EXPECT_EQ(snapshot.memory_bytes, sketch.MemoryBytes());
  EXPECT_EQ(snapshot.inserts, IfEnabled(kInserts));
  EXPECT_EQ(snapshot.queries, IfEnabled(1));
  // Structural fields are live in BOTH build modes: 997 distinct flows
  // must occupy frequent-part slots.
  EXPECT_GT(snapshot.fp.live_slots, 0u);
  EXPECT_GT(snapshot.fp.Occupancy(), 0.0);
  ASSERT_FALSE(snapshot.ef.levels.empty());

  std::ostringstream out;
  snapshot.WriteJson(out);
  std::string json = out.str();
  for (const char* field : {"\"stats_enabled\"", "\"fp\"", "\"ef\"",
                            "\"ifp\"", "\"occupancy\"", "\"levels\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << " in " << json;
  }
}

TEST(DaVinciSketchStatsTest, CopiesShareThePublishedDecode) {
  DaVinciSketch original(64 * 1024, 15);
  for (uint32_t i = 0; i < 20000; ++i) original.Insert(i % 1500, 1 + i % 7);
  auto decode_runs = [](const DaVinciSketch& sketch) {
    obs::HealthSnapshot snapshot;
    sketch.CollectStats(&snapshot);
    return snapshot.ifp.decode_runs;
  };
  std::vector<uint32_t> keys;
  for (uint32_t key = 0; key < 1600; ++key) keys.push_back(key);

  const auto& decoded = original.DecodedFlows();
  ASSERT_FALSE(decoded.empty());
  const std::vector<int64_t> counts = original.QueryBatch(keys);
  const auto hitters = original.HeavyHitters(100);
  const auto distribution = original.Distribution();
  EXPECT_EQ(decode_runs(original), IfEnabled(1));

  // Copies, assignments and snapshots taken after the decode share its
  // map and answer bit-identically without a second peel (the IFP tally
  // travels with the copied part, so 1 means "no peel of its own").
  DaVinciSketch copy = original;
  DaVinciSketch assigned(64 * 1024, 15);
  assigned = original;
  const auto view = original.Snapshot();
  const DaVinciSketch* sharers[] = {&copy, &assigned, &view->sketch()};
  for (const DaVinciSketch* sketch : sharers) {
    EXPECT_EQ(&sketch->DecodedFlows(), &decoded);
    EXPECT_EQ(sketch->QueryBatch(keys), counts);
    EXPECT_EQ(sketch->HeavyHitters(100), hitters);
    EXPECT_EQ(sketch->Distribution(), distribution);
    EXPECT_EQ(decode_runs(*sketch), IfEnabled(1));
  }

  // A write to the copy drops only the copy's map.
  copy.Insert(1600, 5000);
  EXPECT_EQ(&original.DecodedFlows(), &decoded);
  EXPECT_EQ(original.QueryBatch(keys), counts);
  EXPECT_EQ(decode_runs(original), IfEnabled(1));
  (void)copy.DecodedFlows();
  EXPECT_EQ(decode_runs(copy), IfEnabled(2));
}

TEST(ConcurrentDaVinciStatsTest, AggregatesAcrossShards) {
  constexpr size_t kInserts = 10000;
  ConcurrentDaVinci sketch(4, 256 * 1024, 13);
  for (uint32_t i = 0; i < kInserts; ++i) sketch.Insert(i, 1);
  obs::HealthSnapshot snapshot;
  sketch.CollectStats(&snapshot);
  EXPECT_EQ(snapshot.shards, 4u);
  EXPECT_EQ(snapshot.inserts, IfEnabled(kInserts));
  EXPECT_EQ(snapshot.memory_bytes, sketch.MemoryBytes());
  // Per-shard FP case conservation survives aggregation.
  EXPECT_EQ(snapshot.fp.hits + snapshot.fp.fills + snapshot.fp.evictions +
                snapshot.fp.rejections,
            snapshot.inserts);
}

}  // namespace
}  // namespace davinci
