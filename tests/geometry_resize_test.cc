// Dynamic geometry acceptance tests (DESIGN.md §12): the GeometryRelation
// admission lattice, the DaVinciSketch::Resize rebuild/replay contract
// (bit-identity when the EF does not carry, bounded error on all nine
// tasks when it does), seal-boundary resize in EpochManager, the
// non-blocking shard-by-shard ConcurrentDaVinci resize, the continuous
// AutotuneController policy, and the ResizeHealth provenance record.
//
// The accuracy legs reuse the accuracy_regression_test fixture idiom
// (seeded Zipf trace, GroundTruth, pinned bounds ~2x the error observed
// at pin time — loosened further here because a resize deliberately
// forfeits the EF residue when the tower cannot carry over).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.h"
#include "core/autotune.h"
#include "core/concurrent_davinci.h"
#include "core/davinci_sketch.h"
#include "core/epoch_manager.h"
#include "metrics/metrics.h"
#include "obs/health.h"
#include "test_seed.h"
#include "workload/ground_truth.h"
#include "workload/trace.h"

namespace davinci {
namespace {

using GeometryRelation = DaVinciConfig::GeometryRelation;

bool Identical(const DaVinciConfig& a, const DaVinciConfig& b) {
  return DaVinciConfig::GeometryCompatible(a, b) ==
         GeometryRelation::kIdentical;
}

constexpr size_t kBytes = 256 * 1024;
constexpr uint64_t kSketchSeed = 7;  // fixed: only the trace seed varies
constexpr size_t kPackets = 120000;
constexpr size_t kFlows = 10000;

std::string SaveBytes(const DaVinciSketch& sketch) {
  std::ostringstream out;
  sketch.Save(out);
  return out.str();
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// A strictly-growing geometry whose EF tower is identical to `from`'s —
// the autotune grow path, and the precondition for EfCarriesOver.
DaVinciConfig GrownKeepingEf(const DaVinciConfig& from) {
  DaVinciConfig to = from;
  to.fp_buckets = from.fp_buckets * 2;
  to.ifp_buckets_per_row = from.ifp_buckets_per_row * 2;
  return to;
}

// ---------------------------------------------------------------------
// GeometryRelation: the one admission gate (config.h).
// ---------------------------------------------------------------------

TEST(GeometryCompatibleTest, IdenticalIgnoresRuntimeTuningKnobs) {
  DaVinciConfig a = DaVinciConfig::FromMemory(64 * 1024, 7);
  DaVinciConfig b = a;
  b.decode_threads = 4;
  b.decode_min_buckets_per_worker = 1;
  EXPECT_EQ(DaVinciConfig::GeometryCompatible(a, b),
            GeometryRelation::kIdentical);
  EXPECT_EQ(DaVinciConfig::GeometryCompatible(a, a),
            GeometryRelation::kIdentical);
}

TEST(GeometryCompatibleTest, SameSeedDifferentShapeIsResizable) {
  DaVinciConfig a = DaVinciConfig::FromMemory(64 * 1024, 7);
  EXPECT_EQ(DaVinciConfig::GeometryCompatible(
                a, DaVinciConfig::FromMemory(128 * 1024, 7)),
            GeometryRelation::kResizable);
  EXPECT_EQ(DaVinciConfig::GeometryCompatible(
                a, DaVinciConfig::FromMemorySplit(64 * 1024, 0.40, 0.40, 7)),
            GeometryRelation::kResizable);
  DaVinciConfig threshold_only = a;
  threshold_only.promotion_threshold *= 2;
  EXPECT_EQ(DaVinciConfig::GeometryCompatible(a, threshold_only),
            GeometryRelation::kResizable);
}

TEST(GeometryCompatibleTest, SeedMismatchOrInvalidIsIncompatible) {
  DaVinciConfig a = DaVinciConfig::FromMemory(64 * 1024, 7);
  EXPECT_EQ(DaVinciConfig::GeometryCompatible(
                a, DaVinciConfig::FromMemory(64 * 1024, 8)),
            GeometryRelation::kIncompatible);
  DaVinciConfig invalid = a;
  invalid.fp_buckets = 0;  // fails DaVinciConfig::Valid()
  EXPECT_EQ(DaVinciConfig::GeometryCompatible(a, invalid),
            GeometryRelation::kIncompatible);
  EXPECT_EQ(DaVinciConfig::GeometryCompatible(invalid, a),
            GeometryRelation::kIncompatible);
}

TEST(GeometryCompatibleTest, EfCarriesOverRequiresSameTowerAndNonLowerT) {
  DaVinciConfig from = DaVinciConfig::FromMemory(kBytes, kSketchSeed);
  EXPECT_TRUE(DaVinciSketch::EfCarriesOver(from, GrownKeepingEf(from)));

  DaVinciConfig raised_t = GrownKeepingEf(from);
  raised_t.promotion_threshold = from.promotion_threshold * 2;
  EXPECT_TRUE(DaVinciSketch::EfCarriesOver(from, raised_t));

  DaVinciConfig lowered_t = GrownKeepingEf(from);
  lowered_t.promotion_threshold = from.promotion_threshold / 2;
  EXPECT_FALSE(DaVinciSketch::EfCarriesOver(from, lowered_t));

  DaVinciConfig other_tower = GrownKeepingEf(from);
  other_tower.ef_bytes = from.ef_bytes * 2;
  EXPECT_FALSE(DaVinciSketch::EfCarriesOver(from, other_tower));

  DaVinciConfig other_levels = GrownKeepingEf(from);
  other_levels.ef_level_bits = {4, 8, 16};
  EXPECT_FALSE(DaVinciSketch::EfCarriesOver(from, other_levels));
}

// ---------------------------------------------------------------------
// DaVinciSketch::Resize: the rebuild/replay contract.
// ---------------------------------------------------------------------

TEST(SketchResizeTest, NoCarryResizeBitIdenticalToFreshReplay) {
  uint64_t seed = testing::TestSeed(2026);
  DAVINCI_ANNOUNCE_SEED(seed);
  Trace trace = BuildSkewedTrace("rsz", 40000, 4000, 1.0, seed);

  DaVinciConfig from = DaVinciConfig::FromMemory(64 * 1024, kSketchSeed);
  DaVinciConfig to = DaVinciConfig::FromMemory(128 * 1024, kSketchSeed);
  ASSERT_FALSE(DaVinciSketch::EfCarriesOver(from, to));  // ef_bytes differ

  DaVinciSketch sketch(from);
  for (uint32_t key : trace.keys) sketch.Insert(key, 1);

  // The contract: a no-carry resize is bit-identical to a fresh sketch of
  // the new geometry fed SurvivingFlows() in replay order.
  std::vector<std::pair<uint32_t, int64_t>> surviving =
      sketch.SurvivingFlows();
  ASSERT_FALSE(surviving.empty());
  ASSERT_TRUE(sketch.Resize(to));
  sketch.CheckInvariants(InvariantMode::kAdditive);

  DaVinciSketch fresh(to);
  for (const auto& [key, count] : surviving) fresh.Insert(key, count);
  EXPECT_EQ(SaveBytes(sketch), SaveBytes(fresh));
}

TEST(SketchResizeTest, IdenticalResizePreservesDigestAndAdoptsKnobs) {
  DaVinciSketch sketch(64 * 1024, kSketchSeed);
  for (uint32_t key = 0; key < 3000; ++key) sketch.Insert(key, 1 + key % 40);
  uint64_t digest_before = Fnv1a64(SaveBytes(sketch));

  DaVinciConfig same = sketch.config();
  same.decode_threads = 2;
  same.decode_min_buckets_per_worker = 64;
  ASSERT_TRUE(sketch.Resize(same));

  // Digest-preserving no-op: the serialized image cannot change, only the
  // runtime tuning knobs are adopted.
  EXPECT_EQ(Fnv1a64(SaveBytes(sketch)), digest_before);
  EXPECT_EQ(sketch.config().decode_threads, 2u);
  EXPECT_EQ(sketch.config().decode_min_buckets_per_worker, 64u);
}

TEST(SketchResizeTest, IncompatibleResizeRejectedUntouched) {
  DaVinciSketch sketch(64 * 1024, kSketchSeed);
  for (uint32_t key = 0; key < 3000; ++key) sketch.Insert(key, 1 + key % 40);
  uint64_t digest_before = Fnv1a64(SaveBytes(sketch));

  EXPECT_FALSE(
      sketch.Resize(DaVinciConfig::FromMemory(128 * 1024, kSketchSeed + 1)));
  DaVinciConfig invalid = sketch.config();
  invalid.ifp_rows = 0;
  EXPECT_FALSE(sketch.Resize(invalid));
  EXPECT_EQ(Fnv1a64(SaveBytes(sketch)), digest_before);
}

TEST(SketchResizeTest, ShrinkResizeKeepsInvariantsAndServesQueries) {
  uint64_t seed = testing::TestSeed(2027);
  DAVINCI_ANNOUNCE_SEED(seed);
  Trace trace = BuildSkewedTrace("shrink", 40000, 4000, 1.0, seed);
  DaVinciSketch sketch(kBytes, kSketchSeed);
  for (uint32_t key : trace.keys) sketch.Insert(key, 1);

  ASSERT_TRUE(sketch.Resize(DaVinciConfig::FromMemory(64 * 1024, kSketchSeed)));
  sketch.CheckInvariants(InvariantMode::kAdditive);

  // A hot flow survives a shrink with at worst the EF residue forfeited.
  GroundTruth truth(trace.keys);
  auto heavy = truth.HeavyHitters(truth.total() / 200);
  ASSERT_FALSE(heavy.empty());
  for (const auto& [key, f] : heavy) {
    EXPECT_GE(sketch.Query(key), f - sketch.config().promotion_threshold);
    EXPECT_LE(sketch.Query(key), f);
  }
}

// ---------------------------------------------------------------------
// EF-carry resize: all nine tasks stay within (loosened) accuracy bounds
// against ground truth, and linear ops with fresh sketches of the new
// geometry are admitted after the migration.
// ---------------------------------------------------------------------

struct CarryFixture {
  uint64_t seed;
  DaVinciConfig to;
  Trace full, a, b, da, db;
  GroundTruth truth, ta, tb, tda, tdb;
  // r_* were built at the old geometry and resized; f_* were born at the
  // new geometry (the post-resize merge peers).
  DaVinciSketch r_full, r_a, r_da;
  DaVinciSketch f_b, f_db;
};

DaVinciSketch BuildAt(const DaVinciConfig& config,
                      const std::vector<uint32_t>& keys) {
  DaVinciSketch sketch(config);
  for (uint32_t key : keys) sketch.Insert(key, 1);
  return sketch;
}

DaVinciSketch BuildResized(const DaVinciConfig& from, const DaVinciConfig& to,
                           const std::vector<uint32_t>& keys) {
  DaVinciSketch sketch = BuildAt(from, keys);
  DAVINCI_CHECK(sketch.Resize(to));
  return sketch;
}

const CarryFixture& CF() {
  static const CarryFixture* fixture = [] {
    uint64_t seed = testing::TestSeed(2025);
    DaVinciConfig from = DaVinciConfig::FromMemory(kBytes, kSketchSeed);
    DaVinciConfig to = GrownKeepingEf(from);
    DAVINCI_CHECK(DaVinciSketch::EfCarriesOver(from, to));
    Trace full = BuildSkewedTrace("carry", kPackets, kFlows, 1.0, seed);
    size_t n = full.keys.size();
    Trace a = Slice(full, 0, n / 2, "a");
    Trace b = Slice(full, n / 2, n, "b");
    Trace da = Slice(full, 0, 2 * n / 3, "da");
    Trace db = Slice(full, n / 3, n, "db");
    auto* f = new CarryFixture{seed,
                               to,
                               full,
                               a,
                               b,
                               da,
                               db,
                               GroundTruth(full.keys),
                               GroundTruth(a.keys),
                               GroundTruth(b.keys),
                               GroundTruth(da.keys),
                               GroundTruth(db.keys),
                               BuildResized(from, to, full.keys),
                               BuildResized(from, to, a.keys),
                               BuildResized(from, to, da.keys),
                               BuildAt(to, b.keys),
                               BuildAt(to, db.keys)};
    return f;
  }();
  return *fixture;
}

template <typename QueryFn>
double FrequencyAre(const GroundTruth& truth, QueryFn&& query) {
  std::vector<Estimate> observations;
  observations.reserve(truth.frequencies().size());
  for (const auto& [key, f] : truth.frequencies()) {
    observations.push_back({f, query(key)});
  }
  return AverageRelativeError(observations);
}

double HeavySetF1(const std::vector<std::pair<uint32_t, int64_t>>& reported,
                  const std::vector<std::pair<uint32_t, int64_t>>& actual) {
  std::unordered_map<uint32_t, int64_t> actual_map(actual.begin(),
                                                   actual.end());
  size_t correct = 0;
  for (const auto& [key, est] : reported) {
    if (actual_map.count(key)) ++correct;
  }
  return F1Score(correct, reported.size(), actual.size());
}

#define DAVINCI_GATE(metric, bound)                                   \
  do {                                                                \
    DAVINCI_ANNOUNCE_SEED(CF().seed);                                 \
    double observed = (metric);                                       \
    std::printf("resize-gate %s: %.6f (bound %.6f)\n", #metric,       \
                observed, static_cast<double>(bound));                \
    EXPECT_LE(observed, bound);                                       \
  } while (0)

TEST(CarryResizeTest, StateIsAdditiveAndGeometryAdopted) {
  CF().r_full.CheckInvariants(InvariantMode::kAdditive);
  EXPECT_EQ(DaVinciConfig::GeometryCompatible(CF().r_full.config(), CF().to),
            GeometryRelation::kIdentical);
}

TEST(CarryResizeTest, FrequencyAre) {
  DAVINCI_GATE(FrequencyAre(CF().truth,
                            [](uint32_t key) { return CF().r_full.Query(key); }),
               0.04);
}

TEST(CarryResizeTest, HeavyHitterF1) {
  int64_t threshold = CF().truth.total() / 1000;
  auto actual = CF().truth.HeavyHitters(threshold);
  ASSERT_FALSE(actual.empty());
  DAVINCI_GATE(
      1.0 - HeavySetF1(CF().r_full.HeavyHitters(threshold), actual), 0.08);
}

TEST(CarryResizeTest, HeavyChangerF1) {
  int64_t delta = CF().truth.total() / 2000;
  GroundTruth diff = GroundTruth::Difference(CF().ta, CF().tb);
  std::vector<std::pair<uint32_t, int64_t>> actual;
  for (const auto& [key, change] : diff.frequencies()) {
    if (std::llabs(change) > delta) actual.emplace_back(key, change);
  }
  ASSERT_FALSE(actual.empty());
  DAVINCI_GATE(
      1.0 - HeavySetF1(CF().r_a.HeavyChangers(CF().f_b, delta), actual), 0.10);
}

TEST(CarryResizeTest, CardinalityRe) {
  DAVINCI_GATE(RelativeError(static_cast<double>(CF().truth.cardinality()),
                             CF().r_full.EstimateCardinality()),
               0.08);
}

TEST(CarryResizeTest, DistributionWmre) {
  DAVINCI_GATE(WeightedMeanRelativeError(CF().truth.Distribution(),
                                         CF().r_full.Distribution()),
               0.10);
}

TEST(CarryResizeTest, EntropyRe) {
  DAVINCI_GATE(
      RelativeError(CF().truth.Entropy(), CF().r_full.EstimateEntropy()),
      0.08);
}

TEST(CarryResizeTest, UnionAre) {
  // A resized sketch must merge with a fresh sketch born at the new
  // geometry — kIdentical admission after the migration.
  DaVinciSketch merged = CF().r_a;
  merged.Merge(CF().f_b);
  DAVINCI_GATE(FrequencyAre(CF().truth,
                            [&](uint32_t key) { return merged.Query(key); }),
               0.05);
}

TEST(CarryResizeTest, DifferenceAre) {
  DaVinciSketch diff_sketch = CF().r_da;
  diff_sketch.Subtract(CF().f_db);
  GroundTruth diff = GroundTruth::Difference(CF().tda, CF().tdb);
  DAVINCI_GATE(FrequencyAre(
                   diff, [&](uint32_t key) { return diff_sketch.Query(key); }),
               0.15);
}

TEST(CarryResizeTest, InnerJoinRe) {
  double truth = GroundTruth::InnerJoin(CF().tda, CF().tdb);
  DAVINCI_GATE(
      RelativeError(truth, DaVinciSketch::InnerProduct(CF().r_da, CF().f_db)),
      0.15);
}

// ---------------------------------------------------------------------
// EpochManager: a scheduled resize applies at the Advance() seal boundary.
// ---------------------------------------------------------------------

TEST(EpochResizeTest, ScheduleAppliesAtSealBoundary) {
  DaVinciConfig initial = DaVinciConfig::FromMemory(64 * 1024, kSketchSeed);
  DaVinciConfig bigger = DaVinciConfig::FromMemory(128 * 1024, kSketchSeed);
  EpochManager window(3, initial);

  for (int epoch = 0; epoch < 2; ++epoch) {
    window.Insert(99, 500);
    for (uint32_t key = 0; key < 1000; ++key) window.Insert(key + 1000, 1);
    window.Advance();
  }

  ASSERT_TRUE(window.ScheduleResize(bigger));
  EXPECT_TRUE(window.resize_pending());
  // Nothing changes until the seal: the live geometry is still the old one.
  EXPECT_TRUE(Identical(window.epoch_config(), initial));
  EXPECT_EQ(window.resizes_applied(), 0u);

  window.Insert(99, 500);
  window.Advance();  // the swap point: seals epoch 3, rebuilds the window

  EXPECT_FALSE(window.resize_pending());
  EXPECT_EQ(window.resizes_applied(), 1u);
  EXPECT_TRUE(Identical(window.epoch_config(), bigger));
  window.CheckInvariants(InvariantMode::kAdditive);

  // W=3 retains epochs 2 and 3 (both rebuilt) plus the fresh live epoch;
  // the hot flow's count survives the rebuild up to the EF residue
  // (<= T per epoch, forfeited because 64K->128K changes the tower).
  int64_t estimate = window.Query(99);
  EXPECT_GE(estimate, 1000 - 2 * initial.promotion_threshold);
  EXPECT_LE(estimate, 1010);

  DaVinciSketch merged = window.MergedWindow();
  merged.CheckInvariants(InvariantMode::kAdditive);
  EXPECT_TRUE(Identical(merged.config(), bigger));
}

TEST(EpochResizeTest, IncompatibleScheduleRejected) {
  EpochManager window(2, DaVinciConfig::FromMemory(64 * 1024, kSketchSeed));
  EXPECT_FALSE(window.ScheduleResize(
      DaVinciConfig::FromMemory(64 * 1024, kSketchSeed + 1)));
  EXPECT_FALSE(window.resize_pending());
  window.Advance();
  EXPECT_EQ(window.resizes_applied(), 0u);
}

// ---------------------------------------------------------------------
// ConcurrentDaVinci: shard-by-shard resize never blocks the lock-free
// read path (the PR's acceptance criterion), and provenance is recorded.
// ---------------------------------------------------------------------

TEST(ConcurrentResizeTest, ReadsCompleteWhileResizeBlockedOnHostageShard) {
  using namespace std::chrono_literals;
  ConcurrentDaVinci sketch(4, kBytes, kSketchSeed);
  for (uint32_t key = 0; key < 20000; ++key) sketch.Insert(key, 1 + key % 8);
  sketch.FlushViews();

  // Hold shard 0's write lock hostage: the shard-by-shard resize must park
  // on it while readers keep landing on published views untouched.
  ReleasableMutexLock hostage(&sketch.ShardMutexForTesting(0));

  DaVinciConfig bigger = DaVinciConfig::FromMemory(128 * 1024, kSketchSeed);
  std::future<bool> resize = std::async(
      std::launch::async, [&] { return sketch.Resize(bigger); });

  std::future<void> reads = std::async(std::launch::async, [&] {
    for (int round = 0; round < 50; ++round) {
      for (uint32_t key = 0; key < 2000; ++key) {
        EXPECT_GE(sketch.Query(key), 0);
      }
      EXPECT_GT(sketch.EstimateCardinality(), 0.0);
      (void)sketch.HeavyHitters(100);
    }
  });

  // Reads finish while the resize is still parked on the hostage shard.
  ASSERT_EQ(reads.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(resize.wait_for(100ms), std::future_status::timeout);

  hostage.Release();
  ASSERT_EQ(resize.wait_for(10s), std::future_status::ready);
  EXPECT_TRUE(resize.get());
  EXPECT_EQ(sketch.resizes_applied(), 1u);
  EXPECT_TRUE(Identical(sketch.ShardConfig(), bigger));
  sketch.CheckInvariants(InvariantMode::kAdditive);
}

TEST(ConcurrentResizeTest, ResizeUnderConcurrentReadersAndWriter) {
  ConcurrentDaVinci sketch(4, kBytes, kSketchSeed);
  sketch.Insert(42, 100000);
  sketch.FlushViews();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint32_t key = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      sketch.Insert(key++ % 50000, 1);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EXPECT_GE(sketch.Query(42), 0);
        (void)sketch.EstimateCardinality();
      }
    });
  }

  DaVinciConfig bigger = DaVinciConfig::FromMemory(128 * 1024, kSketchSeed);
  EXPECT_TRUE(sketch.Resize(bigger, obs::ResizeHealth::kAutotune));

  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::thread& reader : readers) reader.join();

  sketch.FlushViews();
  sketch.CheckInvariants(InvariantMode::kAdditive);
  // The pre-resize hot flow survived the migration (modulo EF residue).
  EXPECT_GE(sketch.Query(42), 100000 - sketch.ShardConfig().promotion_threshold);
}

TEST(ConcurrentResizeTest, ProvenanceCountersAndStats) {
  ConcurrentDaVinci sketch(2, 64 * 1024, kSketchSeed);
  for (uint32_t key = 0; key < 5000; ++key) sketch.Insert(key, 1);

  // Incompatible geometry: rejected without touching the shards.
  EXPECT_FALSE(
      sketch.Resize(DaVinciConfig::FromMemory(64 * 1024, kSketchSeed + 1)));
  size_t before = sketch.MemoryBytes();
  EXPECT_TRUE(sketch.Resize(DaVinciConfig::FromMemory(64 * 1024, kSketchSeed),
                            obs::ResizeHealth::kAutotune));

  obs::ResizeHealth resize = sketch.ResizeProvenance();
  EXPECT_EQ(resize.applied, 1u);
  EXPECT_EQ(resize.rejected, 1u);
  EXPECT_EQ(resize.bytes_before, before);
  EXPECT_EQ(resize.bytes_after, sketch.MemoryBytes());
  EXPECT_EQ(resize.last_trigger, obs::ResizeHealth::kAutotune);

  obs::HealthSnapshot health;
  sketch.CollectStats(&health);
  EXPECT_EQ(health.resize.applied, 1u);
  EXPECT_EQ(health.resize.rejected, 1u);
  EXPECT_EQ(health.resize.last_trigger, obs::ResizeHealth::kAutotune);
}

// ---------------------------------------------------------------------
// AutotuneController: deterministic policy over fabricated snapshots.
// ---------------------------------------------------------------------

// Fabricates a snapshot with the given structural pressures: FP occupancy
// and flagged fraction, worst EF level saturation, IFP bucket load.
obs::HealthSnapshot MakeSnapshot(double occupancy, double flagged,
                                 double ef_saturation, double ifp_load) {
  obs::HealthSnapshot health;
  health.fp.buckets = 1000;
  health.fp.slots = 8;
  health.fp.live_slots = static_cast<size_t>(occupancy * 8000);
  health.fp.flagged_buckets = static_cast<size_t>(flagged * 1000);
  obs::EfLevelHealth level;
  level.width = 1000;
  level.bits = 8;
  level.cap = 255;
  level.saturated = static_cast<size_t>(ef_saturation * 1000);
  health.ef.levels.push_back(level);
  health.ifp.rows = 4;
  health.ifp.width = 1000;
  health.ifp.empty_buckets = static_cast<size_t>((1.0 - ifp_load) * 4000);
  return health;
}

TEST(AutotuneControllerTest, QuietWhenPressuresAreBalanced) {
  DaVinciConfig initial = DaVinciConfig::FromMemory(kBytes, kSketchSeed);
  AutotuneController controller(initial, kBytes);
  // All three parts near 0.3: imbalance under the hysteresis, T untouched.
  EXPECT_FALSE(controller.Observe(MakeSnapshot(0.5, 0.0, 0.30, 0.35)));
  EXPECT_FALSE(controller.Observe(MakeSnapshot(0.5, 0.0, 0.30, 0.35)));
  EXPECT_EQ(controller.proposals(), 0u);
  EXPECT_TRUE(Identical(controller.current(), initial));
}

TEST(AutotuneControllerTest, FpPressureGrowsFpWithinStepBound) {
  DaVinciConfig initial = DaVinciConfig::FromMemory(kBytes, kSketchSeed);
  AutotuneController controller(initial, kBytes);
  // FP saturated and evicting, EF and IFP nearly idle.
  auto proposal = controller.Observe(MakeSnapshot(1.0, 1.0, 0.05, 0.10));
  ASSERT_TRUE(proposal.has_value());
  EXPECT_EQ(controller.proposals(), 1u);
  EXPECT_GT(proposal->fp_buckets, initial.fp_buckets);
  EXPECT_LT(proposal->ef_bytes, initial.ef_bytes);  // budget came from the EF
  // Step bound: the FP fraction moved at most max_step (0.10) past its
  // initial 0.25 share of the budget.
  EXPECT_LE(proposal->FpBytes(),
            static_cast<size_t>(0.36 * static_cast<double>(kBytes)));
  // Same byte budget, same seed: the proposal is reachable via Resize.
  EXPECT_LE(proposal->TotalBytes(), kBytes + kBytes / 20);
  EXPECT_EQ(DaVinciConfig::GeometryCompatible(initial, *proposal),
            GeometryRelation::kResizable);
  EXPECT_TRUE(Identical(controller.current(), *proposal));
}

TEST(AutotuneControllerTest, CooldownSilencesFollowupProposals) {
  DaVinciConfig initial = DaVinciConfig::FromMemory(kBytes, kSketchSeed);
  AutotuneController controller(initial, kBytes);
  obs::HealthSnapshot pressured = MakeSnapshot(1.0, 1.0, 0.05, 0.10);
  ASSERT_TRUE(controller.Observe(pressured));
  // cooldown_epochs = 2: the next two observations stay quiet no matter
  // how lopsided the pressures are.
  EXPECT_FALSE(controller.Observe(pressured));
  EXPECT_FALSE(controller.Observe(pressured));
  EXPECT_TRUE(controller.Observe(pressured).has_value());
  EXPECT_EQ(controller.proposals(), 2u);
}

TEST(AutotuneControllerTest, ThresholdRecalibrationIsBoundedPowerOfTwo) {
  DaVinciConfig initial = DaVinciConfig::FromMemory(kBytes, kSketchSeed);
  {
    // Loaded IFP: T doubles so more mass stays in the filter.
    AutotuneController controller(initial, kBytes);
    auto proposal = controller.Observe(MakeSnapshot(0.1, 0.0, 0.05, 0.90));
    ASSERT_TRUE(proposal.has_value());
    EXPECT_EQ(proposal->promotion_threshold, initial.promotion_threshold * 2);
  }
  {
    // Saturated EF with a quiet IFP: T halves so mass stops piling into
    // pinned counters.
    AutotuneController controller(initial, kBytes);
    auto proposal = controller.Observe(MakeSnapshot(0.5, 0.0, 0.90, 0.05));
    ASSERT_TRUE(proposal.has_value());
    EXPECT_EQ(proposal->promotion_threshold, initial.promotion_threshold / 2);
  }
  {
    // The doubling is clamped at threshold_max.
    AutotuneControllerOptions options;
    options.threshold_max = initial.promotion_threshold;
    AutotuneController controller(initial, kBytes, options);
    auto proposal = controller.Observe(MakeSnapshot(0.1, 0.0, 0.05, 0.90));
    ASSERT_TRUE(proposal.has_value());  // the re-split still fires
    EXPECT_EQ(proposal->promotion_threshold, initial.promotion_threshold);
  }
}

TEST(AutotuneControllerTest, RevertToReconvergesWithLiveGeometry) {
  DaVinciConfig initial = DaVinciConfig::FromMemory(kBytes, kSketchSeed);
  AutotuneController controller(initial, kBytes);
  ASSERT_TRUE(controller.Observe(MakeSnapshot(1.0, 1.0, 0.05, 0.10)));
  EXPECT_FALSE(Identical(controller.current(), initial));
  // The caller could not apply the proposal (e.g. quota denial): the
  // controller re-adopts what is actually live.
  controller.RevertTo(initial);
  EXPECT_TRUE(Identical(controller.current(), initial));
}

TEST(AutotuneControllerTest, ProposalAppliesThroughResize) {
  uint64_t seed = testing::TestSeed(2028);
  DAVINCI_ANNOUNCE_SEED(seed);
  Trace trace = BuildSkewedTrace("tune", 40000, 4000, 1.0, seed);
  DaVinciSketch sketch(kBytes, kSketchSeed);
  for (uint32_t key : trace.keys) sketch.Insert(key, 1);

  AutotuneController controller(sketch.config(), kBytes);
  auto proposal = controller.Observe(MakeSnapshot(1.0, 1.0, 0.05, 0.10));
  ASSERT_TRUE(proposal.has_value());
  ASSERT_TRUE(sketch.Resize(*proposal));
  sketch.CheckInvariants(InvariantMode::kAdditive);
  EXPECT_TRUE(Identical(sketch.config(), *proposal));
}

// ---------------------------------------------------------------------
// ResizeHealth provenance: shard aggregation and the JSON surface.
// ---------------------------------------------------------------------

TEST(ResizeHealthTest, AccumulateKeepsLatestSwapAndSumsCounters) {
  obs::HealthSnapshot a, b;
  a.resize.applied = 1;
  a.resize.rejected = 2;
  a.resize.bytes_before = 100;
  a.resize.bytes_after = 200;
  a.resize.last_trigger = obs::ResizeHealth::kAdmin;
  b.resize.applied = 3;
  b.resize.rejected = 1;
  b.resize.bytes_before = 300;
  b.resize.bytes_after = 400;
  b.resize.last_trigger = obs::ResizeHealth::kAutotune;
  a.Accumulate(b);
  EXPECT_EQ(a.resize.applied, 4u);
  EXPECT_EQ(a.resize.rejected, 3u);
  EXPECT_EQ(a.resize.bytes_before, 300u);
  EXPECT_EQ(a.resize.bytes_after, 400u);
  EXPECT_EQ(a.resize.last_trigger, obs::ResizeHealth::kAutotune);

  std::ostringstream json;
  a.WriteJson(json);
  EXPECT_NE(json.str().find("\"resize\":{\"applied\":4,\"rejected\":3"),
            std::string::npos);
}

}  // namespace
}  // namespace davinci
