// Behaviour specific to individual baseline sketches: structure access,
// merges, one-sidedness and heavy-hitter enumeration.

#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "baselines/cm_sketch.h"
#include "baselines/coco_sketch.h"
#include "baselines/count_heap.h"
#include "baselines/count_sketch.h"
#include "baselines/cu_sketch.h"
#include "baselines/elastic_sketch.h"
#include "baselines/fcm_sketch.h"
#include "baselines/hashpipe.h"
#include "baselines/univmon.h"
#include "core/tower_sketch.h"
#include "workload/ground_truth.h"
#include "workload/trace.h"

namespace davinci {
namespace {

Trace SkewedTestTrace(size_t packets = 100000, uint64_t seed = 21) {
  return BuildSkewedTrace("t", packets, packets / 10, 1.1, seed);
}

// ---------- CM ----------

TEST(CmSketchTest, LinearityOfMergeAndSubtract) {
  CmSketch a(8192, 3, 9), b(8192, 3, 9);
  a.Insert(1, 10);
  b.Insert(1, 4);
  b.Insert(2, 7);
  CmSketch merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.Query(1), 14);
  merged.Subtract(b);
  EXPECT_EQ(merged.Query(1), 10);
  EXPECT_EQ(merged.Query(2), 0);
}

TEST(CmSketchTest, RowValuesSumToStream) {
  CmSketch sketch(8192, 3, 9);
  sketch.Insert(5, 100);
  sketch.Insert(6, 50);
  auto row = sketch.RowValues(0);
  int64_t sum = 0;
  for (int64_t v : row) sum += v;
  EXPECT_EQ(sum, 150);
}

// ---------- CU ----------

TEST(CuSketchTest, TighterThanCmOnSkewedStream) {
  Trace trace = SkewedTestTrace();
  CmSketch cm(64 * 1024, 3, 5);
  CuSketch cu(64 * 1024, 3, 5);
  for (uint32_t key : trace.keys) {
    cm.Insert(key, 1);
    cu.Insert(key, 1);
  }
  GroundTruth truth(trace.keys);
  double cm_err = 0, cu_err = 0;
  for (const auto& [key, f] : truth.frequencies()) {
    cm_err += static_cast<double>(cm.Query(key) - f);
    cu_err += static_cast<double>(cu.Query(key) - f);
  }
  EXPECT_LT(cu_err, cm_err);
}

// ---------- Count ----------

TEST(CountSketchTest, RoughlyUnbiasedOnCollisions) {
  // Average signed error over many keys should be near zero.
  Trace trace = SkewedTestTrace(50000, 3);
  CountSketch sketch(16 * 1024, 5, 8);
  for (uint32_t key : trace.keys) sketch.Insert(key, 1);
  GroundTruth truth(trace.keys);
  double signed_error = 0;
  for (const auto& [key, f] : truth.frequencies()) {
    signed_error += static_cast<double>(sketch.Query(key) - f);
  }
  double mean_error = signed_error / truth.cardinality();
  EXPECT_LT(std::abs(mean_error), 3.0);
}

TEST(CountSketchTest, InnerProductEstimatesSelfJoin) {
  CountSketch a(32 * 1024, 5, 4), b(32 * 1024, 5, 4);
  // f = g: 100 copies of key 1, 50 of key 2 → f⊙g = 100² + 50² = 12500.
  a.Insert(1, 100);
  a.Insert(2, 50);
  b.Insert(1, 100);
  b.Insert(2, 50);
  EXPECT_NEAR(CountSketch::InnerProduct(a, b), 12500.0, 12500.0 * 0.05);
}

// ---------- CountHeap ----------

TEST(CountHeapTest, TracksTopFlows) {
  Trace trace = SkewedTestTrace();
  CountHeap heap(64 * 1024, 3, 6);
  for (uint32_t key : trace.keys) heap.Insert(key, 1);
  GroundTruth truth(trace.keys);
  int64_t threshold = trace.keys.size() / 1000;
  auto reported = heap.HeavyHitters(threshold);
  auto actual = truth.HeavyHitters(threshold);
  std::unordered_set<uint32_t> reported_keys;
  for (const auto& [key, est] : reported) reported_keys.insert(key);
  size_t found = 0;
  for (const auto& [key, f] : actual) {
    if (reported_keys.count(key)) ++found;
  }
  EXPECT_GT(static_cast<double>(found) / actual.size(), 0.9);
}

TEST(CountHeapTest, TrackedKeysBounded) {
  CountHeap heap(8 * 1024, 3, 7);
  for (uint32_t key = 1; key <= 10000; ++key) heap.Insert(key, 1);
  EXPECT_LE(heap.TrackedKeys().size(), 8u * 1024 / 4 / 8 + 1);
}

// ---------- Tower ----------

TEST(TowerSketchTest, LowLevelSaturatesHighLevelHolds) {
  TowerSketch tower(4096, 3);
  tower.Insert(77, 300);  // exceeds the 8-bit bottom level
  EXPECT_EQ(tower.Query(77), 300);
}

TEST(TowerSketchTest, CappedInsertReturnsOverflow) {
  TowerSketch tower(4096, 3);
  EXPECT_EQ(tower.InsertCapped(5, 10, 16), 0);
  EXPECT_EQ(tower.Query(5), 10);
  EXPECT_EQ(tower.InsertCapped(5, 10, 16), 4);  // only 6 more fit
  EXPECT_EQ(tower.Query(5), 16);
  EXPECT_EQ(tower.InsertCapped(5, 100, 16), 100);  // already at cap
}

TEST(TowerSketchTest, SubtractGoesSigned) {
  TowerSketch a(4096, 3), b(4096, 3);
  a.Insert(9, 5);
  b.Insert(9, 8);
  a.Subtract(b);
  EXPECT_EQ(a.QuerySigned(9), -3);
}

TEST(TowerSketchTest, MergeSaturatesAtLevelCap) {
  TowerSketch a(64, 3), b(64, 3);
  a.Insert(1, 200);
  b.Insert(1, 200);
  a.Merge(b);
  // Bottom level is 8-bit: the merged counter must not exceed its cap,
  // and the query must fall back to the wider level.
  EXPECT_GE(a.Query(1), 255);
}

TEST(TowerSketchTest, ZeroSlotsDecreaseWithInserts) {
  TowerSketch tower(4096, 3);
  size_t before = tower.ZeroSlots(0);
  for (uint32_t key = 1; key <= 100; ++key) tower.Insert(key, 1);
  EXPECT_LT(tower.ZeroSlots(0), before);
}

// ---------- Elastic ----------

TEST(ElasticSketchTest, HeavyFlowStaysExactInHeavyPart) {
  ElasticSketch sketch(64 * 1024, 4);
  for (int i = 0; i < 10000; ++i) sketch.Insert(123, 1);
  EXPECT_EQ(sketch.Query(123), 10000);
}

TEST(ElasticSketchTest, MergeAccumulatesHeavyFlows) {
  ElasticSketch a(64 * 1024, 4), b(64 * 1024, 4);
  a.Insert(55, 1000);
  b.Insert(55, 500);
  a.Merge(b);
  EXPECT_EQ(a.Query(55), 1500);
}

TEST(ElasticSketchTest, HeavyHittersFindDominantFlows) {
  Trace trace = SkewedTestTrace();
  ElasticSketch sketch(128 * 1024, 4);
  for (uint32_t key : trace.keys) sketch.Insert(key, 1);
  GroundTruth truth(trace.keys);
  int64_t threshold = trace.keys.size() / 500;
  auto reported = sketch.HeavyHitters(threshold);
  std::unordered_set<uint32_t> reported_keys;
  for (const auto& [key, est] : reported) reported_keys.insert(key);
  // Elastic's one-slot heavy buckets can lose an elephant to a bucket
  // collision with a bigger elephant, so require high recall, not 100%.
  auto actual = truth.HeavyHitters(threshold * 2);
  size_t found = 0;
  for (const auto& [key, f] : actual) {
    (void)f;
    if (reported_keys.count(key)) ++found;
  }
  EXPECT_GT(static_cast<double>(found) / actual.size(), 0.9);
}

// ---------- FCM ----------

TEST(FcmSketchTest, CarriesIntoUpperStages) {
  FcmSketch sketch(64 * 1024, 4);
  sketch.Insert(321, 100000);  // far beyond an 8-bit and 16-bit counter
  EXPECT_EQ(sketch.Query(321), 100000);
}

TEST(FcmSketchTest, BottomStageSupportsLinearCounting) {
  FcmSketch sketch(64 * 1024, 4);
  size_t zeros_before = sketch.BottomStageZeroSlots();
  for (uint32_t key = 1; key <= 500; ++key) sketch.Insert(key, 1);
  EXPECT_LT(sketch.BottomStageZeroSlots(), zeros_before);
}

// ---------- HashPipe / Coco ----------

TEST(HashPipeTest, RecallOnElephants) {
  Trace trace = SkewedTestTrace();
  HashPipe pipe(64 * 1024, 6, 3);
  for (uint32_t key : trace.keys) pipe.Insert(key, 1);
  GroundTruth truth(trace.keys);
  int64_t threshold = trace.keys.size() / 200;
  auto reported = pipe.HeavyHitters(threshold / 2);
  std::unordered_set<uint32_t> reported_keys;
  for (const auto& [key, est] : reported) reported_keys.insert(key);
  size_t found = 0;
  auto actual = truth.HeavyHitters(threshold);
  for (const auto& [key, f] : actual) {
    if (reported_keys.count(key)) ++found;
  }
  EXPECT_GT(static_cast<double>(found) / actual.size(), 0.85);
}

TEST(CocoSketchTest, CountConservedPerBucketGroup) {
  CocoSketch coco(32 * 1024, 2, 5);
  Trace trace = SkewedTestTrace(20000, 9);
  for (uint32_t key : trace.keys) coco.Insert(key, 1);
  auto hh = coco.HeavyHitters(0);
  int64_t total = 0;
  for (const auto& [key, est] : hh) total += est;
  // Coco conserves total count exactly across buckets.
  EXPECT_EQ(total, static_cast<int64_t>(trace.keys.size()));
}

// ---------- UnivMon ----------

TEST(UnivMonTest, CardinalityWithinFactor) {
  Trace trace = SkewedTestTrace(200000, 15);
  UnivMon univ(256 * 1024, 8, 2);
  for (uint32_t key : trace.keys) univ.Insert(key, 1);
  GroundTruth truth(trace.keys);
  double est = univ.EstimateCardinality();
  EXPECT_GT(est, truth.cardinality() * 0.3);
  EXPECT_LT(est, truth.cardinality() * 3.0);
}

TEST(UnivMonTest, EntropyWithinTolerance) {
  Trace trace = SkewedTestTrace(200000, 16);
  UnivMon univ(256 * 1024, 8, 4);
  for (uint32_t key : trace.keys) univ.Insert(key, 1);
  GroundTruth truth(trace.keys);
  EXPECT_NEAR(univ.EstimateEntropy(), truth.Entropy(),
              truth.Entropy() * 0.5);
}

}  // namespace
}  // namespace davinci
