// Parameterized property tests run against every frequency sketch in the
// library, including DaVinci itself: shared invariants that any point-query
// summary must satisfy.

#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "baselines/cm_sketch.h"
#include "baselines/coco_sketch.h"
#include "baselines/cold_filter.h"
#include "baselines/count_heap.h"
#include "baselines/count_sketch.h"
#include "baselines/cu_sketch.h"
#include "baselines/elastic_sketch.h"
#include "baselines/fcm_sketch.h"
#include "baselines/hashpipe.h"
#include "baselines/heavy_guardian.h"
#include "baselines/heavy_keeper.h"
#include "baselines/mrac.h"
#include "baselines/mv_sketch.h"
#include "baselines/nitro_sketch.h"
#include "baselines/space_saving.h"
#include "baselines/univmon.h"
#include "baselines/waving_sketch.h"
#include "core/davinci_sketch.h"
#include "core/sketch_interface.h"
#include "core/tower_sketch.h"
#include "metrics/metrics.h"
#include "workload/ground_truth.h"
#include "workload/trace.h"

namespace davinci {
namespace {

struct SketchFactory {
  std::string name;
  std::function<std::unique_ptr<FrequencySketch>(size_t bytes, uint64_t seed)>
      make;
  // Sketches whose estimate never undershoots the true count.
  bool one_sided_overestimate = false;
  // Sketches able to track every flow of a skewed stream reasonably well.
  double max_are_200kb = 5.0;
};

std::vector<SketchFactory> AllFactories() {
  return {
      {"CM",
       [](size_t b, uint64_t s) { return std::make_unique<CmSketch>(b, 3, s); },
       true, 1.0},
      {"CU",
       [](size_t b, uint64_t s) { return std::make_unique<CuSketch>(b, 3, s); },
       true, 1.0},
      {"Count",
       [](size_t b, uint64_t s) {
         return std::make_unique<CountSketch>(b, 3, s);
       },
       false, 2.0},
      {"CountHeap",
       [](size_t b, uint64_t s) {
         return std::make_unique<CountHeap>(b, 3, s);
       },
       false, 2.0},
      {"Tower",
       [](size_t b, uint64_t s) {
         return std::make_unique<TowerSketch>(b, s);
       },
       false, 1.0},
      {"Elastic",
       [](size_t b, uint64_t s) {
         return std::make_unique<ElasticSketch>(b, s);
       },
       false, 1.0},
      {"FCM",
       [](size_t b, uint64_t s) { return std::make_unique<FcmSketch>(b, s); },
       false, 1.0},
      {"Coco",
       [](size_t b, uint64_t s) {
         return std::make_unique<CocoSketch>(b, 2, s);
       },
       false, 5.0},
      {"HashPipe",
       [](size_t b, uint64_t s) {
         return std::make_unique<HashPipe>(b, 6, s);
       },
       false, 5.0},
      {"UnivMon",
       [](size_t b, uint64_t s) {
         return std::make_unique<UnivMon>(b, 8, s);
       },
       false, 25.0},  // point queries come from one level's small sketch
      {"MRAC",
       [](size_t b, uint64_t s) { return std::make_unique<Mrac>(b, s); },
       true, 4.0},  // single-hash array: no min filter over rows
      {"SpaceSaving",
       [](size_t b, uint64_t s) {
         return std::make_unique<SpaceSaving>(b, s);
       },
       false, 5.0},  // evicted mice answer 0
      {"HeavyKeeper",
       [](size_t b, uint64_t s) {
         return std::make_unique<HeavyKeeper>(b, 2, s);
       },
       false, 5.0},
      {"Waving",
       [](size_t b, uint64_t s) {
         return std::make_unique<WavingSketch>(b, 8, s);
       },
       false, 5.0},
      {"HeavyGuardian",
       [](size_t b, uint64_t s) {
         return std::make_unique<HeavyGuardian>(b, s);
       },
       false, 5.0},
      {"MV",
       [](size_t b, uint64_t s) {
         return std::make_unique<MvSketch>(b, 4, s);
       },
       false, 5.0},
      {"ColdFilter",
       [](size_t b, uint64_t s) {
         return std::make_unique<ColdFilterCm>(b, 15, s);
       },
       true, 1.0},
      {"Nitro",
       [](size_t b, uint64_t s) {
         return std::make_unique<NitroSketch>(b, 5, 0.5, s);
       },
       false, 10.0},  // update sampling noise dominates mice
      {"DaVinci",
       [](size_t b, uint64_t s) {
         return std::make_unique<DaVinciSketch>(b, s);
       },
       false, 0.5},
      {"DaVinciNoSigns",
       [](size_t b, uint64_t s) {
         DaVinciConfig config = DaVinciConfig::FromMemory(b, s);
         config.use_sign_hash = false;
         return std::make_unique<DaVinciSketch>(config);
       },
       false, 0.5},
      {"DaVinciNoCrossVal",
       [](size_t b, uint64_t s) {
         DaVinciConfig config = DaVinciConfig::FromMemory(b, s);
         config.decode_cross_validation = false;
         return std::make_unique<DaVinciSketch>(config);
       },
       false, 0.5},
  };
}

class FrequencySketchParamTest
    : public ::testing::TestWithParam<SketchFactory> {};

TEST_P(FrequencySketchParamTest, MemoryWithinBudget) {
  auto sketch = GetParam().make(200 * 1024, 1);
  EXPECT_GT(sketch->MemoryBytes(), 100u * 1024);
  EXPECT_LE(sketch->MemoryBytes(), 220u * 1024);
}

TEST_P(FrequencySketchParamTest, EmptySketchQueriesNearZero) {
  auto sketch = GetParam().make(64 * 1024, 2);
  for (uint32_t key = 1; key < 100; ++key) {
    EXPECT_EQ(sketch->Query(key), 0) << GetParam().name;
  }
}

TEST_P(FrequencySketchParamTest, SingleHeavyKeyIsAccurate) {
  auto sketch = GetParam().make(128 * 1024, 3);
  for (int i = 0; i < 5000; ++i) sketch->Insert(42, 1);
  int64_t est = sketch->Query(42);
  EXPECT_NEAR(static_cast<double>(est), 5000.0, 5000.0 * 0.05)
      << GetParam().name;
}

TEST_P(FrequencySketchParamTest, DeterministicAcrossRuns) {
  Trace trace = BuildSkewedTrace("t", 20000, 2000, 1.0, 77);
  auto a = GetParam().make(64 * 1024, 5);
  auto b = GetParam().make(64 * 1024, 5);
  for (uint32_t key : trace.keys) {
    a->Insert(key, 1);
    b->Insert(key, 1);
  }
  for (uint32_t key : {trace.keys[0], trace.keys[7], trace.keys[123]}) {
    EXPECT_EQ(a->Query(key), b->Query(key)) << GetParam().name;
  }
}

TEST_P(FrequencySketchParamTest, OneSidedErrorWhereGuaranteed) {
  if (!GetParam().one_sided_overestimate) GTEST_SKIP();
  Trace trace = BuildSkewedTrace("t", 50000, 5000, 1.0, 31);
  auto sketch = GetParam().make(64 * 1024, 7);
  for (uint32_t key : trace.keys) sketch->Insert(key, 1);
  GroundTruth truth(trace.keys);
  for (const auto& [key, f] : truth.frequencies()) {
    ASSERT_GE(sketch->Query(key), f) << GetParam().name;
  }
}

TEST_P(FrequencySketchParamTest, SkewedTraceAreWithinBound) {
  Trace trace = BuildSkewedTrace("t", 200000, 20000, 1.05, 13);
  auto sketch = GetParam().make(200 * 1024, 11);
  for (uint32_t key : trace.keys) sketch->Insert(key, 1);
  GroundTruth truth(trace.keys);
  std::vector<Estimate> observations;
  for (const auto& [key, f] : truth.frequencies()) {
    observations.push_back({f, sketch->Query(key)});
  }
  EXPECT_LT(AverageRelativeError(observations), GetParam().max_are_200kb)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSketches, FrequencySketchParamTest,
    ::testing::ValuesIn(AllFactories()),
    [](const ::testing::TestParamInfo<SketchFactory>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace davinci
