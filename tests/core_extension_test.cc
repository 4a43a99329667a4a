// Tests for the core extensions: string keys, sliding windows, and binary
// serialization of DaVinci Sketch.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/davinci_sketch.h"
#include "core/epoch_manager.h"
#include "core/key_adapter.h"
#include "workload/trace.h"

namespace davinci {
namespace {

// ---------- StringKeyDaVinci ----------

TEST(StringKeyTest, InsertAndQueryStrings) {
  StringKeyDaVinci sketch(128 * 1024, 1);
  for (int i = 0; i < 1000; ++i) sketch.Insert("alpha");
  for (int i = 0; i < 10; ++i) sketch.Insert("beta");
  EXPECT_EQ(sketch.Query("alpha"), 1000);
  EXPECT_LE(sketch.Query("beta"), 14);
  EXPECT_EQ(sketch.Query("never-seen"), 0);
}

TEST(StringKeyTest, LongKeysSupported) {
  StringKeyDaVinci sketch(64 * 1024, 2);
  std::string url(500, 'x');
  url += "/path?query=1";
  for (int i = 0; i < 77; ++i) sketch.Insert(url);
  EXPECT_EQ(sketch.Query(url), 77);
}

TEST(StringKeyTest, HeavyHittersReturnOriginalKeys) {
  StringKeyDaVinci sketch(128 * 1024, 3);
  for (int i = 0; i < 5000; ++i) sketch.Insert("elephant.example.com");
  for (uint32_t i = 0; i < 2000; ++i) {
    sketch.Insert("mouse-" + std::to_string(i));
  }
  auto heavy = sketch.HeavyHitters(1000);
  ASSERT_EQ(heavy.size(), 1u);
  EXPECT_EQ(heavy[0].first, "elephant.example.com");
  EXPECT_EQ(heavy[0].second, 5000);
}

TEST(StringKeyTest, FingerprintsAreStable) {
  StringKeyDaVinci a(64 * 1024, 4), b(64 * 1024, 4);
  EXPECT_EQ(a.Fingerprint("hello"), b.Fingerprint("hello"));
  EXPECT_NE(a.Fingerprint("hello"), a.Fingerprint("world"));
}

TEST(StringKeyTest, MergeCombinesKeySpaces) {
  StringKeyDaVinci a(128 * 1024, 5), b(128 * 1024, 5);
  for (int i = 0; i < 3000; ++i) a.Insert("seen-by-a");
  for (int i = 0; i < 4000; ++i) b.Insert("seen-by-b");
  a.Merge(b);
  EXPECT_NEAR(static_cast<double>(a.Query("seen-by-a")), 3000.0, 100.0);
  EXPECT_NEAR(static_cast<double>(a.Query("seen-by-b")), 4000.0, 100.0);
  auto heavy = a.HeavyHitters(2000);
  EXPECT_EQ(heavy.size(), 2u);
}

// ---------- Sliding windows (EpochManager) ----------

TEST(SlidingTest, WindowSumsEpochs) {
  EpochManager window(3, 64 * 1024, 1);
  window.Insert(5, 100);
  window.Advance();
  window.Insert(5, 200);
  EXPECT_EQ(window.Query(5), 300);
  EXPECT_EQ(window.QueryCurrentEpoch(5), 200);
}

TEST(SlidingTest, OldEpochsExpire) {
  EpochManager window(2, 64 * 1024, 2);
  window.Insert(9, 1000);
  window.Advance();  // epoch 2 (window = {1, 2})
  window.Advance();  // epoch 3 (window = {2, 3}); epoch 1 expired
  EXPECT_EQ(window.Query(9), 0);
}

TEST(SlidingTest, EpochCountBounded) {
  EpochManager window(4, 32 * 1024, 3);
  for (int i = 0; i < 10; ++i) window.Advance();
  EXPECT_EQ(window.epochs_in_window(), 4u);
  EXPECT_LE(window.MemoryBytes(), 4u * 33 * 1024);
}

TEST(SlidingTest, MergedWindowAnswersAllTasks) {
  EpochManager window(3, 128 * 1024, 4);
  Trace trace = BuildSkewedTrace("t", 60000, 6000, 1.0, 71);
  for (size_t i = 0; i < trace.keys.size(); ++i) {
    if (i > 0 && i % 20000 == 0) window.Advance();
    window.Insert(trace.keys[i], 1);
  }
  DaVinciSketch merged = window.MergedWindow();
  EXPECT_NEAR(merged.EstimateCardinality(), 6000.0, 600.0);
  EXPECT_FALSE(merged.HeavyHitters(60).empty());
}

TEST(SlidingTest, HeavyChangersNewestVsOldest) {
  EpochManager window(2, 128 * 1024, 5);
  for (int i = 0; i < 500; ++i) window.Insert(1, 1);
  window.Advance();
  for (int i = 0; i < 500; ++i) window.Insert(1, 1);   // stable
  for (int i = 0; i < 4000; ++i) window.Insert(2, 1);  // surge
  auto changers = window.HeavyChangers(2000);
  ASSERT_EQ(changers.size(), 1u);
  EXPECT_EQ(changers[0].first, 2u);
}

// ---------- Serialization ----------

TEST(SerializationTest, RoundTripPreservesQueries) {
  Trace trace = BuildSkewedTrace("t", 80000, 8000, 1.05, 81);
  DaVinciSketch original(200 * 1024, 6);
  for (uint32_t key : trace.keys) original.Insert(key, 1);

  std::stringstream buffer;
  original.Save(buffer);

  DaVinciSketch loaded(1024, 0);  // placeholder, overwritten by Load
  ASSERT_TRUE(DaVinciSketch::Load(buffer, &loaded));

  EXPECT_EQ(loaded.MemoryBytes(), original.MemoryBytes());
  for (uint32_t key : {trace.keys[0], trace.keys[100], trace.keys[999]}) {
    EXPECT_EQ(loaded.Query(key), original.Query(key));
  }
  EXPECT_DOUBLE_EQ(loaded.EstimateCardinality(),
                   original.EstimateCardinality());
}

TEST(SerializationTest, LoadedSketchStaysMergeable) {
  DaVinciSketch a(128 * 1024, 7), b(128 * 1024, 7);
  for (int i = 0; i < 2000; ++i) a.Insert(11, 1);
  for (int i = 0; i < 3000; ++i) b.Insert(11, 1);

  std::stringstream buffer;
  a.Save(buffer);
  DaVinciSketch loaded(1024, 0);
  ASSERT_TRUE(DaVinciSketch::Load(buffer, &loaded));

  loaded.Merge(b);  // same config + seeds → still linear
  EXPECT_EQ(loaded.Query(11), 5000);
}

TEST(SerializationTest, TruncatedStreamFailsCleanly) {
  DaVinciSketch sketch(64 * 1024, 8);
  sketch.Insert(5, 10);
  std::stringstream buffer;
  sketch.Save(buffer);
  std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  DaVinciSketch loaded(1024, 0);
  EXPECT_FALSE(DaVinciSketch::Load(truncated, &loaded));
}

TEST(SerializationTest, ConfigRoundTrip) {
  DaVinciConfig config = DaVinciConfig::FromMemory(256 * 1024, 99);
  config.evict_lambda = 16;
  config.promotion_threshold = 32;
  config.use_sign_hash = false;
  std::stringstream buffer;
  config.Save(buffer);
  DaVinciConfig loaded;
  ASSERT_TRUE(DaVinciConfig::Load(buffer, &loaded));
  EXPECT_EQ(loaded.fp_buckets, config.fp_buckets);
  EXPECT_EQ(loaded.evict_lambda, 16);
  EXPECT_EQ(loaded.promotion_threshold, 32);
  EXPECT_FALSE(loaded.use_sign_hash);
  EXPECT_EQ(loaded.seed, config.seed);
}

}  // namespace
}  // namespace davinci
