// Exercises CheckInvariants() on every sketch component after randomized
// workloads, and proves the audits actually fire on corrupted state
// (death tests). This is the tentpole consumer of common/check.h: each
// audit aborts with a file:line message instead of returning a verdict,
// so a passing test here means the structural invariants held at every
// probed point.

#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/concurrent_davinci.h"
#include "core/davinci_sketch.h"
#include "test_seed.h"
#include "workload/zipf.h"

namespace davinci {
namespace {

std::vector<uint32_t> ZipfKeys(size_t n, uint64_t seed) {
  ZipfGenerator gen(50000, 1.05, seed);
  std::vector<uint32_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<uint32_t>(gen.Next()));
  }
  return keys;
}

TEST(InvariantAuditTest, FreshSketchPasses) {
  DaVinciSketch sketch(64 * 1024, 1);
  sketch.CheckInvariants(InvariantMode::kAdditive);
}

TEST(InvariantAuditTest, RandomizedInsertWorkloads) {
  const uint64_t base = testing::TestSeed(1);
  for (uint64_t seed : {base, base + 6, base + 22}) {
    DAVINCI_ANNOUNCE_SEED(seed);
    DaVinciSketch sketch(48 * 1024, seed);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<uint32_t> key_dist(1, 30000);
    std::geometric_distribution<int64_t> count_dist(0.05);
    for (int i = 0; i < 60000; ++i) {
      sketch.Insert(key_dist(rng), 1 + count_dist(rng));
      if (i % 20000 == 19999) {
        sketch.CheckInvariants(InvariantMode::kAdditive);
      }
    }
    // Query paths populate the decode cache; the audit covers it too.
    sketch.Query(1);
    sketch.CheckInvariants(InvariantMode::kAdditive);
    sketch.frequent_part().CheckInvariants(InvariantMode::kAdditive);
    sketch.element_filter().CheckInvariants(InvariantMode::kAdditive);
    sketch.infrequent_part().CheckInvariants(InvariantMode::kAdditive);
  }
}

TEST(InvariantAuditTest, BatchedInsertsPass) {
  DaVinciSketch sketch(48 * 1024, 11);
  std::vector<uint32_t> keys = ZipfKeys(80000, 11);
  sketch.InsertBatch(keys);
  sketch.CheckInvariants(InvariantMode::kAdditive);
}

TEST(InvariantAuditTest, MergePreservesInvariants) {
  DaVinciSketch a(48 * 1024, 3);
  DaVinciSketch b(48 * 1024, 3);
  a.InsertBatch(ZipfKeys(40000, 5));
  b.InsertBatch(ZipfKeys(40000, 6));
  a.Merge(b);
  a.CheckInvariants(InvariantMode::kAdditive);
}

TEST(InvariantAuditTest, SubtractPreservesGeneralInvariants) {
  DaVinciSketch a(48 * 1024, 3);
  DaVinciSketch b(48 * 1024, 3);
  a.InsertBatch(ZipfKeys(40000, 5));
  b.InsertBatch(ZipfKeys(40000, 6));
  a.Subtract(b);
  // Negative counts are legal now; only the unconditional invariants hold.
  a.CheckInvariants(InvariantMode::kGeneral);
}

TEST(InvariantAuditTest, SerializationRoundTripPasses) {
  DaVinciSketch sketch(48 * 1024, 9);
  sketch.InsertBatch(ZipfKeys(50000, 9));
  std::stringstream stream;
  sketch.Save(stream);
  DaVinciSketch loaded(64, 1);
  ASSERT_TRUE(DaVinciSketch::Load(stream, &loaded));
  loaded.CheckInvariants(InvariantMode::kAdditive);
}

TEST(InvariantAuditTest, ConcurrentShardsPass) {
  ConcurrentDaVinci sketch(4, 256 * 1024, 21);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&sketch, t] {
      std::vector<uint32_t> keys = ZipfKeys(30000, 100 + t);
      sketch.InsertBatch(keys);
    });
  }
  for (std::thread& w : writers) w.join();
  sketch.CheckInvariants(InvariantMode::kAdditive);
}

TEST(InvariantAuditTest, ConcurrentMergePasses) {
  ConcurrentDaVinci a(4, 128 * 1024, 33);
  ConcurrentDaVinci b(4, 128 * 1024, 33);
  a.InsertBatch(ZipfKeys(40000, 1));
  b.InsertBatch(ZipfKeys(40000, 2));
  a.Merge(b);
  a.CheckInvariants(InvariantMode::kAdditive);
  b.CheckInvariants(InvariantMode::kAdditive);
}

// --- The audits must FIRE on corrupted state, not just pass on good
// state. Corruption is injected through public APIs only. ---

TEST(InvariantAuditDeathTest, DetectsForeignKeyInBucket) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FrequentPart fp(64, 4, 8, 1);
  for (uint32_t key = 1; key <= 500; ++key) fp.Insert(key, int64_t{10});
  // Plant a key into a bucket it does not hash to: find a key whose home
  // bucket is not 0 and overwrite bucket 0 with it.
  uint32_t foreign = 1;
  while (fp.BucketOf(foreign) == 0) ++foreign;
  fp.OverwriteBucket(0, {{foreign, 5, false}}, false);
  EXPECT_DEATH(fp.CheckInvariants(InvariantMode::kAdditive),
               "hashes elsewhere");
}

TEST(InvariantAuditDeathTest, DetectsNegativeCountInAdditiveMode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FrequentPart fp(64, 4, 8, 1);
  uint32_t key = 1;
  fp.OverwriteBucket(fp.BucketOf(key), {{key, -3, false}}, false);
  EXPECT_DEATH(fp.CheckInvariants(InvariantMode::kAdditive),
               "nonpositive count");
}

TEST(InvariantAuditDeathTest, DetectsIdOutsideField) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  InfrequentPart ifp(3, 64, true, 1);
  for (uint32_t key = 1; key <= 200; ++key) ifp.Insert(key, 4);
  // LoadState range-checks every cell now, so an out-of-field iID in a
  // serialized image is rejected at the boundary...
  std::stringstream stream;
  ifp.SaveState(stream);
  std::string bytes = stream.str();
  // Layout: uint64 size, then size iIDs (uint64 each). Overwrite iID[0].
  uint64_t bad = kFermatPrime + 123;
  bytes.replace(sizeof(uint64_t), sizeof(uint64_t),
                reinterpret_cast<const char*>(&bad), sizeof(uint64_t));
  std::stringstream corrupted(bytes);
  EXPECT_FALSE(ifp.LoadState(corrupted));
  // ...so CheckInvariants' field check covers in-process corruption only —
  // plant the bad id directly, behind the public boundaries.
  ifp.OverwriteCellForTesting(0, 0, bad, 4);
  EXPECT_DEATH(ifp.CheckInvariants(InvariantMode::kGeneral),
               "outside the field");
}

TEST(InvariantAuditDeathTest, DetectsRowSumDivergence) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  InfrequentPart ifp(3, 64, true, 1);
  for (uint32_t key = 1; key <= 200; ++key) ifp.Insert(key, 4);
  std::stringstream stream;
  ifp.SaveState(stream);
  std::string bytes = stream.str();
  // Swap row 0's first iID for a different in-field value: row 0's id sum
  // no longer matches the other rows'.
  uint64_t original = 0;
  bytes.copy(reinterpret_cast<char*>(&original), sizeof(uint64_t),
             sizeof(uint64_t));
  uint64_t skewed = original == 17 ? 18 : 17;
  bytes.replace(sizeof(uint64_t), sizeof(uint64_t),
                reinterpret_cast<const char*>(&skewed), sizeof(uint64_t));
  std::stringstream corrupted(bytes);
  ASSERT_TRUE(ifp.LoadState(corrupted));
  EXPECT_DEATH(ifp.CheckInvariants(InvariantMode::kGeneral), "id_sum");
}

// The linear ops index the second operand's arrays by the first one's
// geometry; a smaller operand would be an out-of-bounds read, so Merge,
// Subtract, HeavyChangers and InnerProduct refuse anything not kIdentical.
TEST(InvariantAuditDeathTest, LinearOpsRejectMismatchedGeometry) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DaVinciSketch big(64 * 1024, 1);
  DaVinciSketch small(16 * 1024, 1);
  DaVinciSketch reseeded(64 * 1024, 2);
  for (uint32_t key = 1; key <= 500; ++key) {
    big.Insert(key, 3);
    small.Insert(key, 3);
    reseeded.Insert(key, 3);
  }
  constexpr const char* kMessage = "different geometry";
  EXPECT_DEATH(big.Merge(small), kMessage);
  EXPECT_DEATH(big.Subtract(small), kMessage);
  EXPECT_DEATH((void)big.HeavyChangers(small, 10), kMessage);
  EXPECT_DEATH((void)DaVinciSketch::InnerProduct(big, small), kMessage);
  EXPECT_DEATH(big.Merge(reseeded), kMessage);
}

}  // namespace
}  // namespace davinci
