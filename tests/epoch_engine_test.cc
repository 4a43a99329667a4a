// Epoch & snapshot lifecycle (DESIGN.md §10): CoW snapshot semantics on
// DaVinciSketch, the RCU read path of ConcurrentDaVinci, and the
// EpochManager rotation/memoized-window machinery.
// The tsan preset turns the racing sections into hard data-race checks.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/concurrent_davinci.h"
#include "core/epoch_manager.h"
#include "obs/health.h"
#include "obs/stats.h"
#include "test_seed.h"

namespace davinci {
namespace {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string SaveBytes(const DaVinciSketch& sketch) {
  std::ostringstream buffer;
  sketch.Save(buffer);
  return buffer.str();
}

std::vector<uint32_t> Keys(uint32_t lo, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint32_t> dist(lo, lo + 49999);
  std::vector<uint32_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(dist(rng));
  return keys;
}

// ---- CoW snapshots --------------------------------------------------------

TEST(SnapshotTest, NoCloneWhenNoSnapshotOutstanding) {
  obs::CowTally::ResetForTesting();
  DaVinciSketch sketch(64 * 1024, testing::TestSeed(31));
  for (uint32_t key : Keys(1, 20000, 31)) sketch.Insert(key, 1);
  // The write path must mutate in place when nobody shares the buffers.
  EXPECT_EQ(obs::CowTally::Clones(), 0u);
  EXPECT_EQ(obs::CowTally::CloneBytes(), 0u);

  // A snapshot taken and dropped before the next write must not force a
  // clone either: the refcount is back to one when the write lands.
  sketch.Snapshot();
  for (uint32_t key : Keys(1, 1000, 32)) sketch.Insert(key, 1);
  EXPECT_EQ(obs::CowTally::Clones(), 0u);
}

TEST(SnapshotTest, ImmutableWhileWriterMutates) {
  obs::CowTally::ResetForTesting();
  const uint64_t seed = testing::TestSeed(33);
  DAVINCI_ANNOUNCE_SEED(seed);
  DaVinciSketch sketch(64 * 1024, seed);
  for (uint32_t key : Keys(1, 15000, 33)) sketch.Insert(key, 1);
  sketch.Insert(777, 42);

  std::shared_ptr<const SketchView> view = sketch.Snapshot();
  const std::string before = SaveBytes(view->sketch());
  EXPECT_EQ(view->Query(777), 42);

  // Mutate the live sketch through every part: FP residents, EF tower
  // counters, IFP buckets all change under the outstanding snapshot.
  sketch.Insert(777, 58);
  for (uint32_t key : Keys(60001, 15000, 34)) sketch.Insert(key, 1);

  // The view's bytes are pinned; the live sketch moved on.
  EXPECT_EQ(SaveBytes(view->sketch()), before);
  EXPECT_EQ(view->Query(777), 42);
  EXPECT_EQ(sketch.Query(777), 100);
  // And the lazy clones actually happened (and were tallied).
  EXPECT_GT(obs::CowTally::Clones(), 0u);
  EXPECT_GT(obs::CowTally::CloneBytes(), 0u);
}

TEST(SnapshotTest, BitStableUnderConcurrentWrites) {
  const uint64_t seed = testing::TestSeed(35);
  DAVINCI_ANNOUNCE_SEED(seed);
  DaVinciSketch sketch(64 * 1024, seed);
  for (uint32_t key : Keys(1, 10000, 35)) sketch.Insert(key, 1);

  // Snapshot() itself is synchronized with writes (taken before the writer
  // starts); the CoW machinery is what makes the view safe to read while
  // the live sketch keeps mutating on another thread.
  std::shared_ptr<const SketchView> view = sketch.Snapshot();
  const std::string baseline = SaveBytes(view->sketch());

  std::thread writer([&sketch] {
    for (uint32_t key : Keys(60001, 30000, 36)) sketch.Insert(key, 1);
  });
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(SaveBytes(view->sketch()), baseline);
    EXPECT_GE(view->EstimateCardinality(), 0.0);
  }
  writer.join();
  EXPECT_EQ(SaveBytes(view->sketch()), baseline);
}

// ---- RCU read path --------------------------------------------------------

TEST(RcuReadPathTest, ReadsCompleteWhileShardLockHeldHostage) {
  ConcurrentDaVinci sketch(4, 256 * 1024, testing::TestSeed(37));
  std::vector<uint32_t> keys = Keys(1, 20000, 37);
  sketch.InsertBatch(std::span<const uint32_t>(keys));
  sketch.Insert(999, 1000);

  // Take a shard lock hostage on this thread. If any read-path operation
  // touched a shard mutex it would block forever; the RCU views must serve
  // every read regardless. ReleasableMutexLock (not std::unique_lock) so
  // the hostage-holding stays visible to Thread Safety Analysis — see
  // docs/STATIC_ANALYSIS.md §"Locks across call boundaries".
  davinci::ReleasableMutexLock hostage(&sketch.ShardMutexForTesting(0));
  auto reads = std::async(std::launch::async, [&sketch, &keys] {
    int64_t point = sketch.Query(999);
    std::vector<int64_t> batch = sketch.QueryBatch(
        std::span<const uint32_t>(keys.data(), 256));
    double cardinality = sketch.EstimateCardinality();
    auto heavy = sketch.HeavyHitters(500);
    auto views = sketch.SnapshotAll();
    return std::make_tuple(point, batch.size(), cardinality, heavy.size(),
                           views.size());
  });
  if (reads.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    hostage.Release();
    FAIL() << "read path blocked on a shard mutex";
  }
  auto [point, batch_size, cardinality, heavy_size, view_count] =
      reads.get();
  hostage.Release();

  EXPECT_EQ(point, 1000);
  EXPECT_EQ(batch_size, 256u);
  EXPECT_GT(cardinality, 0.0);
  EXPECT_GE(heavy_size, 1u);
  EXPECT_EQ(view_count, 4u);
}

TEST(RcuReadPathTest, PublishedViewsTrackWrites) {
  ConcurrentDaVinci sketch(4, 256 * 1024, testing::TestSeed(39));
  sketch.Insert(4242, 7);
  EXPECT_EQ(sketch.Query(4242), 7);
  sketch.Insert(4242, 3);
  EXPECT_EQ(sketch.Query(4242), 10);

  // SnapshotAll is a stable serving set: later writes don't leak in.
  std::vector<std::shared_ptr<const SketchView>> views = sketch.SnapshotAll();
  int64_t frozen = 0;
  for (const auto& view : views) frozen += view->Query(4242);
  EXPECT_EQ(frozen, 10);
  sketch.Insert(4242, 90);
  int64_t still_frozen = 0;
  for (const auto& view : views) still_frozen += view->Query(4242);
  EXPECT_EQ(still_frozen, 10);
  EXPECT_EQ(sketch.Query(4242), 100);
}

// ---- memoized merged snapshot ---------------------------------------------

// Reference merge folded directly from the published views, never through
// Snapshot()/SharedSnapshot(), so a stale memo cannot hide in it.
std::string FoldedViewBytes(const ConcurrentDaVinci& engine) {
  std::vector<std::shared_ptr<const SketchView>> views = engine.SnapshotAll();
  DaVinciSketch folded = views[0]->sketch();
  for (size_t s = 1; s < views.size(); ++s) folded.Merge(views[s]->sketch());
  return SaveBytes(folded);
}

TEST(SnapshotMemoTest, QuiescedEngineMergesOnce) {
  ConcurrentDaVinci engine(4, 256 * 1024, testing::TestSeed(41));
  engine.InsertBatch(Keys(1, 20000, 41));

  std::shared_ptr<const DaVinciSketch> first = engine.SharedSnapshot();
  std::shared_ptr<const DaVinciSketch> second = engine.SharedSnapshot();
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(engine.snapshot_merges(), 1u);
  EXPECT_EQ(engine.snapshot_reuse_hits(), 1u);
  EXPECT_EQ(SaveBytes(*first), FoldedViewBytes(engine));

  // The by-value form copies the same memo instead of merging again.
  EXPECT_EQ(SaveBytes(engine.Snapshot()), SaveBytes(*first));
  EXPECT_EQ(engine.snapshot_merges(), 1u);
  obs::HealthSnapshot health;
  engine.CollectStats(&health);
  EXPECT_EQ(health.snapshot_merges, 1u);
  EXPECT_EQ(health.snapshot_reuse_hits, 2u);
  std::ostringstream json;
  health.WriteJson(json);
  EXPECT_NE(
      json.str().find("\"snapshot_merges\":1,\"snapshot_reuse_hits\":2"),
      std::string::npos);
}

TEST(SnapshotMemoTest, EveryWritePathPublishesAFreshSnapshot) {
  const uint64_t seed = testing::TestSeed(43);
  ConcurrentDaVinci engine(4, 256 * 1024, seed);
  ConcurrentDaVinci other(4, 256 * 1024, seed);
  engine.InsertBatch(Keys(1, 10000, 43));
  other.InsertBatch(Keys(60000, 10000, 44));
  const std::vector<uint32_t> batch = Keys(1, 5000, 45);

  // Warms the memo, applies one write path, and checks the next snapshot
  // is a new merge equal to the views' own fold while the old one stays
  // frozen.
  auto check = [&engine](const char* path, const auto& write) {
    SCOPED_TRACE(path);
    std::shared_ptr<const DaVinciSketch> before = engine.SharedSnapshot();
    const std::string before_bytes = SaveBytes(*before);
    const uint64_t merges = engine.snapshot_merges();
    write();
    std::shared_ptr<const DaVinciSketch> after = engine.SharedSnapshot();
    EXPECT_EQ(engine.snapshot_merges(), merges + 1);
    EXPECT_NE(after.get(), before.get());
    EXPECT_EQ(SaveBytes(*after), FoldedViewBytes(engine));
    EXPECT_NE(SaveBytes(*after), before_bytes);
    EXPECT_EQ(SaveBytes(*before), before_bytes);
  };
  check("Insert", [&] { engine.Insert(7, 5); });
  check("InsertBatch", [&] { engine.InsertBatch(batch); });
  check("Merge", [&] { engine.Merge(other); });
  check("MergeShardImages", [&] {
    std::stringstream image;
    other.SaveShards(image, SketchFormat::kCompressed);
    std::vector<std::vector<DaVinciSketch>> images(1);
    ASSERT_TRUE(engine.ParseShardImage(image, &images[0]));
    engine.MergeShardImages(std::move(images));
  });
  check("RestoreShards", [&] {
    std::stringstream image;
    other.SaveShards(image, SketchFormat::kFlat);
    ASSERT_TRUE(engine.RestoreShards(image));
  });
  check("Resize", [&] {
    ASSERT_TRUE(engine.Resize(DaVinciConfig::FromMemory(128 * 1024, seed)));
  });
}

// ---- publication ----------------------------------------------------------

// One publication per call: a write call publishes each shard it touched
// once, at the end, so the shard's next call re-clones its CoW buffers
// once — not once per block of the call.
TEST(PublicationTest, InsertBatchPublishesEachShardOncePerCall) {
  ConcurrentDaVinci engine(4, 256 * 1024, testing::TestSeed(49));
  // Prefill with heavy counts: the FP fills, EF counters pass T, and the
  // overflow lands in the IFP, so a block of fresh and repeated keys
  // writes all three parts of every shard.
  const std::vector<uint32_t> prefill = Keys(1, 20000, 49);
  engine.InsertBatch(prefill, std::vector<int64_t>(prefill.size(), 20));

  const std::vector<uint32_t> batch = Keys(1, 16 * 1024, 50);
  auto clones_of = [&engine](std::span<const uint32_t> keys) {
    obs::CowTally::ResetForTesting();
    engine.InsertBatch(keys);
    return obs::CowTally::Clones();
  };
  const uint64_t one_block =
      clones_of(std::span<const uint32_t>(batch).first(1024));
  // Premise: one 1024-key call clones every part of every shard once.
  ASSERT_EQ(one_block, 3 * engine.num_shards());
  EXPECT_LE(clones_of(batch), one_block);
  EXPECT_EQ(SaveBytes(*engine.SharedSnapshot()), FoldedViewBytes(engine));
}

// ---- EpochManager ---------------------------------------------------------

TEST(EpochManagerTest, RotationMatchesOfflineMergeBitForBit) {
  const uint64_t seed = testing::TestSeed(41);
  DAVINCI_ANNOUNCE_SEED(seed);
  constexpr size_t kEpochBytes = 33 * 1024;
  constexpr size_t kEpochs = 3;

  EpochManager engine(kEpochs + 1, kEpochBytes, seed);
  std::vector<DaVinciSketch> offline;
  for (size_t e = 0; e < kEpochs; ++e) {
    offline.emplace_back(kEpochBytes, seed);
    for (uint32_t key : Keys(static_cast<uint32_t>(e) * 100000 + 1, 8000,
                             100 + e)) {
      engine.Insert(key);
      offline.back().Insert(key, 1);
    }
    engine.Advance();
  }
  ASSERT_EQ(engine.sealed_epochs(), kEpochs);

  // Offline reference: left-fold merge in seal order. The engine's
  // memoized accumulator performs exactly this fold, and with the live
  // epoch untouched MergedWindow() adds nothing else, so the serialized
  // bytes — and hence the digest — must match exactly.
  DaVinciSketch reference = offline[0];
  for (size_t e = 1; e < kEpochs; ++e) reference.Merge(offline[e]);
  EXPECT_EQ(Fnv1a64(SaveBytes(engine.MergedWindow())),
            Fnv1a64(SaveBytes(reference)));
}

TEST(EpochManagerTest, WindowQueriesReuseMemoizedMerges) {
  EpochManager engine(3, 33 * 1024, testing::TestSeed(43));
  for (int e = 0; e < 7; ++e) {
    for (uint32_t key : Keys(static_cast<uint32_t>(e) * 100000 + 1, 4000,
                             200 + e)) {
      engine.Insert(key);
    }
    engine.Advance();
  }

  const uint64_t rebuilds_before = engine.window_rebuild_merges();
  (void)engine.MergedWindow();
  (void)engine.HeavyChangers(1000);
  (void)engine.MergedWindow();
  // Queries never re-merge sealed epochs: all maintenance merges happened
  // at Advance() time, and every sealed epoch was served from the memo.
  EXPECT_EQ(engine.window_rebuild_merges(), rebuilds_before);
  EXPECT_GT(engine.window_merge_hits(), 0u);
  // Maintenance itself is amortized O(1) merges per rotation.
  EXPECT_LE(engine.window_rebuild_merges(), 2 * engine.rotations());
}

TEST(EpochManagerTest, ExpiryKeepsWindowSumsExact) {
  constexpr size_t kWindow = 3;
  EpochManager engine(kWindow, 33 * 1024, testing::TestSeed(45));
  // Epoch e carries key 1000+e with count 10(e+1), plus shared key 5 ×7.
  constexpr int kTotalEpochs = 6;  // epochs 0..4 sealed by 5 advances
  for (int e = 0; e < kTotalEpochs; ++e) {
    engine.Insert(1000 + static_cast<uint32_t>(e), 10 * (e + 1));
    engine.Insert(5, 7);
    if (e + 1 < kTotalEpochs) engine.Advance();
  }
  ASSERT_EQ(engine.epochs_in_window(), kWindow);

  // Window = epochs 3,4 (sealed) + 5 (live).
  EXPECT_EQ(engine.Query(5), 3 * 7);
  EXPECT_EQ(engine.Query(1003), 40);
  EXPECT_EQ(engine.Query(1004), 50);
  EXPECT_EQ(engine.Query(1005), 60);
  EXPECT_EQ(engine.QueryCurrentEpoch(1005), 60);
  EXPECT_EQ(engine.QueryCurrentEpoch(1004), 0);
  // Expired epochs contribute nothing.
  EXPECT_EQ(engine.Query(1000), 0);
  EXPECT_EQ(engine.Query(1001), 0);
  EXPECT_EQ(engine.Query(1002), 0);

  engine.CheckInvariants(InvariantMode::kAdditive);
  DaVinciSketch merged = engine.MergedWindow();
  EXPECT_EQ(merged.Query(5), 21);
  EXPECT_EQ(merged.Query(1000), 0);
}

// ---- heavy changers -------------------------------------------------------

TEST(EpochManagerTest, HeavyChangersCompareAgainstMergedRemainder) {
  constexpr int64_t kDelta = 2000;
  constexpr uint32_t kMidKey = 424242;   // heavy only in the middle epoch
  constexpr uint32_t kLiveKey = 515151;  // heavy only in the live epoch
  EpochManager window(3, 33 * 1024, 47);
  for (uint32_t key : Keys(1, 3000, 300)) window.Insert(key);
  window.Advance();
  window.Insert(kMidKey, 5000);
  window.Advance();
  window.Insert(kLiveKey, 4000);
  auto contains = [](const std::vector<std::pair<uint32_t, int64_t>>& found,
                     uint32_t key) {
    for (const auto& [k, change] : found) {
      if (k == key) return true;
    }
    return false;
  };

  // The newest epoch is compared against the merged remainder of the
  // window, so a key heavy anywhere in the remainder is visible —
  // including the middle epoch, not just the oldest one.
  auto changers = window.HeavyChangers(kDelta);
  EXPECT_TRUE(contains(changers, kMidKey));
  EXPECT_TRUE(contains(changers, kLiveKey));
}

// ---- window parity and telemetry ------------------------------------------

TEST(EpochManagerTest, InsertBatchMatchesSingleInserts) {
  const uint64_t seed = testing::TestSeed(49);
  EpochManager singles(3, 33 * 1024, seed);
  EpochManager batched(3, 33 * 1024, seed);

  for (int e = 0; e < 4; ++e) {
    std::vector<uint32_t> keys =
        Keys(static_cast<uint32_t>(e) * 100000 + 1, 6000, 400 + e);
    std::vector<int64_t> counts(keys.size());
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] = 1 + static_cast<int64_t>(i % 3);
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      singles.Insert(keys[i], counts[i]);
    }
    batched.InsertBatch(std::span<const uint32_t>(keys),
                        std::span<const int64_t>(counts));
    if (e < 3) {
      singles.Advance();
      batched.Advance();
    }
  }

  // InsertBatch is bit-equivalent to stream-order single inserts, so the
  // whole window — not just query answers — serializes identically.
  EXPECT_EQ(SaveBytes(singles.MergedWindow()),
            SaveBytes(batched.MergedWindow()));
  singles.CheckInvariants(InvariantMode::kAdditive);
  batched.CheckInvariants(InvariantMode::kAdditive);
}

TEST(EpochManagerTest, CollectStatsExposesEpochTelemetry) {
  EpochManager window(4, 33 * 1024, testing::TestSeed(51));
  for (int e = 0; e < 6; ++e) {
    for (uint32_t key : Keys(static_cast<uint32_t>(e) * 100000 + 1, 3000,
                             500 + e)) {
      window.Insert(key);
    }
    window.Advance();
  }
  (void)window.MergedWindow();

  obs::HealthSnapshot snapshot;
  window.CollectStats(&snapshot);
  EXPECT_EQ(snapshot.epoch.window_epochs, 4u);
  EXPECT_EQ(snapshot.epoch.epochs_in_window, 4u);
  EXPECT_EQ(snapshot.epoch.rotations, 6u);
  EXPECT_GT(snapshot.epoch.window_merge_hits, 0u);
  // One HealthSnapshot per window epoch folded in.
  EXPECT_EQ(snapshot.shards, 4u);
  EXPECT_GT(snapshot.memory_bytes, 0u);
  EXPECT_GT(snapshot.fp.buckets, 0u);

  std::ostringstream json;
  snapshot.WriteJson(json);
  EXPECT_NE(json.str().find("\"epoch\":{\"window_epochs\":4"),
            std::string::npos);
}

// ---- concurrent const reads -----------------------------------------------

// The IFP decode is the one piece of state a const DaVinciSketch fills
// lazily. A quiesced EpochManager allows concurrent const queries, and a
// shared const sketch allows every const task, so readers that race to
// the first decode must neither race each other (the tsan preset turns
// that into a hard failure) nor see answers other than the serial ones.
TEST(EpochManagerTest, ConcurrentConstReadsMatchSerialAnswers) {
  const uint64_t seed = testing::TestSeed(53);
  DAVINCI_ANNOUNCE_SEED(seed);
  // Counts up to 64 push medium flows past the filter into the IFP, so
  // every epoch has a non-trivial decode.
  auto fill = [](EpochManager* window) {
    for (uint32_t e = 0; e < 3; ++e) {
      for (uint32_t key : Keys(e * 100000 + 1, 6000, 600 + e)) {
        window->Insert(key, 1 + key % 64);
      }
      if (e < 2) window->Advance();
    }
  };
  EpochManager reference(3, 33 * 1024, seed);
  EpochManager shared(3, 33 * 1024, seed);
  fill(&reference);
  fill(&shared);
  ASSERT_EQ(shared.sealed_epochs(), 2u);

  // Keys of the oldest epoch miss the FP of both newer epochs, and keys
  // no epoch saw miss every FP, so each query reaches at least two
  // decodes.
  std::vector<uint32_t> keys = Keys(1, 400, 600);
  for (uint32_t key : Keys(900001, 100, 700)) keys.push_back(key);
  constexpr int64_t kThreshold = 200;

  // Serial answers come from the twin window, so the shared one starts
  // with every decode still to do.
  std::vector<int64_t> expected_counts;
  for (uint32_t key : keys) expected_counts.push_back(reference.Query(key));
  const DaVinciSketch reference_merged = reference.MergedWindow();
  auto expected_hitters = reference_merged.HeavyHitters(kThreshold);
  std::sort(expected_hitters.begin(), expected_hitters.end());
  const std::map<int64_t, int64_t> expected_distribution =
      reference_merged.Distribution();
  ASSERT_FALSE(expected_hitters.empty());

  const DaVinciSketch merged = shared.MergedWindow();
  std::promise<void> go;
  const std::shared_future<void> start = go.get_future().share();
  auto query_all = [&, start] {
    start.wait();
    std::vector<int64_t> counts;
    for (uint32_t key : keys) counts.push_back(shared.Query(key));
    return counts;
  };
  auto hitters = std::async(std::launch::async, [&, start] {
    start.wait();
    auto found = merged.HeavyHitters(kThreshold);
    std::sort(found.begin(), found.end());
    return found;
  });
  auto distribution = std::async(std::launch::async, [&, start] {
    start.wait();
    return merged.Distribution();
  });
  auto counts_a = std::async(std::launch::async, query_all);
  auto counts_b = std::async(std::launch::async, query_all);
  go.set_value();

  EXPECT_EQ(counts_a.get(), expected_counts);
  EXPECT_EQ(counts_b.get(), expected_counts);
  EXPECT_EQ(hitters.get(), expected_hitters);
  EXPECT_EQ(distribution.get(), expected_distribution);
}

}  // namespace
}  // namespace davinci
