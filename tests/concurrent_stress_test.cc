// Hammers ConcurrentDaVinci from many threads at once — writers running
// Insert/InsertBatch against readers running Query/EstimateCardinality/
// Snapshot and a merger folding a second sharded sketch in mid-stream.
// Functional in every build; its real teeth come from the `tsan` preset
// (-fsanitize=thread), where any unlocked shard access or lock-order
// inversion turns into a hard failure.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/concurrent_davinci.h"
#include "server/client.h"
#include "server/server.h"
#include "test_seed.h"

namespace davinci {
namespace {

// Deterministic per-thread key stream: thread t draws from a disjoint key
// range so post-join totals are predictable.
std::vector<uint32_t> ThreadKeys(int thread, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(thread));
  uint32_t lo = static_cast<uint32_t>(thread) * 100000 + 1;
  std::uniform_int_distribution<uint32_t> dist(lo, lo + 9999);
  std::vector<uint32_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(dist(rng));
  return keys;
}

TEST(ConcurrentStressTest, InsertsRacingQueriesAndSnapshots) {
  constexpr int kWriters = 4;
  constexpr size_t kKeysPerWriter = 20000;
  const uint64_t seed = testing::TestSeed(7);
  DAVINCI_ANNOUNCE_SEED(seed);
  ConcurrentDaVinci sketch(4, 512 * 1024, seed);

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  // Writers: mixed single and batched inserts.
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&sketch, t] {
      std::vector<uint32_t> keys = ThreadKeys(t, kKeysPerWriter, 7);
      size_t half = keys.size() / 2;
      for (size_t i = 0; i < half; ++i) sketch.Insert(keys[i]);
      sketch.InsertBatch(
          std::span<const uint32_t>(keys.data() + half, keys.size() - half));
    });
  }
  // Readers: point queries, cardinality, snapshots, structural audits.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&sketch, &done, t] {
      std::mt19937_64 rng(900 + static_cast<uint64_t>(t));
      std::uniform_int_distribution<uint32_t> dist(1, 400000);
      while (!done.load(std::memory_order_acquire)) {
        for (int i = 0; i < 64; ++i) {
          // Absent keys may estimate slightly negative (signed IFP fast
          // query); anything huge means torn state.
          int64_t estimate = sketch.Query(dist(rng));
          EXPECT_LT(std::llabs(estimate), int64_t{1} << 40);
        }
        EXPECT_GE(sketch.EstimateCardinality(), 0.0);
        DaVinciSketch snapshot = sketch.Snapshot();
        EXPECT_GT(snapshot.MemoryBytes(), 0u);
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  sketch.CheckInvariants(InvariantMode::kAdditive);
  // Every writer inserted kKeysPerWriter packets into a ~10k-key range;
  // cardinality must land near the true distinct count (well under the
  // inserted-packet total, well above a small constant).
  double cardinality = sketch.EstimateCardinality();
  EXPECT_GT(cardinality, 0.5 * 10000 * kWriters);
  EXPECT_LT(cardinality, 2.0 * 10000 * kWriters);
}

TEST(ConcurrentStressTest, MergeRacingInsertsAndQueries) {
  constexpr size_t kKeysPerWriter = 15000;
  ConcurrentDaVinci target(4, 256 * 1024, 13);
  ConcurrentDaVinci source(4, 256 * 1024, 13);
  source.InsertBatch(
      std::span<const uint32_t>(ThreadKeys(8, kKeysPerWriter, 13)));

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  // Two writers keep inserting into the target while it absorbs merges.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&target, t] {
      std::vector<uint32_t> keys = ThreadKeys(t, kKeysPerWriter, 13);
      target.InsertBatch(std::span<const uint32_t>(keys));
    });
  }
  // One writer keeps inserting into the source while it is being merged
  // from — Merge holds both shards' locks, so this must be race-free.
  threads.emplace_back([&source] {
    std::vector<uint32_t> keys = ThreadKeys(5, kKeysPerWriter, 13);
    for (uint32_t key : keys) source.Insert(key);
  });
  // The merger folds source into target repeatedly, racing everything.
  threads.emplace_back([&target, &source] {
    for (int i = 0; i < 3; ++i) target.Merge(source);
  });
  // A reader hammers both sides throughout.
  threads.emplace_back([&target, &source, &done] {
    std::mt19937_64 rng(4242);
    std::uniform_int_distribution<uint32_t> dist(1, 900000);
    while (!done.load(std::memory_order_acquire)) {
      int64_t a = target.Query(dist(rng));
      int64_t b = source.Query(dist(rng));
      EXPECT_LT(std::llabs(a) + std::llabs(b), int64_t{1} << 40);
    }
  });
  for (size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  threads.back().join();

  target.CheckInvariants(InvariantMode::kAdditive);
  source.CheckInvariants(InvariantMode::kAdditive);
  EXPECT_GT(target.EstimateCardinality(), 0.0);
}

TEST(ConcurrentStressTest, SnapshotViewsRacingWriters) {
  // RCU leg: readers pin SnapshotAll() views and keep reading them while
  // writers race ahead and republish. Runs everywhere; the tsan CI leg
  // sets DAVINCI_STRESS_SNAPSHOTS=1 for a longer soak.
  const char* soak_env = std::getenv("DAVINCI_STRESS_SNAPSHOTS");
  const bool soak = soak_env != nullptr && *soak_env != '\0';
  const size_t keys_per_writer = soak ? 30000 : 8000;
  ConcurrentDaVinci sketch(4, 256 * 1024, 23);

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&sketch, t, keys_per_writer] {
      std::vector<uint32_t> keys = ThreadKeys(t, keys_per_writer, 23);
      size_t half = keys.size() / 2;
      for (size_t i = 0; i < half; ++i) sketch.Insert(keys[i]);
      sketch.InsertBatch(
          std::span<const uint32_t>(keys.data() + half, keys.size() - half));
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&sketch, &done, t] {
      std::mt19937_64 rng(7000 + static_cast<uint64_t>(t));
      std::uniform_int_distribution<uint32_t> dist(1, 300000);
      while (!done.load(std::memory_order_acquire)) {
        // Pin a coherent serving set, then read it while writers move on:
        // each view must stay internally consistent (CoW) even though the
        // shard has long since republished.
        auto views = sketch.SnapshotAll();
        int64_t total = 0;
        for (const auto& view : views) {
          total += view->Query(dist(rng));
          EXPECT_GT(view->MemoryBytes(), 0u);
        }
        EXPECT_LT(std::llabs(total), int64_t{1} << 40);
        for (const auto& view : views) {
          EXPECT_GE(view->EstimateCardinality(), 0.0);
          (void)view->HeavyHitters(1 << 20);
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true, std::memory_order_release);
  for (size_t t = 2; t < threads.size(); ++t) threads[t].join();

  sketch.CheckInvariants(InvariantMode::kAdditive);
}

TEST(ConcurrentStressTest, SharedSnapshotReadersRacingWriter) {
  // Memo leg: readers share the memoized merged snapshot, decode it and
  // compare it against a second call while a writer keeps publishing.
  // Every reader may miss and merge at once; the last store wins.
  ConcurrentDaVinci sketch(4, 256 * 1024, 29);
  sketch.InsertBatch(std::span<const uint32_t>(ThreadKeys(0, 6000, 29)));

  std::atomic<bool> done{false};
  auto read = [&sketch, &done] {
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const DaVinciSketch> snapshot = sketch.SharedSnapshot();
      std::shared_ptr<const DaVinciSketch> again = sketch.SharedSnapshot();
      int64_t flows = 0;
      for (const auto& [size, count] : snapshot->Distribution()) {
        flows += count;
      }
      EXPECT_GT(flows, 0);
      EXPECT_TRUE(snapshot->HeavyChangers(*snapshot, 0).empty());
      EXPECT_TRUE(snapshot->HeavyChangers(*again, 1 << 20).empty());
    }
  };
  std::thread threads[] = {
      std::thread([&sketch] {
        std::vector<uint32_t> keys = ThreadKeys(1, 8000, 29);
        size_t half = keys.size() / 2;
        for (size_t i = 0; i < half; ++i) sketch.Insert(keys[i]);
        sketch.InsertBatch(std::span<const uint32_t>(keys.data() + half,
                                                     keys.size() - half));
      }),
      std::thread(read),
      std::thread(read),
  };
  threads[0].join();
  done.store(true, std::memory_order_release);
  threads[1].join();
  threads[2].join();

  // A racing reader may have stored a memo of older views; it must not be
  // served now. Compare against a fold of the views that bypasses it.
  std::vector<std::shared_ptr<const SketchView>> views = sketch.SnapshotAll();
  DaVinciSketch folded = views[0]->sketch();
  for (size_t s = 1; s < views.size(); ++s) folded.Merge(views[s]->sketch());
  std::stringstream expected, actual;
  folded.Save(expected);
  sketch.SharedSnapshot()->Save(actual);
  EXPECT_EQ(actual.str(), expected.str());
  EXPECT_GT(sketch.snapshot_merges(), 0u);
  sketch.CheckInvariants(InvariantMode::kAdditive);
}

TEST(ConcurrentStressTest, CrossMergeDoesNotDeadlock) {
  // Two instances merging into each other concurrently: std::scoped_lock's
  // deadlock-avoidance must hold even with writers active on both.
  ConcurrentDaVinci a(4, 128 * 1024, 17);
  ConcurrentDaVinci b(4, 128 * 1024, 17);
  a.InsertBatch(std::span<const uint32_t>(ThreadKeys(0, 10000, 17)));
  b.InsertBatch(std::span<const uint32_t>(ThreadKeys(1, 10000, 17)));

  std::thread threads[] = {
      std::thread([&] { a.Merge(b); }),
      std::thread([&] { b.Merge(a); }),
      std::thread([&a] {
        for (uint32_t key : ThreadKeys(2, 5000, 17)) a.Insert(key);
      }),
      std::thread([&b] {
        for (uint32_t key : ThreadKeys(3, 5000, 17)) b.Insert(key);
      }),
  };
  for (std::thread& t : threads) t.join();

  a.CheckInvariants(InvariantMode::kAdditive);
  b.CheckInvariants(InvariantMode::kAdditive);
}

TEST(ConcurrentStressTest, MultiTenantServerSoak) {
  // Server leg: N client threads hammer M tenants over real sockets with
  // mixed ops — batched ingest, point/batch queries, heavy hitters,
  // cardinality, epoch seals, checkpoints, cross-tenant unions, export/
  // import fan-in, admin churn — plus one "elastic" tenant the clients
  // resize between two budgets while importing the soak tenants' exports
  // into it (the tenant-mutex paths). Runs a short version everywhere; the
  // tsan CI leg sets DAVINCI_STRESS_SERVER=1 for a longer soak
  // (dispatcher + registry + tenant synchronization all under the race
  // detector).
  const char* soak_env = std::getenv("DAVINCI_STRESS_SERVER");
  const bool soak = soak_env != nullptr && *soak_env != '\0';
  const int kClients = 4;
  const int kTenants = 4;
  constexpr uint64_t kSoakBytes = 128 * 1024;
  const int rounds = soak ? 60 : 12;
  const uint64_t seed = testing::TestSeed(29);
  DAVINCI_ANNOUNCE_SEED(seed);

  // Persistent, so kCheckpoint and the post-resize checkpoint really
  // serialize each tenant.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("davinci_soak_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  server::ServerOptions options;
  options.workers = 3;
  options.checkpoint_dir = dir.string();
  server::SketchServer server(options);
  ASSERT_TRUE(server.Start());
  {
    server::Client admin;
    ASSERT_TRUE(admin.Connect(server.port()));
    for (int m = 0; m < kTenants; ++m) {
      // Shared seed: every cross-tenant pairing stays geometry-compatible.
      ASSERT_EQ(admin.CreateTenant("soak" + std::to_string(m), 4, kSoakBytes,
                                   seed),
                server::StatusCode::kOk);
    }
    ASSERT_EQ(admin.CreateTenant("elastic", 4, kSoakBytes, seed),
              server::StatusCode::kOk);
  }

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, c, rounds, seed] {
      server::Client client;
      ASSERT_TRUE(client.Connect(server.port()));
      std::mt19937_64 rng(seed * 77 + static_cast<uint64_t>(c));
      std::uniform_int_distribution<int> pick_tenant(0, kTenants - 1);
      for (int round = 0; round < rounds; ++round) {
        std::string tenant = "soak" + std::to_string(pick_tenant(rng));
        std::string other = "soak" + std::to_string(pick_tenant(rng));
        std::vector<uint32_t> keys = ThreadKeys(c, 512, seed + 1);
        std::vector<int64_t> ones(keys.size(), 1);
        ASSERT_EQ(client.InsertBatch(tenant, keys, ones),
                  server::StatusCode::kOk);
        int64_t count = 0;
        ASSERT_EQ(client.Query(tenant, keys[0], &count),
                  server::StatusCode::kOk);
        EXPECT_LT(std::llabs(count), int64_t{1} << 40);
        std::vector<int64_t> batch;
        ASSERT_EQ(client.QueryBatch(tenant, keys, &batch),
                  server::StatusCode::kOk);
        EXPECT_EQ(batch.size(), keys.size());
        double cardinality = -1;
        ASSERT_EQ(client.Cardinality(tenant, &cardinality),
                  server::StatusCode::kOk);
        EXPECT_GE(cardinality, 0.0);
        std::vector<std::pair<uint32_t, int64_t>> hitters;
        ASSERT_EQ(client.HeavyHitters(tenant, 1000, &hitters),
                  server::StatusCode::kOk);
        if (round % 4 == c % 4) {
          uint64_t epoch = 0;
          ASSERT_EQ(client.AdvanceEpoch(tenant, &epoch),
                    server::StatusCode::kOk);
        }
        if (round % 4 == (c + 2) % 4) {
          bool written = false;
          ASSERT_EQ(client.Checkpoint(tenant, &written),
                    server::StatusCode::kOk);
          EXPECT_TRUE(written);
        }
        if (tenant != other) {
          double union_card = -1;
          ASSERT_EQ(client.UnionCardinality(tenant, other, &union_card),
                    server::StatusCode::kOk);
          EXPECT_GE(union_card, 0.0);
        }
        // Fan-in: every round feeds the elastic tenant; a few rounds per
        // client also fold one soak tenant into another (rarely, since
        // each such import can double the target's counts).
        std::vector<server::Client::ExportedSketch> exported(1);
        ASSERT_EQ(client.ExportSketch(other, 1, &exported[0]),
                  server::StatusCode::kOk);
        if (round % 15 == c + 3) {
          ASSERT_EQ(client.ImportMerge(tenant, exported),
                    server::StatusCode::kOk);
        }
        uint64_t live_bytes = 0;
        ASSERT_EQ(client.ResizeTenant(
                      "elastic", (round + c) % 2 == 0 ? kSoakBytes
                                                      : 2 * kSoakBytes,
                      &live_bytes),
                  server::StatusCode::kOk);
        server::StatusCode imported = client.ImportMerge("elastic", exported);
        EXPECT_TRUE(imported == server::StatusCode::kOk ||
                    imported == server::StatusCode::kBadArgument);
        server::Client::ExportedSketch elastic;
        ASSERT_EQ(client.ExportSketch("elastic", 1, &elastic),
                  server::StatusCode::kOk);
        std::vector<std::string> names;
        ASSERT_EQ(client.ListTenants(&names), server::StatusCode::kOk);
        EXPECT_GE(names.size(), static_cast<size_t>(kTenants));
        server::HealthReply health;
        ASSERT_EQ(client.Health(tenant, &health), server::StatusCode::kOk);
        EXPECT_EQ(health.shards, 4u);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Post-join structural audit of every tenant the storm touched.
  for (int m = 0; m < kTenants; ++m) {
    std::shared_ptr<server::Tenant> tenant =
        server.registry().Find("soak" + std::to_string(m));
    ASSERT_NE(tenant, nullptr);
    tenant->engine().CheckInvariants(InvariantMode::kAdditive);
  }
  std::shared_ptr<server::Tenant> elastic = server.registry().Find("elastic");
  ASSERT_NE(elastic, nullptr);
  elastic->engine().CheckInvariants(InvariantMode::kAdditive);
  server.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace davinci
