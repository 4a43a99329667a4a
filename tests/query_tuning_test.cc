// Tuning-surface equivalence for the adaptive query path: the tiny-batch
// fallthrough of QueryBatch must answer exactly what per-key Query
// answers (query_batch_test covers the chunked pipeline); the
// persistent-pool Fermat decode must be bit-identical across sharding
// granularities and worker counts; the concurrent wrapper must reach the
// same state with lock-free readers racing its writer as without them;
// and the WorkerPool must run every shard exactly once per round
// across many reused rounds.

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/worker_pool.h"
#include "core/concurrent_davinci.h"
#include "core/davinci_sketch.h"
#include "core/infrequent_part.h"
#include "obs/health.h"
#include "test_seed.h"
#include "workload/zipf.h"

namespace davinci {
namespace {

std::vector<uint32_t> ZipfKeys(size_t n, uint64_t seed) {
  ZipfGenerator zipf(50000, 1.05, seed);
  std::vector<uint32_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<uint32_t>(zipf.Next()));
  }
  return keys;
}

// ---- WorkerPool ----

TEST(WorkerPoolTest, RunsEveryShardExactlyOncePerRound) {
  WorkerPool pool(3);
  // Reuse the pool across many rounds of varying width — the generation
  // counter must keep parked workers from re-running a stale round.
  for (size_t round = 0; round < 50; ++round) {
    size_t shards = 1 + round % 9;
    std::vector<std::atomic<uint32_t>> hits(shards);
    for (auto& hit : hits) hit.store(0);
    pool.Run(shards, [&](size_t shard) {
      hits[shard].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t s = 0; s < shards; ++s) {
      ASSERT_EQ(hits[s].load(), 1u) << "round=" << round << " shard=" << s;
    }
  }
}

TEST(WorkerPoolTest, ZeroExtraWorkersRunsInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.extra_workers(), 0u);
  std::vector<int> hits(7, 0);
  pool.Run(hits.size(), [&](size_t shard) { ++hits[shard]; });
  for (int hit : hits) EXPECT_EQ(hit, 1);
  pool.Run(0, [&](size_t) { FAIL() << "zero shards must not invoke"; });
}

// ---- adaptive QueryBatch ----

TEST(QueryTuningTest, TinyBatchFallsThroughToSingleQueryAnswers) {
  const uint64_t seed = testing::TestSeed(41);
  DAVINCI_ANNOUNCE_SEED(seed);
  std::vector<uint32_t> keys = ZipfKeys(30000, seed);

  DaVinciSketch sketch(DaVinciConfig::FromMemory(64 * 1024, 11));
  sketch.InsertBatch(keys);

  // Every length below, at, and just above QueryBatch's 32-key fallthrough
  // threshold — including the boundary lengths where the pipeline takes
  // over.
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{31}, size_t{32},
                   size_t{33}, size_t{100}}) {
    std::vector<uint32_t> probes(keys.begin(), keys.begin() + n);
    probes.resize(n);
    std::vector<int64_t> batched = sketch.QueryBatch(probes);
    ASSERT_EQ(batched.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batched[i], sketch.Query(probes[i])) << "n=" << n << " i=" << i;
    }
  }
}

// ---- decode sharding granularity ----

TEST(DecodeGranularityTest, BitIdenticalAcrossGranularityBoundaries) {
  const uint64_t seed = testing::TestSeed(43);
  DAVINCI_ANNOUNCE_SEED(seed);
  InfrequentPart ifp(3, 4096, /*use_signs=*/true, seed);
  ZipfGenerator zipf(1500, 1.05, seed);
  for (int i = 0; i < 5000; ++i) {
    ifp.Insert(static_cast<uint32_t>(1 + zipf.Next()), 1 + i % 40);
  }

  std::unordered_map<uint32_t, int64_t> sequential = ifp.Decode(nullptr, 1);
  // Granularities straddling the fixture's ~12k active buckets: 1 (every
  // round splits), the defaults, the boundary where only the first rounds
  // split, and a floor so high every round runs sequentially. The pool is
  // exercised regardless of host core count (clamp off).
  for (size_t granularity : {size_t{1}, size_t{64}, size_t{4096},
                             size_t{6000}, size_t{1} << 20}) {
    for (size_t threads : {size_t{2}, size_t{4}, size_t{7}}) {
      InfrequentPart::DecodeOptions options;
      options.num_threads = threads;
      options.min_buckets_per_worker = granularity;
      options.clamp_to_hardware = false;
      std::unordered_map<uint32_t, int64_t> sharded =
          ifp.Decode(nullptr, options);
      ASSERT_EQ(sharded.size(), sequential.size())
          << "granularity=" << granularity << " threads=" << threads;
      for (const auto& [key, count] : sequential) {
        auto it = sharded.find(key);
        ASSERT_TRUE(it != sharded.end())
            << "granularity=" << granularity << " threads=" << threads
            << " lost key " << key;
        ASSERT_EQ(it->second, count)
            << "granularity=" << granularity << " threads=" << threads
            << " key=" << key;
      }
    }
  }
}

// ---- view publication ----

TEST(PublishBatchingTest, MixedReadersMatchQuiescedReference) {
  const uint64_t seed = testing::TestSeed(44);
  DAVINCI_ANNOUNCE_SEED(seed);
  std::vector<uint32_t> keys = ZipfKeys(60000, seed);

  // Reference: the same stream, applied with no readers.
  ConcurrentDaVinci reference(4, 128 * 1024, 9);
  reference.InsertBatch(keys);

  // The same stream with concurrent lock-free readers racing the writer.
  // Reader answers are unchecked mid-flight (they may see the batch on
  // some shards only); what must hold is bit-equivalence once the call
  // returns.
  ConcurrentDaVinci contended(4, 128 * 1024, 9);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&contended, &keys, &stop] {
      int64_t sink = 0;
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        sink += contended.Query(keys[i % keys.size()]);
        ++i;
      }
      volatile int64_t keep = sink;
      (void)keep;
    });
  }
  contended.InsertBatch(keys);
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  std::vector<uint32_t> probes(keys.begin(), keys.begin() + 4096);
  EXPECT_EQ(contended.QueryBatch(probes), reference.QueryBatch(probes));
  EXPECT_EQ(contended.EstimateCardinality(), reference.EstimateCardinality());
  contended.CheckInvariants(InvariantMode::kAdditive);
}

// ---- tuning telemetry ----

TEST(TuningHealthTest, KnobsSurfaceInHealthSnapshot) {
  DaVinciConfig config = DaVinciConfig::FromMemory(64 * 1024, 5);
  config.decode_min_buckets_per_worker = 2048;
  DaVinciSketch sketch(config);

  obs::HealthSnapshot snapshot;
  sketch.CollectStats(&snapshot);
  EXPECT_EQ(snapshot.tuning.decode_min_buckets_per_worker, 2048u);

  ConcurrentDaVinci shared(2, 64 * 1024, 5);
  obs::HealthSnapshot aggregated;
  shared.CollectStats(&aggregated);
  EXPECT_GT(aggregated.tuning.decode_min_buckets_per_worker, 0u);
}

}  // namespace
}  // namespace davinci
