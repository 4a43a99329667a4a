// Google-benchmark micro-benchmarks: per-sketch insertion and query
// throughput on a Zipf stream (backs the paper's throughput claims with
// op-level numbers).
//
// Besides the console table, writes BENCH_micro_ops.json (per-sketch Mops
// plus the final DaVinci HealthSnapshot), BENCH_query_kernels.json
// (scalar-vs-SIMD probe throughput, single-vs-batch query throughput and
// 1-vs-4-thread decode latency) and BENCH_epoch_engine.json (snapshot
// acquisition, CoW clone tallies, epoch rotation rate and RCU read
// throughput) for the CI bench-regression gates.

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "baselines/cm_sketch.h"
#include "baselines/csoa.h"
#include "baselines/cu_sketch.h"
#include "baselines/elastic_sketch.h"
#include "baselines/cold_filter.h"
#include "baselines/fcm_sketch.h"
#include "baselines/heavy_guardian.h"
#include "baselines/space_saving.h"
#include "bench_common.h"
#include "common/simd.h"
#include "core/concurrent_davinci.h"
#include "core/davinci_sketch.h"
#include "core/epoch_manager.h"
#include "core/infrequent_part.h"
#include "workload/trace.h"

namespace {

constexpr size_t kBytes = 200 * 1024;

const std::vector<uint32_t>& Keys() {
  static const std::vector<uint32_t>* keys = [] {
    auto trace = new davinci::Trace(
        davinci::BuildSkewedTrace("bench", 200000, 20000, 1.05, 97));
    return &trace->keys;
  }();
  return *keys;
}

template <typename Sketch>
Sketch MakeSketch();

template <>
davinci::DaVinciSketch MakeSketch() {
  return davinci::DaVinciSketch(kBytes, 1);
}
template <>
davinci::CmSketch MakeSketch() {
  return davinci::CmSketch(kBytes, 3, 1);
}
template <>
davinci::CuSketch MakeSketch() {
  return davinci::CuSketch(kBytes, 3, 1);
}
template <>
davinci::ElasticSketch MakeSketch() {
  return davinci::ElasticSketch(kBytes, 1);
}
template <>
davinci::FcmSketch MakeSketch() {
  return davinci::FcmSketch(kBytes, 1);
}
template <>
davinci::Csoa MakeSketch() {
  return davinci::Csoa({kBytes, kBytes, kBytes}, 1);
}
template <>
davinci::ColdFilterCm MakeSketch() {
  return davinci::ColdFilterCm(kBytes, 15, 1);
}
template <>
davinci::SpaceSaving MakeSketch() {
  return davinci::SpaceSaving(kBytes, 1);
}
template <>
davinci::HeavyGuardian MakeSketch() {
  return davinci::HeavyGuardian(kBytes, 1);
}

template <typename Sketch>
void BM_Insert(benchmark::State& state) {
  const auto& keys = Keys();
  for (auto _ : state) {
    Sketch sketch = MakeSketch<Sketch>();
    for (uint32_t key : keys) sketch.Insert(key, 1);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}

template <typename Sketch>
void BM_Query(benchmark::State& state) {
  const auto& keys = Keys();
  Sketch sketch = MakeSketch<Sketch>();
  for (uint32_t key : keys) sketch.Insert(key, 1);
  size_t i = 0;
  int64_t sink = 0;
  for (auto _ : state) {
    sink += sketch.Query(keys[i % keys.size()]);
    ++i;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// ---- query-path kernels (SIMD probe / batch query / parallel decode) ----

// A field of FP-shaped buckets (7 logical slots padded to the SIMD stride)
// with a probe stream that alternates hits and misses — the kernels' real
// workload, minus the surrounding sketch.
struct ProbeFixture {
  size_t stride = 0;
  std::vector<uint32_t> keys;
  std::vector<int64_t> counts;
  std::vector<uint32_t> needles;  // needle i probes bucket i % kBuckets

  static constexpr size_t kBuckets = 4096;
  static constexpr size_t kSlots = 7;
};

const ProbeFixture& Probes() {
  static const ProbeFixture* fixture = [] {
    auto* f = new ProbeFixture;
    f->stride = davinci::simd::PaddedSlots(ProbeFixture::kSlots);
    f->keys.assign(ProbeFixture::kBuckets * f->stride, 0);
    f->counts.assign(ProbeFixture::kBuckets * f->stride, 0);
    std::mt19937_64 rng(42);
    for (size_t b = 0; b < ProbeFixture::kBuckets; ++b) {
      for (size_t s = 0; s < ProbeFixture::kSlots; ++s) {
        f->keys[b * f->stride + s] =
            static_cast<uint32_t>(b * ProbeFixture::kSlots + s + 1);
        f->counts[b * f->stride + s] = 1 + static_cast<int64_t>(rng() % 100);
      }
    }
    f->needles.resize(1 << 16);
    for (size_t i = 0; i < f->needles.size(); ++i) {
      size_t b = i % ProbeFixture::kBuckets;
      // Even probes hit a random resident slot, odd probes miss.
      f->needles[i] =
          (i & 1) == 0
              ? f->keys[b * f->stride + rng() % ProbeFixture::kSlots]
              : static_cast<uint32_t>(1000000000u + i);
    }
    return f;
  }();
  return *fixture;
}

// One full pass over the probe stream; returns a sink so the loop is not
// optimized away. `UseSimd` selects the dispatched kernel vs the scalar
// reference.
template <bool UseSimd>
size_t ProbePass(const ProbeFixture& f) {
  size_t sink = 0;
  for (size_t i = 0; i < f.needles.size(); ++i) {
    size_t base = (i % ProbeFixture::kBuckets) * f.stride;
    size_t hit = UseSimd
                     ? davinci::simd::FindLiveKey(&f.keys[base],
                                                  &f.counts[base], f.stride,
                                                  f.needles[i])
                     : davinci::simd::FindLiveKeyScalar(
                           &f.keys[base], &f.counts[base], f.stride,
                           f.needles[i]);
    sink += hit != SIZE_MAX ? hit : 0;
  }
  return sink;
}

void BM_ProbeScalar(benchmark::State& state) {
  const ProbeFixture& f = Probes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProbePass<false>(f));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.needles.size()));
}

void BM_ProbeSimd(benchmark::State& state) {
  const ProbeFixture& f = Probes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProbePass<true>(f));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.needles.size()));
}

void BM_QueryBatch(benchmark::State& state) {
  const auto& keys = Keys();
  davinci::DaVinciSketch sketch = MakeSketch<davinci::DaVinciSketch>();
  sketch.InsertBatch(keys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.QueryBatch(keys));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}

// A decodable infrequent part big enough that the purity scans dominate.
const davinci::InfrequentPart& DecodeFixture() {
  static const davinci::InfrequentPart* ifp = [] {
    auto* part = new davinci::InfrequentPart(3, 1 << 16, /*use_signs=*/true,
                                             /*seed=*/7);
    std::mt19937_64 rng(7);
    for (int i = 0; i < 25000; ++i) {
      part->Insert(static_cast<uint32_t>(1 + rng() % 40000),
                   1 + static_cast<int64_t>(rng() % 30));
    }
    return part;
  }();
  return *ifp;
}

void BM_Decode(benchmark::State& state) {
  const davinci::InfrequentPart& ifp = DecodeFixture();
  size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ifp.Decode(nullptr, threads));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// Best-of-N wall time for `rounds` invocations of `pass` (minimum over
// repeats, the standard noise-rejection estimator for short kernels: any
// scheduling hiccup only ever inflates a measurement).
template <typename Fn>
double BestOfSeconds(int repeats, Fn&& pass) {
  double best = -1.0;
  for (int r = 0; r < repeats; ++r) {
    davinci::Timer timer;
    pass();
    double seconds = timer.ElapsedSeconds();
    if (best < 0 || seconds < best) best = seconds;
  }
  return best;
}

// Direct timings for BENCH_query_kernels.json (independent of the
// benchmark framework's iteration policy, so the JSON is cheap to
// regenerate and deterministic in shape).
void WriteQueryKernelsJson() {
  davinci::bench::BenchJson json("query_kernels");
  json.Str("simd_backend", davinci::simd::kBackend);
  json.Count("hardware_threads", std::thread::hardware_concurrency());

  const ProbeFixture& f = Probes();
  constexpr int kProbeRounds = 200;
  auto time_probe = [&](auto pass) {
    size_t sink = 0;
    davinci::Timer timer;
    for (int r = 0; r < kProbeRounds; ++r) sink += pass(f);
    double seconds = timer.ElapsedSeconds();
    benchmark::DoNotOptimize(sink);
    return davinci::ThroughputMpps(
        static_cast<size_t>(kProbeRounds) * f.needles.size(), seconds);
  };
  double probe_scalar = time_probe(ProbePass<false>);
  double probe_simd = time_probe(ProbePass<true>);
  json.Metric("probe_scalar_mops", probe_scalar);
  json.Metric("probe_simd_mops", probe_simd);
  json.Metric("probe_speedup",
              probe_scalar > 0 ? probe_simd / probe_scalar : 0.0);

  // Single-query reference path, best-of-N over full trace passes.
  const auto& keys = Keys();
  constexpr int kQueryRepeats = 5;
  int64_t sink = 0;
  double single_seconds;
  {
    davinci::DaVinciSketch sketch = MakeSketch<davinci::DaVinciSketch>();
    sketch.InsertBatch(keys);
    single_seconds = BestOfSeconds(kQueryRepeats, [&] {
      for (uint32_t key : keys) sink += sketch.Query(key);
    });
  }
  double query_single = davinci::ThroughputMpps(keys.size(), single_seconds);

  // Batched path at QueryBatch's built-in pipeline shape.
  double batch_seconds;
  {
    davinci::DaVinciSketch sketch = MakeSketch<davinci::DaVinciSketch>();
    sketch.InsertBatch(keys);
    batch_seconds = BestOfSeconds(kQueryRepeats, [&] {
      std::vector<int64_t> answers = sketch.QueryBatch(keys);
      sink += answers.empty() ? 0 : answers.back();
    });
  }
  benchmark::DoNotOptimize(sink);
  double query_batch = davinci::ThroughputMpps(keys.size(), batch_seconds);
  json.Metric("query_single_mops", query_single);
  json.Metric("query_batch_mops", query_batch);
  json.Metric("query_batch_speedup",
              query_single > 0 ? query_batch / query_single : 0.0);

  // Decode scaling, default options (clamped to the host's cores): on a
  // single-core host the 4-thread request honestly degrades to the
  // sequential scan and the reported speedup sits at ~1.0 rather than
  // manufacturing a parallel win the hardware cannot deliver.
  const davinci::InfrequentPart& ifp = DecodeFixture();
  constexpr int kDecodeReps = 3;
  auto time_decode_ms = [&](size_t threads) {
    size_t flows = 0;
    double seconds = BestOfSeconds(kDecodeReps, [&] {
      flows += ifp.Decode(nullptr, threads).size();
    });
    benchmark::DoNotOptimize(flows);
    return seconds * 1000.0;
  };
  double decode_1t = time_decode_ms(1);
  double decode_4t = time_decode_ms(4);
  unsigned hw = std::thread::hardware_concurrency();
  json.Metric("decode_1t_ms", decode_1t);
  json.Metric("decode_4t_ms", decode_4t);
  json.Metric("decode_speedup_4t", decode_4t > 0 ? decode_1t / decode_4t : 0.0);
  json.Count("decode_threads_effective",
             std::min<size_t>(4, hw == 0 ? 1 : hw));
  // Every Decode above landed in the process-wide ifp_decode histogram.
  json.Histogram("ifp_decode",
                 davinci::obs::StatsRegistry::Global().Histogram("ifp_decode"));
  json.Write();
}

// Direct timings for BENCH_epoch_engine.json: snapshot acquisition cost,
// CoW clone tallies, epoch rotation rate, memoized window-merge reuse and
// RCU read throughput with and without a racing writer.
void WriteEpochEngineJson() {
  davinci::bench::BenchJson json("epoch_engine");
  const auto& keys = Keys();

  // Snapshot acquisition is O(1): the view shares the parts' CoW buffers,
  // so the loop measures pointer bookkeeping, not counter copies.
  davinci::obs::CowTally::ResetForTesting();
  davinci::DaVinciSketch sketch = MakeSketch<davinci::DaVinciSketch>();
  sketch.InsertBatch(keys);
  constexpr size_t kSnapshots = 200000;
  std::shared_ptr<const davinci::SketchView> view;
  davinci::Timer timer;
  for (size_t i = 0; i < kSnapshots; ++i) {
    view = sketch.Snapshot();
    benchmark::DoNotOptimize(view);
  }
  json.Metric("snapshot_acquire_mops",
              davinci::ThroughputMpps(kSnapshots, timer.ElapsedSeconds()));
  // One write against the outstanding view triggers the lazy clones.
  sketch.Insert(1, 1);
  json.Count("cow_clones", davinci::obs::CowTally::Clones());
  json.Count("cow_clone_bytes", davinci::obs::CowTally::CloneBytes());

  // Rotation: seal (a move) + fresh sketch + one accumulator merge.
  constexpr size_t kRotations = 64;
  constexpr size_t kKeysPerEpoch = 4096;
  davinci::EpochManager engine(8, 64 * 1024, 3);
  timer.Restart();
  for (size_t r = 0; r < kRotations; ++r) {
    engine.InsertBatch(std::span<const uint32_t>(
        keys.data() + (r % 16) * kKeysPerEpoch, kKeysPerEpoch));
    engine.Advance();
  }
  double rotate_seconds = timer.ElapsedSeconds();
  json.Metric("rotation_per_s", rotate_seconds > 0
                                    ? static_cast<double>(kRotations) /
                                          rotate_seconds
                                    : 0.0);
  for (int i = 0; i < 4; ++i) {
    benchmark::DoNotOptimize(engine.MergedWindow());
  }
  json.Count("window_merge_reuse_hits", engine.window_merge_hits());
  json.Count("window_rebuild_merges", engine.window_rebuild_merges());

  // RCU read path: Query throughput against the published views, first
  // uncontended, then with a writer batching its view publications at the
  // serving-style interval (interval 1 would re-clone ~200KB of CoW
  // buffers per insert, trashing the reader's cache along with the
  // writer's throughput — see DESIGN.md §10).
  constexpr size_t kPublishInterval = 1024;
  json.Count("publish_interval", kPublishInterval);
  json.Count("hardware_threads", std::thread::hardware_concurrency());
  davinci::ConcurrentDaVinci shared(4, kBytes, 5);
  shared.InsertBatch(keys);
  constexpr int kReadRounds = 5;
  int64_t sink = 0;
  auto read_pass = [&shared, &keys] {
    int64_t total = 0;
    for (uint32_t key : keys) total += shared.Query(key);
    return total;
  };
  // Best-of-N per full trace pass, matching the query-kernel timings: a
  // scheduling hiccup can only inflate a pass, never shrink it.
  double uncontended_seconds =
      BestOfSeconds(kReadRounds, [&] { sink += read_pass(); });
  json.Metric("read_uncontended_mops",
              davinci::ThroughputMpps(keys.size(), uncontended_seconds));
  shared.SetPublishInterval(kPublishInterval);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writer_ops{0};
  std::thread writer([&shared, &keys, &stop, &writer_ops] {
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      shared.Insert(keys[i % keys.size()], 1);
      if ((++i & 1023) == 0) {
        writer_ops.fetch_add(1024, std::memory_order_relaxed);
      }
    }
  });
  timer.Restart();
  double contended_seconds =
      BestOfSeconds(kReadRounds, [&] { sink += read_pass(); });
  double contended_window = timer.ElapsedSeconds();
  json.Metric("read_under_contention_mops",
              davinci::ThroughputMpps(keys.size(), contended_seconds));
  stop.store(true, std::memory_order_release);
  writer.join();
  // Write-side face of the same contest: inserts the racing writer
  // retired per second. Publication batching is what keeps this from
  // collapsing into per-insert CoW clones.
  json.Metric("contended_writer_mops",
              davinci::ThroughputMpps(
                  writer_ops.load(std::memory_order_relaxed),
                  contended_window));
  shared.FlushViews();

  // Whole-system mixed read/write scaling: one writer thread streaming
  // Inserts (publishing every kPublishInterval) against 1/2/4/8 reader
  // threads running batched queries over the published views. Reported
  // per point: aggregate reader Mops. On a host with fewer cores than
  // readers + writer the curve honestly flattens or droops — the
  // hardware_threads count above tells the regression gate which regime
  // produced the numbers.
  for (size_t readers : {1u, 2u, 4u, 8u}) {
    std::atomic<bool> mixed_stop{false};
    std::thread mixed_writer([&shared, &keys, &mixed_stop] {
      size_t i = 0;
      while (!mixed_stop.load(std::memory_order_acquire)) {
        shared.Insert(keys[i % keys.size()], 1);
        ++i;
      }
    });
    constexpr int kMixedRounds = 2;
    std::vector<std::thread> pool;
    pool.reserve(readers);
    timer.Restart();
    for (size_t t = 0; t < readers; ++t) {
      pool.emplace_back([&shared, &keys] {
        int64_t total = 0;
        for (int r = 0; r < kMixedRounds; ++r) {
          std::vector<int64_t> answers = shared.QueryBatch(keys);
          total += answers.empty() ? 0 : answers.back();
        }
        benchmark::DoNotOptimize(total);
      });
    }
    for (std::thread& thread : pool) thread.join();
    double seconds = timer.ElapsedSeconds();
    mixed_stop.store(true, std::memory_order_release);
    mixed_writer.join();
    json.Metric("mixed_read_mops_" + std::to_string(readers) + "t",
                davinci::ThroughputMpps(
                    readers * kMixedRounds * keys.size(), seconds));
  }
  benchmark::DoNotOptimize(sink);
  json.Write();
}

// Captures items_per_second per benchmark while still printing the normal
// console table, keyed by a JSON-friendly name.
class MopsCapture : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        mops_.emplace_back(JsonKey(run.benchmark_name()),
                           it->second.value / 1e6);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<std::pair<std::string, double>>& mops() const {
    return mops_;
  }

 private:
  // "BM_Insert<davinci::CmSketch>" -> "Insert_CmSketch_mops".
  static std::string JsonKey(const std::string& name) {
    std::string key;
    key.reserve(name.size() + 5);
    for (size_t i = 0; i < name.size();) {
      if (name.compare(i, 3, "BM_") == 0) {
        i += 3;
      } else if (name.compare(i, 10, "<davinci::") == 0) {
        key += '_';
        i += 10;
      } else if (name[i] == '>') {
        ++i;
      } else {
        key += name[i++];
      }
    }
    return key + "_mops";
  }

  std::vector<std::pair<std::string, double>> mops_;
};

}  // namespace

BENCHMARK_TEMPLATE(BM_Insert, davinci::DaVinciSketch)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Insert, davinci::CmSketch)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Insert, davinci::CuSketch)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Insert, davinci::ElasticSketch)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Insert, davinci::FcmSketch)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Insert, davinci::Csoa)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Insert, davinci::ColdFilterCm)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Insert, davinci::SpaceSaving)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Insert, davinci::HeavyGuardian)->Unit(benchmark::kMillisecond);

BENCHMARK_TEMPLATE(BM_Query, davinci::DaVinciSketch);
BENCHMARK_TEMPLATE(BM_Query, davinci::CmSketch);
BENCHMARK_TEMPLATE(BM_Query, davinci::ElasticSketch);

BENCHMARK(BM_ProbeScalar);
BENCHMARK(BM_ProbeSimd);
BENCHMARK(BM_QueryBatch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Decode)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  MopsCapture reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  davinci::bench::BenchJson json("micro_ops");
  for (const auto& [key, mops] : reporter.mops()) json.Metric(key, mops);
  davinci::DaVinciSketch sketch = MakeSketch<davinci::DaVinciSketch>();
  for (uint32_t key : Keys()) sketch.Insert(key, 1);
  davinci::obs::HealthSnapshot snapshot;
  sketch.CollectStats(&snapshot);
  json.Snapshot(snapshot);
  json.Write();

  WriteQueryKernelsJson();
  WriteEpochEngineJson();
  return 0;
}
