// Single-insert vs. batched-insert throughput of the DaVinci hot path on a
// Zipf-1.05 micro-bench trace (google-benchmark harness).
//
// The sketch is sized well past the last-level cache so the workload is
// memory-bound — the regime the batched pipeline (one-pass hashing +
// one-block-ahead software prefetch + fastrange index reduction) targets.
//
// Besides the console table, the binary writes BENCH_insert_throughput.json
// through BenchJson (DAVINCI_BENCH_JSON_DIR picks the directory) holding
// the throughputs in Mops and their ratio. A committed snapshot lives at
// results/BENCH_insert_throughput.json.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/concurrent_davinci.h"
#include "core/davinci_sketch.h"
#include "obs/health.h"
#include "workload/zipf.h"

namespace {

using davinci::ConcurrentDaVinci;
using davinci::DaVinciSketch;
using davinci::ZipfGenerator;

// Defaults reproduce the committed snapshot. DAVINCI_BENCH_SKETCH_BYTES,
// DAVINCI_BENCH_TRACE_LEN and DAVINCI_BENCH_DOMAIN shrink the workload for
// quick runs — the CI regression gate compares two equally small runs, not
// a small run against the full-size committed snapshot.
//
// 32 MB of design state (≈ 8× that physically: counters are stored as
// int64_t) keeps the FP/EF/IFP arrays far larger than any L2/L3.
constexpr size_t kDefaultSketchBytes = 32u << 20;
constexpr uint64_t kSeed = 42;
constexpr size_t kDefaultTraceLen = 8u << 20;
// A wide key domain keeps the tail cold: the batched pipeline's prefetching
// is aimed at exactly this DRAM-latency-bound regime.
constexpr uint64_t kDefaultDomain = 16u << 20;

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  unsigned long long value = std::strtoull(env, nullptr, 10);
  return value > 0 ? static_cast<size_t>(value) : fallback;
}

size_t SketchBytes() {
  static const size_t bytes =
      EnvSize("DAVINCI_BENCH_SKETCH_BYTES", kDefaultSketchBytes);
  return bytes;
}

size_t TraceLen() {
  static const size_t len = EnvSize("DAVINCI_BENCH_TRACE_LEN", kDefaultTraceLen);
  return len;
}

uint64_t Domain() {
  static const uint64_t domain =
      EnvSize("DAVINCI_BENCH_DOMAIN", kDefaultDomain);
  return domain;
}

const std::vector<uint32_t>& ZipfTrace() {
  static const std::vector<uint32_t> trace = [] {
    ZipfGenerator zipf(Domain(), 1.05, kSeed);
    std::vector<uint32_t> keys;
    keys.reserve(TraceLen());
    for (size_t i = 0; i < TraceLen(); ++i) {
      keys.push_back(static_cast<uint32_t>(zipf.Next()));
    }
    return keys;
  }();
  return trace;
}

void BM_SingleInsert(benchmark::State& state) {
  const std::vector<uint32_t>& keys = ZipfTrace();
  for (auto _ : state) {
    state.PauseTiming();
    DaVinciSketch sketch(SketchBytes(), kSeed);
    state.ResumeTiming();
    for (uint32_t key : keys) sketch.Insert(key, 1);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_SingleInsert)->Unit(benchmark::kMillisecond);

void BM_InsertBatch(benchmark::State& state) {
  const std::vector<uint32_t>& keys = ZipfTrace();
  for (auto _ : state) {
    state.PauseTiming();
    DaVinciSketch sketch(SketchBytes(), kSeed);
    state.ResumeTiming();
    sketch.InsertBatch(keys);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_InsertBatch)->Unit(benchmark::kMillisecond);

// Bulk-load configuration: at the default publish interval of 1 every
// shard-block publish pins the live sketch's CoW buffers, so the next
// block re-clones them — megabytes of memcpy per few-thousand-key block,
// which is the read-your-writes price, not the insert pipeline's. A bulk
// load has no concurrent readers to keep current, so it raises the
// interval and force-publishes once at the end (inside the timed region —
// the flush is part of the work).
constexpr size_t kBulkLoadPublishInterval = 1u << 20;

void BM_ConcurrentInsertBatch(benchmark::State& state) {
  const std::vector<uint32_t>& keys = ZipfTrace();
  for (auto _ : state) {
    state.PauseTiming();
    ConcurrentDaVinci sketch(4, SketchBytes(), kSeed);
    sketch.SetPublishInterval(kBulkLoadPublishInterval);
    state.ResumeTiming();
    sketch.InsertBatch(keys);
    sketch.FlushViews();
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_ConcurrentInsertBatch)->Unit(benchmark::kMillisecond);

// Captures items_per_second per benchmark while still printing the normal
// console table.
class ThroughputCapture : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        mops_[run.benchmark_name()] = it->second.value / 1e6;
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  // Prefers the median aggregate (present when --benchmark_repetitions is
  // used) over a lone run — single-insert timings are latency-bound and
  // noisy on shared machines, so the snapshot records medians.
  double Mops(const std::string& name) const {
    auto median = mops_.find(name + "_median");
    if (median != mops_.end()) return median->second;
    auto it = mops_.find(name);
    return it == mops_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> mops_;
};

void WriteJson(const ThroughputCapture& capture) {
  double single = capture.Mops("BM_SingleInsert");
  double batch = capture.Mops("BM_InsertBatch");
  double concurrent = capture.Mops("BM_ConcurrentInsertBatch");
  double ratio = single > 0.0 ? batch / single : 0.0;

  davinci::bench::BenchJson json("insert_throughput");
  json.Str("trace", "zipf-1.05");
  json.Count("trace_len", TraceLen());
  json.Count("sketch_bytes", SketchBytes());
  json.Metric("single_insert_mops", single);
  json.Metric("insert_batch_mops", batch);
  json.Metric("concurrent_insert_batch_mops", concurrent);
  json.Count("concurrent_publish_interval", kBulkLoadPublishInterval);
  json.Metric("batch_over_single", ratio);

  // Final-state health of one batched build over the same trace, so the
  // snapshot records occupancy/saturation alongside the throughputs.
  DaVinciSketch sketch(SketchBytes(), kSeed);
  sketch.InsertBatch(ZipfTrace());
  davinci::obs::HealthSnapshot snapshot;
  sketch.CollectStats(&snapshot);
  json.Snapshot(snapshot);
  std::printf("single=%.2f Mops  batch=%.2f Mops  ratio=%.2fx\n", single,
              batch, ratio);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ThroughputCapture reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  WriteJson(reporter);
  return 0;
}
