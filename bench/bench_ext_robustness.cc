// Extension bench (beyond the paper's figures): robustness of DaVinci
// Sketch to workload shape — skew sweep, uniform traffic, bursty arrivals —
// plus the cost/accuracy of the sliding-window and concurrent extensions.

#include <cstdio>

#include "bench_common.h"
#include "core/concurrent_davinci.h"
#include "core/davinci_sketch.h"
#include "core/epoch_manager.h"

namespace {

using davinci::DaVinciSketch;
using davinci::GroundTruth;
using davinci::Trace;

constexpr size_t kBytes = 300 * 1024;
constexpr size_t kPackets = 400000;
constexpr size_t kFlows = 40000;

double FrequencyAre(const Trace& trace, const DaVinciSketch& sketch) {
  GroundTruth truth(trace.keys);
  auto observations = davinci::bench::Observe(
      truth, [&](uint32_t key) { return sketch.Query(key); });
  return davinci::AverageRelativeError(observations);
}

}  // namespace

int main() {
  davinci::bench::BenchJson json("ext_robustness");
  std::printf("# Robustness 1: skew sweep (%zu pkts, %zu flows, %zu KB)\n",
              kPackets, kFlows, kBytes / 1024);
  std::printf("skew,freq_are,card_re,hh_f1\n");
  for (double skew : {0.0, 0.6, 0.9, 1.05, 1.2, 1.5}) {
    Trace trace = davinci::BuildSkewedTrace("s", kPackets, kFlows, skew, 17);
    GroundTruth truth(trace.keys);
    DaVinciSketch sketch(kBytes, 7);
    for (uint32_t key : trace.keys) sketch.Insert(key, 1);
    int64_t threshold = static_cast<int64_t>(kPackets * 0.0005);
    auto actual = truth.HeavyHitters(threshold);
    double f1 = actual.empty()
                    ? 1.0
                    : davinci::bench::HeavySetF1(
                          sketch.HeavyHitters(threshold), actual);
    std::printf("%.2f,%.5f,%.5f,%.4f\n", skew, FrequencyAre(trace, sketch),
                davinci::RelativeError(
                    static_cast<double>(truth.cardinality()),
                    sketch.EstimateCardinality()),
                f1);
  }

  std::printf("\n# Robustness 2: arrival order (skew 1.05)\n");
  std::printf("arrival,freq_are\n");
  {
    Trace shuffled =
        davinci::BuildSkewedTrace("s", kPackets, kFlows, 1.05, 19);
    DaVinciSketch a(kBytes, 7);
    for (uint32_t key : shuffled.keys) a.Insert(key, 1);
    std::printf("shuffled,%.5f\n", FrequencyAre(shuffled, a));
    for (size_t burst : {16, 256, 4096}) {
      Trace bursty = davinci::BuildBurstyTrace("b", kPackets, kFlows, 1.05,
                                               burst, 19);
      DaVinciSketch b(kBytes, 7);
      for (uint32_t key : bursty.keys) b.Insert(key, 1);
      std::printf("bursty_%zu,%.5f\n", burst, FrequencyAre(bursty, b));
    }
  }

  std::printf("\n# Extension: sliding window (4 epochs x %zu KB)\n",
              kBytes / 4 / 1024);
  std::printf("metric,value\n");
  {
    Trace trace = davinci::BuildSkewedTrace("w", kPackets, kFlows, 1.05, 23);
    davinci::EpochManager window(4, kBytes / 4, 7);
    size_t quarter = trace.keys.size() / 4;
    for (size_t i = 0; i < trace.keys.size(); ++i) {
      if (i > 0 && i % quarter == 0) window.Advance();
      window.Insert(trace.keys[i], 1);
    }
    GroundTruth truth(trace.keys);
    std::vector<davinci::Estimate> observations;
    for (const auto& [key, f] : truth.frequencies()) {
      observations.push_back({f, window.Query(key)});
    }
    std::printf("window_freq_are,%.5f\n",
                davinci::AverageRelativeError(observations));
    std::printf("window_card_re,%.5f\n",
                davinci::RelativeError(
                    static_cast<double>(truth.cardinality()),
                    window.MergedWindow().EstimateCardinality()));
  }

  std::printf("\n# Extension: sharded insert overhead (single thread)\n");
  std::printf("shards,mpps\n");
  {
    Trace trace = davinci::BuildSkewedTrace("c", kPackets, kFlows, 1.05, 29);
    for (size_t shards : {1, 2, 4, 8}) {
      davinci::ConcurrentDaVinci concurrent(shards, kBytes, 7);
      davinci::Timer timer;
      for (uint32_t key : trace.keys) concurrent.Insert(key, 1);
      std::printf("%zu,%.2f\n", shards,
                  davinci::ThroughputMpps(trace.keys.size(),
                                          timer.ElapsedSeconds()));
    }
  }
  Trace obs_trace = davinci::BuildSkewedTrace("obs", kPackets, kFlows, 1.05, 17);
  davinci::bench::DaVinciObsEpilogue(json, obs_trace.keys, kBytes, 7);
  return 0;
}
