// Figures 4c / 5c / 6c: heavy-changer detection F1 vs memory.
// Two consecutive windows (first/second half of the trace); elements whose
// frequency changes by more than δ ≈ 0.01% of the packets are heavy
// changers. Baselines detect changers by differencing two per-window
// sketches over their candidate keys; DaVinci subtracts the sketches
// natively.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_set>

#include "baselines/coco_sketch.h"
#include "baselines/count_heap.h"
#include "baselines/deltoid.h"
#include "baselines/elastic_sketch.h"
#include "baselines/fcm_sketch.h"
#include "baselines/hashpipe.h"
#include "baselines/mv_sketch.h"
#include "baselines/univmon.h"
#include "bench_common.h"
#include "core/extended_queries.h"
#include "core/sketch_interface.h"

namespace {

using davinci::FrequencySketch;
using davinci::HeavyHitterSketch;

struct Candidate {
  std::unique_ptr<FrequencySketch> sketch;
  HeavyHitterSketch* heavy = nullptr;
};

Candidate Make(const std::string& name, size_t bytes, uint64_t seed) {
  Candidate c;
  auto wrap = [&c](auto s) {
    c.heavy = s.get();
    c.sketch = std::move(s);
  };
  if (name == "Elastic") {
    wrap(std::make_unique<davinci::ElasticSketch>(bytes, seed));
  } else if (name == "Coco") {
    wrap(std::make_unique<davinci::CocoSketch>(bytes, 2, seed));
  } else if (name == "FCM") {
    wrap(std::make_unique<davinci::FcmSketch>(bytes, seed));
  } else if (name == "UnivMon") {
    wrap(std::make_unique<davinci::UnivMon>(bytes, 8, seed));
  } else if (name == "CountHeap") {
    wrap(std::make_unique<davinci::CountHeap>(bytes, 3, seed));
  } else {
    wrap(std::make_unique<davinci::HashPipe>(bytes, 6, seed));
  }
  return c;
}

// Exact heavy changers between two windows.
std::vector<std::pair<uint32_t, int64_t>> TrueChangers(
    const davinci::GroundTruth& a, const davinci::GroundTruth& b,
    int64_t delta) {
  davinci::GroundTruth diff = davinci::GroundTruth::Difference(a, b);
  std::vector<std::pair<uint32_t, int64_t>> out;
  for (const auto& [key, change] : diff.frequencies()) {
    if (std::llabs(change) > delta) out.emplace_back(key, change);
  }
  return out;
}

}  // namespace

int main() {
  double scale = davinci::bench::ScaleFromEnv();
  davinci::bench::BenchJson json("fig_heavychanger");
  std::printf("# Fig 4c/5c/6c: heavy-changer detection F1 (scale=%.2f)\n",
              scale);
  std::printf("dataset,memory_kb,algorithm,f1\n");
  const auto datasets = davinci::bench::AllDatasets(scale);
  for (const auto& dataset : datasets) {
    size_t half = dataset.trace.keys.size() / 2;
    davinci::Trace w1 = davinci::Slice(dataset.trace, 0, half, "w1");
    davinci::Trace w2 = davinci::Slice(dataset.trace, half,
                                       dataset.trace.keys.size(), "w2");
    davinci::GroundTruth t1(w1.keys), t2(w2.keys);
    int64_t delta = static_cast<int64_t>(
        static_cast<double>(dataset.trace.keys.size()) * 0.0001);
    auto actual = TrueChangers(t1, t2, delta);
    if (actual.empty()) continue;

    for (size_t kb : davinci::bench::MemorySweepKb()) {
      // DaVinci: native sketch difference.
      {
        davinci::DaVinciSketch a(kb * 1024, 13), b(kb * 1024, 13);
        for (uint32_t key : w1.keys) a.Insert(key, 1);
        for (uint32_t key : w2.keys) b.Insert(key, 1);
        double f1 =
            davinci::bench::HeavySetF1(a.HeavyChangers(b, delta), actual);
        std::printf("%s,%zu,Ours,%.4f\n", dataset.trace.name.c_str(), kb, f1);
      }
      // MV-Sketch and Deltoid: native invertible change detection.
      {
        davinci::MvSketch a(kb * 1024, 4, 13), b(kb * 1024, 4, 13);
        for (uint32_t key : w1.keys) a.Insert(key, 1);
        for (uint32_t key : w2.keys) b.Insert(key, 1);
        double f1 = davinci::bench::HeavySetF1(
            davinci::MvSketch::HeavyChangers(a, b, delta), actual);
        std::printf("%s,%zu,MV,%.4f\n", dataset.trace.name.c_str(), kb, f1);
      }
      {
        davinci::Deltoid a(kb * 1024, 3, 13), b(kb * 1024, 3, 13);
        for (uint32_t key : w1.keys) a.Insert(key, 1);
        for (uint32_t key : w2.keys) b.Insert(key, 1);
        a.Subtract(b);
        double f1 =
            davinci::bench::HeavySetF1(a.HeavyChangers(delta), actual);
        std::printf("%s,%zu,Deltoid,%.4f\n", dataset.trace.name.c_str(), kb,
                    f1);
      }
      // Baselines: per-window sketches, candidates from both windows' heavy
      // sets, change = |q1 − q2|.
      for (const std::string name :  // NOLINT: elements are char literals
           {"Elastic", "Coco", "FCM", "UnivMon", "CountHeap", "HashPipe"}) {
        Candidate a = Make(name, kb * 1024, 13);
        Candidate b = Make(name, kb * 1024, 13);
        for (uint32_t key : w1.keys) a.sketch->Insert(key, 1);
        for (uint32_t key : w2.keys) b.sketch->Insert(key, 1);
        std::unordered_set<uint32_t> candidates;
        for (const auto& [key, est] : a.heavy->HeavyHitters(delta / 2)) {
          candidates.insert(key);
        }
        for (const auto& [key, est] : b.heavy->HeavyHitters(delta / 2)) {
          candidates.insert(key);
        }
        std::vector<std::pair<uint32_t, int64_t>> reported;
        for (uint32_t key : candidates) {
          int64_t change = a.sketch->Query(key) - b.sketch->Query(key);
          if (std::llabs(change) > delta) reported.emplace_back(key, change);
        }
        std::printf("%s,%zu,%s,%.4f\n", dataset.trace.name.c_str(), kb,
                    name.c_str(), davinci::bench::HeavySetF1(reported, actual));
      }
    }
  }
  davinci::bench::DaVinciObsEpilogue(json, datasets[0].trace.keys,
                                     600 * 1024, 7);
  return 0;
}
