// Figures 4b / 5b / 6b: heavy-hitter detection F1 vs memory.
// Comparators: HashPipe, Elastic, Coco, FCM, UnivMon, CountHeap vs DaVinci.
// Threshold θ ≈ 0.02% of the packet count, as in the paper.

#include <cstdio>
#include <memory>

#include "baselines/coco_sketch.h"
#include "baselines/count_heap.h"
#include "baselines/elastic_sketch.h"
#include "baselines/fcm_sketch.h"
#include "baselines/hashpipe.h"
#include "baselines/heavy_guardian.h"
#include "baselines/heavy_keeper.h"
#include "baselines/mv_sketch.h"
#include "baselines/space_saving.h"
#include "baselines/univmon.h"
#include "baselines/waving_sketch.h"
#include "bench_common.h"
#include "core/davinci_sketch.h"
#include "core/sketch_interface.h"

namespace {

struct Candidate {
  std::unique_ptr<davinci::FrequencySketch> sketch;
  davinci::HeavyHitterSketch* heavy = nullptr;
};

Candidate Make(const std::string& name, size_t bytes, uint64_t seed) {
  Candidate c;
  if (name == "HashPipe") {
    auto s = std::make_unique<davinci::HashPipe>(bytes, 6, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  } else if (name == "Elastic") {
    auto s = std::make_unique<davinci::ElasticSketch>(bytes, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  } else if (name == "Coco") {
    auto s = std::make_unique<davinci::CocoSketch>(bytes, 2, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  } else if (name == "FCM") {
    auto s = std::make_unique<davinci::FcmSketch>(bytes, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  } else if (name == "UnivMon") {
    auto s = std::make_unique<davinci::UnivMon>(bytes, 8, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  } else if (name == "CountHeap") {
    auto s = std::make_unique<davinci::CountHeap>(bytes, 3, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  } else if (name == "SpaceSaving") {
    auto s = std::make_unique<davinci::SpaceSaving>(bytes, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  } else if (name == "HeavyKeeper") {
    auto s = std::make_unique<davinci::HeavyKeeper>(bytes, 2, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  } else if (name == "Waving") {
    auto s = std::make_unique<davinci::WavingSketch>(bytes, 8, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  } else if (name == "HeavyGuardian") {
    auto s = std::make_unique<davinci::HeavyGuardian>(bytes, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  } else if (name == "MV") {
    auto s = std::make_unique<davinci::MvSketch>(bytes, 4, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  } else {
    auto s = std::make_unique<davinci::DaVinciSketch>(bytes, seed);
    c.heavy = s.get();
    c.sketch = std::move(s);
  }
  return c;
}

}  // namespace

int main() {
  double scale = davinci::bench::ScaleFromEnv();
  davinci::bench::BenchJson json("fig_heavyhitter");
  std::printf("# Fig 4b/5b/6b: heavy-hitter detection F1 (scale=%.2f)\n",
              scale);
  std::printf("dataset,memory_kb,algorithm,f1\n");
  const auto datasets = davinci::bench::AllDatasets(scale);
  for (const auto& dataset : datasets) {
    int64_t threshold = static_cast<int64_t>(
        static_cast<double>(dataset.trace.keys.size()) * 0.0002);
    auto actual = dataset.truth.HeavyHitters(threshold);
    for (size_t kb : davinci::bench::MemorySweepKb()) {
      for (const std::string name :  // NOLINT: elements are char literals
           {"Ours", "HashPipe", "Elastic", "Coco", "FCM", "UnivMon",
            "CountHeap", "SpaceSaving", "HeavyKeeper", "Waving",
            "HeavyGuardian", "MV"}) {
        Candidate c = Make(name, kb * 1024, 11);
        for (uint32_t key : dataset.trace.keys) c.sketch->Insert(key, 1);
        double f1 = davinci::bench::HeavySetF1(c.heavy->HeavyHitters(threshold),
                                               actual);
        std::printf("%s,%zu,%s,%.4f\n", dataset.trace.name.c_str(), kb,
                    name.c_str(), f1);
      }
    }
  }
  davinci::bench::DaVinciObsEpilogue(json, datasets[0].trace.keys,
                                     600 * 1024, 7);
  return 0;
}
