// Figures 4a / 5a / 6a (frequency ARE vs memory) and Figure 7c
// (frequency AAE): CM, CU, Elastic, FCM vs DaVinci on all three datasets.

#include <cstdio>
#include <memory>

#include "baselines/cm_sketch.h"
#include "baselines/cold_filter.h"
#include "baselines/cu_sketch.h"
#include "baselines/elastic_sketch.h"
#include "baselines/fcm_sketch.h"
#include "bench_common.h"
#include "core/davinci_sketch.h"
#include "core/sketch_interface.h"

namespace {

using davinci::FrequencySketch;

std::unique_ptr<FrequencySketch> Make(const std::string& name, size_t bytes,
                                      uint64_t seed) {
  if (name == "CM") return std::make_unique<davinci::CmSketch>(bytes, 3, seed);
  if (name == "CU") return std::make_unique<davinci::CuSketch>(bytes, 3, seed);
  if (name == "Elastic") {
    return std::make_unique<davinci::ElasticSketch>(bytes, seed);
  }
  if (name == "FCM") return std::make_unique<davinci::FcmSketch>(bytes, seed);
  if (name == "ColdFilter") {
    return std::make_unique<davinci::ColdFilterCm>(bytes, 15, seed);
  }
  return std::make_unique<davinci::DaVinciSketch>(bytes, seed);
}

}  // namespace

int main() {
  double scale = davinci::bench::ScaleFromEnv();
  davinci::bench::BenchJson json("fig_frequency");
  std::printf(
      "# Fig 4a/5a/6a + 7c: element frequency estimation (scale=%.2f)\n",
      scale);
  std::printf("dataset,memory_kb,algorithm,are,aae\n");
  const auto datasets = davinci::bench::AllDatasets(scale);
  for (const auto& dataset : datasets) {
    for (size_t kb : davinci::bench::MemorySweepKb()) {
      for (const std::string name :  // NOLINT: elements are char literals
           {"Ours", "CM", "CU", "Elastic", "FCM", "ColdFilter"}) {
        auto sketch = Make(name, kb * 1024, 7);
        for (uint32_t key : dataset.trace.keys) sketch->Insert(key, 1);
        auto observations = davinci::bench::Observe(
            dataset.truth,
            [&](uint32_t key) { return sketch->Query(key); });
        std::printf("%s,%zu,%s,%.6f,%.4f\n", dataset.trace.name.c_str(), kb,
                    name.c_str(),
                    davinci::AverageRelativeError(observations),
                    davinci::AverageAbsoluteError(observations));
      }
    }
  }
  davinci::bench::DaVinciObsEpilogue(json, datasets[0].trace.keys,
                                     600 * 1024, 7);
  return 0;
}
