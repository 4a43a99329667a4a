#ifndef DAVINCI_BASELINES_COLD_FILTER_H_
#define DAVINCI_BASELINES_COLD_FILTER_H_

#include <cstdint>
#include <string>

#include "baselines/cm_sketch.h"
#include "core/sketch_interface.h"
#include "core/tower_sketch.h"

// Cold Filter (Zhou et al., SIGMOD'18 — paper reference [31]): a two-layer
// bounded filter in front of any sketch. Cold items are absorbed by the
// filter's small counters; only the part of a flow exceeding the threshold
// reaches the backing structure (here a CM sketch), which therefore only
// stores hot items. The DaVinci element filter generalizes exactly this
// idea, so the standalone baseline doubles as a reference implementation.

namespace davinci {

class ColdFilterCm : public FrequencySketch {
 public:
  // `filter_fraction` of the byte budget funds the filter layers.
  ColdFilterCm(size_t memory_bytes, int64_t threshold, uint64_t seed);

  std::string Name() const override { return "ColdFilter+CM"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override;

  int64_t threshold() const { return threshold_; }

 private:
  int64_t threshold_;
  TowerSketch filter_;  // two small-counter layers (4-bit + 8-bit)
  CmSketch backing_;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_COLD_FILTER_H_
