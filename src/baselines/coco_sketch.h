#ifndef DAVINCI_BASELINES_COCO_SKETCH_H_
#define DAVINCI_BASELINES_COCO_SKETCH_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// CocoSketch (Zhang et al., SIGCOMM'21): arrays of (key, count) buckets.
// Every insertion increments the mapped bucket's counter; the resident key
// is replaced by the incoming key with probability count_increment/count,
// which keeps each bucket's key an unbiased sample weighted by frequency.
// The paper uses it as a heavy-hitter comparator.

namespace davinci {

class CocoSketch : public FrequencySketch, public HeavyHitterSketch {
 public:
  CocoSketch(size_t memory_bytes, size_t rows, uint64_t seed);

  std::string Name() const override { return "Coco"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;

 private:
  struct Slot {
    uint32_t key = 0;
    int64_t count = 0;
  };

  size_t width_;
  std::vector<HashFamily> hashes_;
  std::vector<std::vector<Slot>> rows_;
  std::mt19937_64 rng_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_COCO_SKETCH_H_
