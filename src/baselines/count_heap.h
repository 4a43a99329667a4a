#ifndef DAVINCI_BASELINES_COUNT_HEAP_H_
#define DAVINCI_BASELINES_COUNT_HEAP_H_

#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/count_sketch.h"
#include "core/sketch_interface.h"

// CountHeap (Charikar et al.): a Count Sketch plus a top-k tracker, the
// classical heavy-hitter / heavy-changer pipeline. A fixed share of the
// byte budget funds the tracker (key + counter per slot); the rest funds
// the sketch.

namespace davinci {

class CountHeap : public FrequencySketch, public HeavyHitterSketch {
 public:
  CountHeap(size_t memory_bytes, size_t rows, uint64_t seed);

  std::string Name() const override { return "CountHeap"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override;

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;

  const CountSketch& sketch() const { return sketch_; }
  // Keys currently tracked (heavy-changer candidates).
  std::vector<uint32_t> TrackedKeys() const;

 private:
  void MaybeTrack(uint32_t key, int64_t estimate);

  size_t capacity_;
  CountSketch sketch_;
  std::unordered_map<uint32_t, int64_t> tracked_;
  // Lazy min-heap over (estimate, key); stale entries are skipped on pop.
  std::priority_queue<std::pair<int64_t, uint32_t>,
                      std::vector<std::pair<int64_t, uint32_t>>,
                      std::greater<>>
      heap_;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_COUNT_HEAP_H_
