#ifndef DAVINCI_BASELINES_SKIMMED_SKETCH_H_
#define DAVINCI_BASELINES_SKIMMED_SKETCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/count_heap.h"
#include "core/sketch_interface.h"

// Skimmed Sketch (Ganguly et al.): estimate a join size by first "skimming"
// the heavy hitters out of an AGMS-style sketch, computing their exact
// contribution, and estimating the residual with the de-noised sketch:
//   J ≈ ΣH_a×H_b + H_a×skim(b) + skim(a)×H_b + skim(a)⊙skim(b).

namespace davinci {

class SkimmedSketch : public FrequencySketch {
 public:
  SkimmedSketch(size_t memory_bytes, uint64_t seed);

  std::string Name() const override { return "Skimmed"; }
  size_t MemoryBytes() const override { return heap_.MemoryBytes(); }
  void Insert(uint32_t key, int64_t count) override {
    total_ += count;
    heap_.Insert(key, count);
  }
  int64_t Query(uint32_t key) const override { return heap_.Query(key); }
  uint64_t MemoryAccesses() const override {
    return heap_.MemoryAccesses();
  }

  static double InnerProduct(const SkimmedSketch& a, const SkimmedSketch& b);

 private:
  // Heavy hitters to skim: tracked keys above a fraction of the stream.
  std::vector<std::pair<uint32_t, int64_t>> SkimmedHitters() const;

  CountHeap heap_;
  int64_t total_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_SKIMMED_SKETCH_H_
