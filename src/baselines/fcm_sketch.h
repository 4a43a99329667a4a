#ifndef DAVINCI_BASELINES_FCM_SKETCH_H_
#define DAVINCI_BASELINES_FCM_SKETCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// FCM-Sketch (Song et al., CoNEXT'20): d trees of hierarchical counters;
// each tree has a wide bottom stage of small counters and exponentially
// narrower upper stages of larger counters. A counter that saturates
// carries into its parent. We pair it with a small top-k tracker (the
// FCM+TopK configuration the paper compares against for heavy hitters).

namespace davinci {

class FcmSketch : public FrequencySketch, public HeavyHitterSketch {
 public:
  FcmSketch(size_t memory_bytes, uint64_t seed);

  std::string Name() const override { return "FCM"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;

  // Bottom-stage counter values of tree 0 (distribution estimation) and
  // its zero count (linear counting).
  std::vector<int64_t> BottomStageValues() const;
  size_t BottomStageZeroSlots() const;

  std::vector<uint32_t> TrackedKeys() const;

  // Task estimators the paper benchmarks FCM on.
  double EstimateCardinality() const;
  std::map<int64_t, int64_t> Distribution() const;
  double EstimateEntropy() const;

 private:
  struct Stage {
    int64_t cap = 0;
    std::vector<int64_t> counters;
  };
  struct Tree {
    HashFamily hash;
    std::vector<Stage> stages;
  };

  static constexpr size_t kFanout = 8;
  static constexpr size_t kTrees = 2;

  int64_t QueryTree(const Tree& tree, uint32_t key) const;

  std::vector<Tree> trees_;
  size_t tracker_capacity_;
  std::unordered_map<uint32_t, int64_t> tracked_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_FCM_SKETCH_H_
