#ifndef DAVINCI_BASELINES_HEAVY_GUARDIAN_H_
#define DAVINCI_BASELINES_HEAVY_GUARDIAN_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// HeavyGuardian (Yang et al., KDD'18 — paper reference [38]): "separate
// and guard". Each bucket guards a few heavy cells with exponential-decay
// eviction (only improbable streaks of misses can dethrone an elephant)
// and keeps small light counters for the mice that lose.

namespace davinci {

class HeavyGuardian : public FrequencySketch, public HeavyHitterSketch {
 public:
  HeavyGuardian(size_t memory_bytes, uint64_t seed);

  std::string Name() const override { return "HeavyGuardian"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;

 private:
  struct Cell {
    uint32_t key = 0;
    int64_t count = 0;
  };
  struct Bucket {
    std::vector<Cell> heavy;
    std::vector<int64_t> light;  // 8-bit saturating (design width)
  };

  static constexpr size_t kHeavyCells = 4;
  static constexpr size_t kLightCells = 8;
  static constexpr int64_t kLightCap = 255;
  static constexpr double kDecayBase = 1.08;
  static constexpr size_t kBucketBytes = kHeavyCells * 8 + kLightCells;

  size_t LightIndex(uint32_t key) const {
    return light_hash_.Bucket(key, kLightCells);
  }

  HashFamily bucket_hash_;
  HashFamily light_hash_;
  std::vector<Bucket> buckets_;
  std::mt19937_64 rng_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_HEAVY_GUARDIAN_H_
