#ifndef DAVINCI_BASELINES_HEAVY_KEEPER_H_
#define DAVINCI_BASELINES_HEAVY_KEEPER_H_

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// HeavyKeeper (Yang et al., ToN'19 — the paper's reference [11]):
// probabilistic "count-with-exponential-decay" buckets for finding top-k
// elephant flows. Each bucket stores a fingerprint and a counter; a
// mismatching arrival decays the resident counter with probability b^-C,
// so mice cannot displace elephants but dead flows eventually fade.

namespace davinci {

class HeavyKeeper : public FrequencySketch, public HeavyHitterSketch {
 public:
  HeavyKeeper(size_t memory_bytes, size_t rows, uint64_t seed);

  std::string Name() const override { return "HeavyKeeper"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;

 private:
  struct Slot {
    uint32_t fingerprint = 0;
    int64_t count = 0;
  };

  static constexpr double kDecayBase = 1.08;
  static constexpr size_t kSlotBytes = 8;  // 4B fingerprint + 4B counter

  uint32_t Fingerprint(uint32_t key) const {
    return static_cast<uint32_t>(fingerprint_hash_.Hash(key)) | 1u;
  }

  size_t width_;
  size_t heap_capacity_;
  std::vector<HashFamily> hashes_;
  HashFamily fingerprint_hash_;
  std::vector<std::vector<Slot>> rows_;
  std::unordered_map<uint32_t, int64_t> tracked_;  // top-k key list
  std::mt19937_64 rng_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_HEAVY_KEEPER_H_
