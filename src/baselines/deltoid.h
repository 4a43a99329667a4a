#ifndef DAVINCI_BASELINES_DELTOID_H_
#define DAVINCI_BASELINES_DELTOID_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// Deltoid (Cormode & Muthukrishnan, "What's hot and what's not"): group
// testing for deltoids (heavy changers). Each bucket keeps one total
// counter plus one counter per key bit; subtracting two time windows and
// majority-testing the bit counters reconstructs the keys whose frequency
// changed the most. Listed in the paper's heavy-changer related work.

namespace davinci {

class Deltoid : public FrequencySketch {
 public:
  Deltoid(size_t memory_bytes, size_t rows, uint64_t seed);

  std::string Name() const override { return "Deltoid"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  // Point estimate: min over rows of the bucket total (CM-style).
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  void Subtract(const Deltoid& other);
  void Merge(const Deltoid& other);

  // Keys whose |change| exceeds `threshold`, reconstructed bit-by-bit from
  // buckets whose |total| exceeds it (call after Subtract).
  std::vector<std::pair<uint32_t, int64_t>> HeavyChangers(
      int64_t threshold) const;

 private:
  static constexpr size_t kBits = 32;
  // total + one counter per bit, 4 bytes each (design width).
  static constexpr size_t kBucketBytes = (kBits + 1) * 4;

  size_t Base(size_t row, size_t bucket) const {
    return (row * width_ + bucket) * (kBits + 1);
  }

  size_t width_;
  std::vector<HashFamily> hashes_;
  std::vector<int64_t> counters_;  // rows × width × (1 + kBits)
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_DELTOID_H_
