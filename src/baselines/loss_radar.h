#ifndef DAVINCI_BASELINES_LOSS_RADAR_H_
#define DAVINCI_BASELINES_LOSS_RADAR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// LossRadar (Li et al., CoNEXT'16): an invertible-Bloom-lookup-table meter.
// Each cell accumulates {count, Σ key, Σ checksum(key)}; subtracting the
// upstream and downstream meters leaves exactly the lost (or, here, the
// differing) packets, and cells reduced to a single flow are peeled out.
// The paper benchmarks it on the set-difference task.

namespace davinci {

class LossRadar : public FrequencySketch {
 public:
  LossRadar(size_t memory_bytes, uint64_t seed);

  std::string Name() const override { return "LossRadar"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  void Subtract(const LossRadar& other);
  void Merge(const LossRadar& other);

  // Peels the table; returns flow -> signed packet count.
  std::unordered_map<uint32_t, int64_t> Decode() const;

 private:
  struct Cell {
    int64_t count = 0;
    int64_t key_sum = 0;    // Σ key · multiplicity (signed)
    int64_t check_sum = 0;  // Σ checksum(key) · multiplicity (signed)
  };

  static constexpr size_t kCellBytes = 16;  // 4B count + 8B keysum + 4B check
  static constexpr size_t kHashes = 3;

  static int64_t Checksum(uint32_t key) {
    return static_cast<int64_t>(Mix64(key ^ 0x5bd1e995u) & 0x7fffffffu);
  }

  size_t CellIndex(size_t row, uint32_t key) const {
    return row * width_ + hashes_[row].Bucket(key, width_);
  }

  size_t width_;
  std::vector<HashFamily> hashes_;
  std::vector<Cell> cells_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_LOSS_RADAR_H_
