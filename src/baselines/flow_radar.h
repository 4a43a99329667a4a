#ifndef DAVINCI_BASELINES_FLOW_RADAR_H_
#define DAVINCI_BASELINES_FLOW_RADAR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// FlowRadar (Li et al., NSDI'16): a Bloom flow filter plus a counting table
// whose cells accumulate {FlowXOR, FlowCount, PacketCount}. New flows touch
// all three fields; repeat packets only the packet counter. Cells holding a
// single flow are peeled to recover exact (flow, count) pairs; subtracting
// two encoded tables yields the set difference, which is the role the paper
// benchmarks it in.

namespace davinci {

class FlowRadar : public FrequencySketch {
 public:
  FlowRadar(size_t memory_bytes, uint64_t seed);

  std::string Name() const override { return "FlowRadar"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  // Frequency via decode (0 if the flow failed to decode).
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  // Cell-wise subtraction with an identically-seeded sketch.
  void Subtract(const FlowRadar& other);

  // Peels the counting table; returns flow -> signed packet count.
  std::unordered_map<uint32_t, int64_t> Decode() const;

 private:
  struct Cell {
    uint32_t flow_xor = 0;
    int64_t flow_count = 0;
    int64_t packet_count = 0;
  };

  static constexpr size_t kCellBytes = 9;  // 4B xor + 1B flows + 4B packets
  static constexpr size_t kHashes = 3;

  size_t CellIndex(size_t row, uint32_t key) const {
    return row * width_ + hashes_[row].Bucket(key, width_);
  }

  size_t bloom_bits_;
  std::vector<bool> bloom_;
  std::vector<HashFamily> bloom_hashes_;
  size_t width_;
  std::vector<HashFamily> hashes_;
  std::vector<Cell> cells_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_FLOW_RADAR_H_
