#ifndef DAVINCI_BASELINES_JOIN_SKETCH_H_
#define DAVINCI_BASELINES_JOIN_SKETCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/count_sketch.h"
#include "common/hash.h"
#include "core/sketch_interface.h"

// JoinSketch (Wang et al., SIGMOD'23): separates frequent from infrequent
// keys for accurate, unbiased inner-product estimation. Frequent keys live
// exactly in a small hash table with vote-based eviction; everything else
// lands in a Count Sketch. The inner product of two JoinSketches is
//   exact(F_a ⊙ F_b) + cross(F_a ⊙ I_b) + cross(I_a ⊙ F_b) + CS(I_a ⊙ I_b).
// CSOA uses it for the inner-join task.

namespace davinci {

class JoinSketch : public FrequencySketch {
 public:
  JoinSketch(size_t memory_bytes, uint64_t seed);

  std::string Name() const override { return "JoinSketch"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  static double InnerProduct(const JoinSketch& a, const JoinSketch& b);

  std::vector<std::pair<uint32_t, int64_t>> FrequentEntries() const;

 private:
  struct Slot {
    uint32_t key = 0;
    int64_t count = 0;
  };
  struct Bucket {
    std::vector<Slot> slots;
    int64_t evict_votes = 0;
  };

  static constexpr size_t kSlotsPerBucket = 4;
  static constexpr int64_t kEvictLambda = 8;
  static constexpr size_t kSlotBytes = 8;  // 4B key + 4B count

  int64_t QueryInfrequent(uint32_t key) const { return sketch_.Query(key); }

  std::vector<Bucket> buckets_;
  HashFamily bucket_hash_;
  CountSketch sketch_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_JOIN_SKETCH_H_
