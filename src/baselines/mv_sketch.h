#ifndef DAVINCI_BASELINES_MV_SKETCH_H_
#define DAVINCI_BASELINES_MV_SKETCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// MV-Sketch (Tang, Huang, Lee — INFOCOM'19): an invertible majority-vote
// sketch for heavy flows and heavy changers. Each bucket tracks the total
// count V, a candidate key K and an indicator C updated with the
// Boyer-Moore majority vote, so the dominant flow of each bucket is
// recoverable without storing every key. Listed by the paper among the
// heavy-changer comparators.

namespace davinci {

class MvSketch : public FrequencySketch, public HeavyHitterSketch {
 public:
  MvSketch(size_t memory_bytes, size_t rows, uint64_t seed);

  std::string Name() const override { return "MV"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  // Point estimate: min over rows of (V + C)/2 if K == key else (V − C)/2.
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;

  // Heavy changers between two identically-seeded windows: candidates are
  // the majority keys of both sketches; the change estimate is the
  // difference of the point queries.
  static std::vector<std::pair<uint32_t, int64_t>> HeavyChangers(
      const MvSketch& a, const MvSketch& b, int64_t delta);

 private:
  struct Bucket {
    int64_t total = 0;      // V: all counts hashed here
    uint32_t majority = 0;  // K: majority candidate
    int64_t indicator = 0;  // C: majority vote balance
  };

  static constexpr size_t kBucketBytes = 12;  // 4B V + 4B K + 4B C

  size_t width_;
  std::vector<HashFamily> hashes_;
  std::vector<Bucket> buckets_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_MV_SKETCH_H_
