#ifndef DAVINCI_BASELINES_WAVING_SKETCH_H_
#define DAVINCI_BASELINES_WAVING_SKETCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// WavingSketch (Li et al., KDD'20 — paper reference [40]): unbiased top-k.
// Each bucket holds l heavy cells (key, frequency, "frozen" flag) and one
// signed waving counter. Misses wave the counter with a ±1 hash; when a
// newcomer's unbiased waving estimate beats the smallest resident, they
// swap, and the evicted resident's frequency is folded back into the
// counter. Unfrozen residents query through the waving counter, which makes
// the estimates unbiased.

namespace davinci {

class WavingSketch : public FrequencySketch, public HeavyHitterSketch {
 public:
  WavingSketch(size_t memory_bytes, size_t cells_per_bucket, uint64_t seed);

  std::string Name() const override { return "Waving"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;

 private:
  struct Cell {
    uint32_t key = 0;
    int64_t frequency = 0;
    bool frozen = true;  // true = counted exactly since insertion
  };
  struct Bucket {
    std::vector<Cell> cells;
    int64_t wave = 0;  // Σ ζ(e)·count of non-resident items
  };

  static constexpr size_t kCellBytes = 9;   // key + freq + flag
  static constexpr size_t kWaveBytes = 4;

  size_t cells_per_bucket_;
  HashFamily bucket_hash_;
  SignHash sign_;
  std::vector<Bucket> buckets_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_WAVING_SKETCH_H_
