#ifndef DAVINCI_BASELINES_HASHPIPE_H_
#define DAVINCI_BASELINES_HASHPIPE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// HashPipe (Sivaraman et al., SOSR'17): a pipeline of d (key, count)
// stages. A new packet always claims a slot in the first stage; the evicted
// entry then walks the remaining stages, displacing smaller entries, and
// the final loser is dropped. Designed for heavy-hitter detection on
// programmable switches.

namespace davinci {

class HashPipe : public FrequencySketch, public HeavyHitterSketch {
 public:
  HashPipe(size_t memory_bytes, size_t stages, uint64_t seed);

  std::string Name() const override { return "HashPipe"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;

 private:
  struct Slot {
    uint32_t key = 0;
    int64_t count = 0;
  };

  size_t width_;
  std::vector<HashFamily> hashes_;        // one per stage
  std::vector<std::vector<Slot>> stages_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_HASHPIPE_H_
