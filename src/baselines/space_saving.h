#ifndef DAVINCI_BASELINES_SPACE_SAVING_H_
#define DAVINCI_BASELINES_SPACE_SAVING_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sketch_interface.h"

// Space-Saving (Metwally, Agrawal, El Abbadi): the classic counter-based
// top-k summary. m (key, count, error) entries; a miss overwrites the
// current minimum with count = min+1 and error = min. Guarantees
// count ≥ true frequency ≥ count − error for every resident key.
// Part of the heavy-hitter related work the paper builds on.

namespace davinci {

class SpaceSaving : public FrequencySketch, public HeavyHitterSketch {
 public:
  SpaceSaving(size_t memory_bytes, uint64_t seed);

  std::string Name() const override { return "SpaceSaving"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;

  // Overestimation bound of a resident key (its `error` field).
  int64_t ErrorOf(uint32_t key) const;

 private:
  struct Entry {
    int64_t count = 0;
    int64_t error = 0;
    // Iterator into buckets_ for O(log m) min maintenance.
    std::multimap<int64_t, uint32_t>::iterator bucket;
  };

  static constexpr size_t kEntryBytes = 12;  // 4B key + 4B count + 4B error

  size_t capacity_;
  std::unordered_map<uint32_t, Entry> entries_;
  std::multimap<int64_t, uint32_t> buckets_;  // count -> key (min at begin)
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_SPACE_SAVING_H_
