#ifndef DAVINCI_BASELINES_ELASTIC_SKETCH_H_
#define DAVINCI_BASELINES_ELASTIC_SKETCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// Elastic Sketch (Yang et al., SIGCOMM'18): a heavy part (hash table with
// vote-based eviction) that stores elephants exactly, backed by a light
// part (one-row count-min of 8-bit saturating counters) for mice. Supports
// frequency, heavy hitters, distribution/entropy and sketch merge (union).

namespace davinci {

class ElasticSketch : public FrequencySketch, public HeavyHitterSketch {
 public:
  ElasticSketch(size_t memory_bytes, uint64_t seed);

  std::string Name() const override { return "Elastic"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;

  // Merge with an identically-seeded sketch (the paper's union baseline).
  void Merge(const ElasticSketch& other);

  // Flow-size histogram estimate: exact heavy part + light counter values.
  std::vector<std::pair<uint32_t, int64_t>> HeavyEntries() const;
  const std::vector<int64_t>& LightCounters() const { return light_; }
  size_t LightZeroSlots() const;

  // Task estimators the paper benchmarks Elastic on.
  double EstimateCardinality() const;
  std::map<int64_t, int64_t> Distribution() const;
  double EstimateEntropy() const;

 private:
  struct Bucket {
    uint32_t key = 0;
    int64_t positive_votes = 0;  // count of the resident flow
    int64_t negative_votes = 0;  // evict pressure from other flows
    bool flag = false;           // resident flow may have mass in light part
  };

  static constexpr int64_t kLightCap = 255;  // 8-bit light counters
  static constexpr int64_t kEvictLambda = 8;

  void InsertLight(uint32_t key, int64_t count);
  int64_t QueryLight(uint32_t key) const;

  std::vector<Bucket> heavy_;
  std::vector<int64_t> light_;
  HashFamily heavy_hash_;
  HashFamily light_hash_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_ELASTIC_SKETCH_H_
