#ifndef DAVINCI_BASELINES_UNIVMON_H_
#define DAVINCI_BASELINES_UNIVMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/count_heap.h"
#include "common/hash.h"
#include "core/sketch_interface.h"

// UnivMon (Liu et al., SIGCOMM'16): universal streaming. L sampled
// substreams, each summarized by a Count Sketch + top-k heap; any G-sum
// Σ g(f_i) is estimated with the recursive unbiased estimator
//   Y_j = 2·Y_{j+1} + Σ_{heap_j} (1 − 2·sampled_{j+1}(e)) · g(ŵ_e),
// which yields heavy hitters, entropy and cardinality from one structure.

namespace davinci {

class UnivMon : public FrequencySketch, public HeavyHitterSketch {
 public:
  UnivMon(size_t memory_bytes, size_t levels, uint64_t seed);

  std::string Name() const override { return "UnivMon"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override;

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;

  // Estimate Σ_e g(f_e) over distinct elements via the recursion above.
  double GSum(const std::function<double(double)>& g) const;

  // Cardinality: G-sum with g ≡ 1.
  double EstimateCardinality() const;

  // Empirical entropy: H = ln S − (Σ f ln f)/S with S = total count.
  double EstimateEntropy() const;

 private:
  // True if `key` survives sampling into level `level` (level 0 = all).
  bool SampledInto(uint32_t key, size_t level) const;

  HashFamily sample_hash_;
  std::vector<std::unique_ptr<CountHeap>> levels_;
  int64_t total_count_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_UNIVMON_H_
