#ifndef DAVINCI_BASELINES_MRAC_H_
#define DAVINCI_BASELINES_MRAC_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// MRAC (Kumar et al., SIGMETRICS'04): a single array of counters indexed by
// one hash; the flow-size distribution is recovered from the histogram of
// counter values with EM. The paper's distribution/entropy baseline.

namespace davinci {

class Mrac : public FrequencySketch {
 public:
  Mrac(size_t memory_bytes, uint64_t seed);

  std::string Name() const override { return "MRAC"; }
  size_t MemoryBytes() const override { return counters_.size() * 4; }
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  // EM-estimated flow-size histogram.
  std::map<int64_t, int64_t> Distribution() const;

  double EstimateEntropy() const;
  double EstimateCardinality() const;

 private:
  HashFamily hash_;
  std::vector<int64_t> counters_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_MRAC_H_
