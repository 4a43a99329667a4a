#ifndef DAVINCI_BASELINES_CM_SKETCH_H_
#define DAVINCI_BASELINES_CM_SKETCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// Count-Min sketch (Cormode & Muthukrishnan): d rows of w 32-bit counters;
// query is the minimum over the mapped counters. The paper's classical
// frequency baseline.

namespace davinci {

class CmSketch : public FrequencySketch {
 public:
  CmSketch(size_t memory_bytes, size_t rows, uint64_t seed);

  std::string Name() const override { return "CM"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  size_t rows() const { return hashes_.size(); }
  size_t width() const { return width_; }
  int64_t CounterValue(size_t row, size_t index) const {
    return counters_[row * width_ + index];
  }
  // Raw values of one row (for MRAC-style distribution estimation).
  std::vector<int64_t> RowValues(size_t row) const;

  // Counter-wise merge/subtract with an identically-seeded sketch
  // (sketch linearity; used for heavy-changer detection).
  void Merge(const CmSketch& other);
  void Subtract(const CmSketch& other);

 private:
  size_t width_;
  std::vector<HashFamily> hashes_;
  std::vector<int64_t> counters_;  // rows * width, design width 32 bits
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_CM_SKETCH_H_
