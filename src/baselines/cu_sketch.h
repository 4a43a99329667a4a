#ifndef DAVINCI_BASELINES_CU_SKETCH_H_
#define DAVINCI_BASELINES_CU_SKETCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// CU sketch (Estan & Varghese conservative update): like Count-Min but an
// insertion only raises the mapped counters that equal the current minimum,
// which removes much of CM's one-sided error.

namespace davinci {

class CuSketch : public FrequencySketch {
 public:
  CuSketch(size_t memory_bytes, size_t rows, uint64_t seed);

  std::string Name() const override { return "CU"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

 private:
  size_t width_;
  std::vector<HashFamily> hashes_;
  std::vector<int64_t> counters_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_CU_SKETCH_H_
