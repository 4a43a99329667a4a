#ifndef DAVINCI_BASELINES_COUNT_SKETCH_H_
#define DAVINCI_BASELINES_COUNT_SKETCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// Count Sketch (Charikar, Chen, Farach-Colton): d rows of signed counters
// updated with a ±1 hash; the query is the median of the sign-corrected
// mapped counters, which makes the estimate unbiased. Also the substrate of
// CountHeap, UnivMon, F-AGMS and SkimmedSketch.

namespace davinci {

class CountSketch : public FrequencySketch {
 public:
  CountSketch(size_t memory_bytes, size_t rows, uint64_t seed);

  std::string Name() const override { return "Count"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  size_t rows() const { return hashes_.size(); }
  size_t width() const { return width_; }
  int64_t CounterValue(size_t row, size_t index) const {
    return counters_[row * width_ + index];
  }
  int64_t& MutableCounter(size_t row, size_t index) {
    return counters_[row * width_ + index];
  }
  size_t RowIndex(size_t row, uint32_t key) const {
    return hashes_[row].Bucket(key, width_);
  }
  int RowSign(size_t row, uint32_t key) const {
    return signs_[row].Sign(key);
  }

  void Merge(const CountSketch& other);
  void Subtract(const CountSketch& other);

  // Unbiased inner-product estimate between two identically-seeded
  // sketches: median over rows of the row dot products (the F-AGMS
  // estimator of Cormode & Garofalakis).
  static double InnerProduct(const CountSketch& a, const CountSketch& b);

 private:
  size_t width_;
  std::vector<HashFamily> hashes_;
  std::vector<SignHash> signs_;
  std::vector<int64_t> counters_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_COUNT_SKETCH_H_
