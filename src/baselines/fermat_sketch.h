#ifndef DAVINCI_BASELINES_FERMAT_SKETCH_H_
#define DAVINCI_BASELINES_FERMAT_SKETCH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/modular.h"
#include "core/sketch_interface.h"

// FermatSketch (from ChameleMon, Yang et al.): d arrays of buckets
// {id_sum mod p, count}. Insertion adds count·key into the id field modulo
// the Fermat prime; a bucket holding a single flow is inverted with
// Fermat's little theorem (key = id_sum · count^{p-2} mod p) and peeled.
// Linear in the stream, so union is bucket-wise addition and difference is
// bucket-wise subtraction. CSOA uses it for the union/difference tasks.

namespace davinci {

class FermatSketch : public FrequencySketch {
 public:
  FermatSketch(size_t memory_bytes, size_t rows, uint64_t seed);

  std::string Name() const override { return "Fermat"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  void Merge(const FermatSketch& other);
  void Subtract(const FermatSketch& other);

  // Peels the sketch; returns flow -> signed count.
  std::unordered_map<uint32_t, int64_t> Decode() const;

 private:
  struct Bucket {
    uint64_t id_sum = 0;  // Σ count·key mod p
    int64_t count = 0;    // Σ count (signed)
  };

  static constexpr size_t kBucketBytes = 9;  // 33-bit id (5B) + 4B count

  size_t BucketIndex(size_t row, uint32_t key) const {
    return row * width_ + hashes_[row].Bucket(key, width_);
  }

  size_t width_;
  std::vector<HashFamily> hashes_;
  std::vector<Bucket> buckets_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_FERMAT_SKETCH_H_
