#ifndef DAVINCI_BASELINES_NITRO_SKETCH_H_
#define DAVINCI_BASELINES_NITRO_SKETCH_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/sketch_interface.h"

// NitroSketch (Liu et al., SIGCOMM'19): software-switch-friendly sketching
// by sampling *counter updates* instead of packets. Each row of a Count
// Sketch is updated independently with probability p, adding 1/p, which
// keeps the estimator unbiased while cutting per-packet work to ~p·d row
// touches. Listed in the paper's related work on robust software sketches.

namespace davinci {

class NitroSketch : public FrequencySketch {
 public:
  // `update_probability` is the per-row sampling rate p (e.g. 0.25).
  NitroSketch(size_t memory_bytes, size_t rows, double update_probability,
              uint64_t seed);

  std::string Name() const override { return "Nitro"; }
  size_t MemoryBytes() const override { return counters_.size() * 4; }
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  double update_probability() const { return probability_; }

 private:
  size_t width_;
  double probability_;
  std::vector<HashFamily> hashes_;
  std::vector<SignHash> signs_;
  std::vector<double> counters_;  // fractional due to 1/p compensation
  // Geometric skip counter per row: how many inserts to skip until the
  // next sampled update (the paper's "always-line-rate" optimization).
  std::vector<int64_t> next_update_;
  std::mt19937_64 rng_;
  std::geometric_distribution<int64_t> geometric_;
  mutable uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_NITRO_SKETCH_H_
