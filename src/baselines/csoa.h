#ifndef DAVINCI_BASELINES_CSOA_H_
#define DAVINCI_BASELINES_CSOA_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fcm_sketch.h"
#include "baselines/fermat_sketch.h"
#include "baselines/join_sketch.h"
#include "core/sketch_interface.h"

// The Composite Set Operations Algorithm (CSOA) from the paper's overall-
// performance evaluation: the minimal combination of single-task
// state-of-the-art sketches that covers all nine tasks —
//   FCM      → frequency, heavy hitters/changers, cardinality,
//              distribution, entropy
//   Fermat   → union and difference
//   JoinSketch → cardinality of the inner join
// Every packet is inserted into all three structures, which is exactly the
// overhead DaVinci Sketch is designed to remove.

namespace davinci {

class Csoa : public FrequencySketch, public HeavyHitterSketch {
 public:
  struct MemoryPlan {
    size_t fcm_bytes = 0;
    size_t fermat_bytes = 0;
    size_t join_bytes = 0;
  };

  Csoa(const MemoryPlan& plan, uint64_t seed);

  std::string Name() const override { return "CSOA"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override { return fcm_.Query(key); }
  uint64_t MemoryAccesses() const override;

  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override {
    return fcm_.HeavyHitters(threshold);
  }

  double EstimateCardinality() const;
  std::map<int64_t, int64_t> Distribution() const;
  double EstimateEntropy() const;

  // Task-specific members for the two-set operations.
  const FcmSketch& fcm() const { return fcm_; }
  const FermatSketch& fermat() const { return fermat_; }
  FermatSketch& fermat() { return fermat_; }
  const JoinSketch& join_sketch() const { return join_; }

  static double InnerProduct(const Csoa& a, const Csoa& b) {
    return JoinSketch::InnerProduct(a.join_, b.join_);
  }

 private:
  FcmSketch fcm_;
  FermatSketch fermat_;
  JoinSketch join_;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_CSOA_H_
