#ifndef DAVINCI_BASELINES_AGMS_H_
#define DAVINCI_BASELINES_AGMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/count_sketch.h"
#include "common/hash.h"
#include "core/sketch_interface.h"

// AGMS / tug-of-war sketches (Alon, Gibbons, Matias, Szegedy) and their
// hash-bucketed refinement F-AGMS (Cormode & Garofalakis), the classical
// inner-product estimators the paper compares against for the cardinality
// of the inner join.

namespace davinci {

// Atomic AGMS: every counter j maintains Σ_e f_e·ξ_j(e), so each insert
// touches all counters — O(w) per item. Kept for correctness tests and
// small streams; use FAgms for the trace-scale benches.
class Agms : public FrequencySketch {
 public:
  // `estimators` counters arranged as rows × columns for median-of-means.
  Agms(size_t rows, size_t columns, uint64_t seed);

  std::string Name() const override { return "AGMS"; }
  size_t MemoryBytes() const override { return counters_.size() * 4; }
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;

  // Median over rows of the mean over columns of products of paired
  // counters (median-of-means estimator of f ⊙ g).
  static double InnerProduct(const Agms& a, const Agms& b);

  // Self-join size estimate (second frequency moment F2).
  double SecondMoment() const;

 private:
  size_t rows_;
  size_t columns_;
  std::vector<SignHash> signs_;  // one ξ per counter
  std::vector<int64_t> counters_;
};

// F-AGMS: a Count Sketch whose rows are dotted and median-combined. This
// is the configuration the paper's join benches use.
class FAgms : public FrequencySketch {
 public:
  FAgms(size_t memory_bytes, size_t rows, uint64_t seed);

  std::string Name() const override { return "F-AGMS"; }
  size_t MemoryBytes() const override { return sketch_.MemoryBytes(); }
  void Insert(uint32_t key, int64_t count) override {
    sketch_.Insert(key, count);
  }
  int64_t Query(uint32_t key) const override { return sketch_.Query(key); }
  uint64_t MemoryAccesses() const override {
    return sketch_.MemoryAccesses();
  }

  static double InnerProduct(const FAgms& a, const FAgms& b) {
    return CountSketch::InnerProduct(a.sketch_, b.sketch_);
  }

 private:
  CountSketch sketch_;
};

}  // namespace davinci

#endif  // DAVINCI_BASELINES_AGMS_H_
