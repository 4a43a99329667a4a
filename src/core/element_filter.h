#ifndef DAVINCI_CORE_ELEMENT_FILTER_H_
#define DAVINCI_CORE_ELEMENT_FILTER_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/check.h"
#include "core/config.h"
#include "core/tower_sketch.h"
#include "obs/health.h"

// The element filter (EF) of DaVinci Sketch: a TowerSketch acting as a
// cold filter with threshold T. Each element keeps at most ~T units of its
// count in the filter; everything beyond T overflows to the infrequent
// part. The filter also cross-validates decodes and feeds linear counting
// and the EM distribution estimator.

namespace davinci {

class ElementFilter {
 public:
  ElementFilter(size_t bytes, const std::vector<int>& level_bits,
                int64_t threshold, uint64_t seed);

  // Absorbs up to T units of (key, count); returns the overflow that must
  // be inserted into the infrequent part.
  int64_t Insert(uint32_t key, int64_t count);

  // Signed variant for difference sketches: negative counts push the
  // element's retained estimate toward −T; the returned overflow carries
  // the sign of `count`.
  int64_t InsertSigned(uint32_t key, int64_t count);

  // Hot-path variant of InsertSigned taking a precomputed
  // HashFamily::BaseHash of the key (the filter's counters are indexed by
  // hash only, so the key itself is not needed).
  int64_t InsertSignedWithHash(uint64_t base_hash, int64_t count);

  // Count-min estimate of the key's retained count (≤ T up to collisions).
  int64_t Query(uint32_t key) const;

  // Signed estimate for subtracted filters.
  int64_t QuerySigned(uint32_t key) const;
  int64_t QuerySignedWithHash(uint64_t base_hash) const;

  // Write-prefetch of the tower counters `base_hash` maps to.
  void Prefetch(uint64_t base_hash) const { tower_.PrefetchCounters(base_hash); }

  int64_t threshold() const { return threshold_; }

  void Merge(const ElementFilter& other) { tower_.Merge(other.tower_); }
  void Subtract(const ElementFilter& other) { tower_.Subtract(other.tower_); }

  // Bottom-level state for cardinality (linear counting) and the EM
  // distribution estimator.
  size_t BottomWidth() const { return tower_.LevelWidth(0); }
  size_t BottomZeroSlots() const { return tower_.ZeroSlots(0); }
  std::vector<int64_t> BottomValues() const { return tower_.LevelValues(0); }
  size_t BottomIndex(uint32_t key) const { return tower_.LevelIndex(0, key); }

  const TowerSketch& tower() const { return tower_; }

  // Identity of the underlying tower's shared counter storage (CoW test
  // hook — see TowerSketch::StorageId).
  const void* StorageId() const { return tower_.StorageId(); }

  void SaveState(std::ostream& out) const { tower_.SaveState(out); }
  bool LoadState(std::istream& in) { return tower_.LoadState(in); }

  // DVSZ compressed / delta state — thin forwards; the tower owns both the
  // encoding and the hostile-image gates (see TowerSketch).
  void SaveStateCompressed(std::ostream& out) const {
    tower_.SaveStateCompressed(out);
  }
  bool LoadStateCompressed(std::istream& in) {
    return tower_.LoadStateCompressed(in);
  }
  void SealDeltaBase() { tower_.SealDeltaBase(); }
  void SaveDeltaState(std::ostream& out) const { tower_.SaveDeltaState(out); }
  bool ApplyDeltaState(std::istream& in) { return tower_.ApplyDeltaState(in); }

  // Aborts (DAVINCI_CHECK) on a violated structural invariant: the
  // promotion threshold is positive and representable by the tower (T must
  // not exceed the top level's saturation cap, or the filter could never
  // retain a flow's full T units), plus every TowerSketch invariant.
  void CheckInvariants(InvariantMode mode) const;

  // Fills `out` with per-level saturation/zero scans and (stats builds)
  // the insert/promotion counters. See docs/OBSERVABILITY.md.
  void CollectStats(obs::EfHealth* out) const;

  size_t MemoryBytes() const { return tower_.MemoryBytes(); }
  uint64_t memory_accesses() const { return tower_.MemoryAccesses(); }

 private:
  int64_t threshold_;
  TowerSketch tower_;

  // Telemetry (no-ops unless built with DAVINCI_STATS).
  struct Counters {
    obs::EventCounter inserts;
    obs::EventCounter promotions;      // inserts whose overflow crossed T
    obs::EventCounter promoted_units;  // Σ |overflow| routed onward
  };
  Counters stats_;
};

}  // namespace davinci

#endif  // DAVINCI_CORE_ELEMENT_FILTER_H_
