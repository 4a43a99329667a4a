#ifndef DAVINCI_CORE_TOWER_SKETCH_H_
#define DAVINCI_CORE_TOWER_SKETCH_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "core/sketch_interface.h"

// TowerSketch (Yang et al., SketchINT): a stack of count-min arrays where
// lower levels have many small counters and higher levels few large ones.
// The substrate of the DaVinci element filter (paper §III), and also used
// standalone as a frequency baseline and by baselines/cold_filter.
//
// Counters are stored physically as int64_t so that sketch subtraction
// (set difference) can go negative; MemoryBytes() accounts the design
// widths (level i uses `level_bits[i]`-bit counters), which is what the
// paper's memory axes measure.
//
// The counter arrays live behind a shared_ptr so copies share storage in
// O(1) (copy-on-write): the write path clones lazily, only when a snapshot
// still references the buffers (DESIGN.md §10). Level geometry (widths,
// caps, hash seeds) stays by value — it never changes after construction.

namespace davinci {

class TowerSketch : public FrequencySketch {
 public:
  struct Options {
    // Counter widths per level, bottom first. Every level gets an equal
    // share of the byte budget, so lower levels get more counters.
    std::vector<int> level_bits = {8, 16};
  };

  TowerSketch(size_t memory_bytes, uint64_t seed, Options options);
  TowerSketch(size_t memory_bytes, uint64_t seed)
      : TowerSketch(memory_bytes, seed, Options()) {}

  std::string Name() const override { return "Tower"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;
  uint64_t MemoryAccesses() const override { return accesses_; }

  // Cold-filter-style bounded insert used by the DaVinci element filter:
  // performs a conservative (CU) update but never grows the element's
  // estimate beyond `cap`. Returns the part of `count` that did not fit.
  int64_t InsertCapped(uint32_t key, int64_t count, int64_t cap) {
    return InsertCappedWithHash(HashFamily::BaseHash(key), count, cap);
  }

  // Mirror of InsertCapped for negative mass (difference sketches): pushes
  // the element's estimate down toward −cap by `magnitude` (≥ 0); returns
  // the magnitude that did not fit.
  int64_t InsertCappedDown(uint32_t key, int64_t magnitude, int64_t cap) {
    return InsertCappedDownWithHash(HashFamily::BaseHash(key), magnitude, cap);
  }

  // Point query that may return a negative value (for subtracted sketches):
  // among unsaturated levels, the value of smallest magnitude.
  int64_t QuerySigned(uint32_t key) const {
    return QuerySignedWithHash(HashFamily::BaseHash(key));
  }

  // Hot-path variants taking a precomputed HashFamily::BaseHash of the key
  // (the counter index depends only on the base hash, not the key itself).
  int64_t InsertCappedWithHash(uint64_t base_hash, int64_t count, int64_t cap);
  int64_t InsertCappedDownWithHash(uint64_t base_hash, int64_t magnitude,
                                   int64_t cap);
  int64_t QueryWithHash(uint64_t base_hash) const;
  int64_t QuerySignedWithHash(uint64_t base_hash) const;

  // Write-prefetch of the one counter per level that `base_hash` maps to.
  void PrefetchCounters(uint64_t base_hash) const;

  // Counter-wise merge/subtract with a sketch of identical geometry and
  // seeds. Merge saturates at each level's cap, as the paper prescribes.
  void Merge(const TowerSketch& other);
  void Subtract(const TowerSketch& other);

  size_t num_levels() const { return levels_.size(); }
  size_t LevelWidth(size_t level) const { return levels_[level].width; }
  int64_t CounterValue(size_t level, size_t index) const {
    return store_->counters[level][index];
  }
  const std::vector<int64_t>& LevelValues(size_t level) const {
    return store_->counters[level];
  }
  size_t LevelIndex(size_t level, uint32_t key) const {
    return LevelIndexWithBase(level, HashFamily::BaseHash(key));
  }
  size_t LevelIndexWithBase(size_t level, uint64_t base_hash) const {
    return IndexIn(levels_[level], base_hash);
  }
  int64_t LevelCap(size_t level) const { return levels_[level].cap; }
  int LevelBits(size_t level) const { return levels_[level].bits; }

  // Untouched slots in `level` (for linear counting).
  size_t ZeroSlots(size_t level) const;

  // Counters pinned at the level's saturation cap (for health telemetry:
  // a saturated level degrades silently, see docs/OBSERVABILITY.md).
  size_t SaturatedSlots(size_t level) const;

  // Aborts (DAVINCI_CHECK) if the tower's structural invariants are
  // violated: levels exist, counter widths shrink and caps grow going up
  // (the tower shape saturation relies on), and — in kAdditive mode —
  // every counter sits in [0, cap] (inserts and merges saturate at cap and
  // never go negative).
  void CheckInvariants(InvariantMode mode) const;

  // Raw counter state round-trip (geometry must already match; used by
  // DaVinciSketch serialization).
  void SaveState(std::ostream& out) const;
  bool LoadState(std::istream& in);

  // DVSZ compressed counter state: per level, alternating runs of
  // (zero_run varint, literal_run varint, literal_run × zigzag varints)
  // until the level width is filled. Tower levels are mostly zeros on real
  // traffic (~94% at level 0 on the insert bench), so this is where the
  // flat image's bulk disappears. The loader re-validates everything the
  // flat loader does (runs sum exactly to the width, every counter within
  // ±cap) plus the run arithmetic itself, so truncated runs and overlong
  // varints reject cleanly instead of feeding the saturate math.
  void SaveStateCompressed(std::ostream& out) const;
  bool LoadStateCompressed(std::istream& in);

  // Identity of the shared counter storage — two TowerSketches return the
  // same pointer iff they still share buffers (CoW test hook).
  const void* StorageId() const { return store_.get(); }

 private:
  struct Level {
    int bits = 8;
    int64_t cap = 255;
    HashFamily hash;
    size_t width = 1;  // counter count at this level (fixed geometry)
  };

  struct Storage {
    // counters[level][index]; widths mirror levels_[level].width.
    std::vector<std::vector<int64_t>> counters;
    size_t ByteSize() const {
      size_t bytes = 0;
      for (const auto& level : counters) {
        bytes += level.size() * sizeof(int64_t);
      }
      return bytes;
    }
  };

  // Divide-free per-level counter index from a precomputed base hash.
  static size_t IndexIn(const Level& level, uint64_t base_hash) {
    return HashFamily::FastReduce(level.hash.RehashBase(base_hash),
                                  level.width);
  }

  // Write-path storage access: clones iff a snapshot still shares the
  // buffers (see FrequentPart::Mut for the refcount reasoning).
  Storage& Mut() {
    if (store_.use_count() > 1) CloneStore();
    return *store_;
  }
  void CloneStore();

  std::vector<Level> levels_;
  std::shared_ptr<Storage> store_;
  uint64_t accesses_ = 0;
};

}  // namespace davinci

#endif  // DAVINCI_CORE_TOWER_SKETCH_H_
