#ifndef DAVINCI_CORE_FREQUENT_PART_H_
#define DAVINCI_CORE_FREQUENT_PART_H_

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/simd.h"
#include "core/config.h"
#include "obs/health.h"

// The frequent part (FP) of DaVinci Sketch: a hash table of k buckets,
// each with c (key, count) entries, an evict counter and an evict flag,
// implementing Algorithm 1 of the paper. Frequent elements are stored
// exactly; losers are evicted toward the element filter.
//
// Storage is SoA: one contiguous key lane, count lane and taint lane, each
// laid out bucket-major with the per-bucket slot run padded to
// simd::kKeyLaneStride entries, so the probe kernels in common/simd.h can
// test every slot of a bucket with one vector compare. Padding slots are
// permanently empty (key 0 / count 0) and invisible to every accessor;
// serialization writes only the logical c slots per bucket, so the on-disk
// format is identical across SIMD backends and pre-padding builds.
//
// The flat arrays live behind a shared_ptr so copies share storage in O(1)
// (copy-on-write): the write path clones the arrays lazily, only when a
// snapshot still references them (DESIGN.md §10). With no snapshot
// outstanding a mutation costs one relaxed use_count load on top of the
// pre-CoW code.

namespace davinci {

class FrequentPart {
 public:
  // What Insert decided, and what (if anything) must continue to the
  // element filter.
  struct InsertResult {
    enum class Action {
      kAbsorbed,      // case 1/2: fully handled inside the FP
      kEvicted,       // case 3: the bucket's minimum was evicted
      kRejected,      // case 4: the incoming element goes to the EF
    };
    Action action = Action::kAbsorbed;
    uint32_t overflow_key = 0;    // key leaving the FP (evicted or rejected)
    int64_t overflow_count = 0;   // its count
  };

  struct Entry {
    uint32_t key = 0;
    int64_t count = 0;
    // True if the flow may have additional mass in the element filter /
    // infrequent part (it entered by case-3 takeover, or survived a merge
    // in which entries were evicted). Case-2 entries are untainted: their
    // FP count is the flow's exact total.
    bool tainted = false;
  };

  FrequentPart(size_t buckets, size_t slots, int64_t evict_lambda,
               uint64_t seed);

  InsertResult Insert(uint32_t key, int64_t count) {
    return InsertWithHash(key, HashFamily::BaseHash(key), count);
  }

  // Hot-path variant: `base_hash` must equal HashFamily::BaseHash(key),
  // computed once by the caller and shared with the other parts.
  InsertResult InsertWithHash(uint32_t key, uint64_t base_hash, int64_t count);

  // Issues a write prefetch for the bucket `base_hash` maps to, so a
  // subsequent InsertWithHash with the same base hash starts warm.
  void PrefetchBucket(uint64_t base_hash) const;

  // Read-prefetch variant for the batched query pipeline: pulls the key
  // lane and count lane of the bucket `base_hash` maps to.
  void PrefetchBucketRead(uint64_t base_hash) const;

  // Count of `key` if resident, 0 otherwise. `tainted` is set to the
  // entry's taint bit (true = the key may have residue in the element
  // filter / infrequent part); it is left untouched on a miss.
  int64_t Query(uint32_t key, bool* tainted) const {
    return QueryWithBase(HashFamily::BaseHash(key), key, tainted);
  }

  // Hot-path variant: `base_hash` must equal HashFamily::BaseHash(key),
  // computed once by the caller (the batched query pipeline's form).
  int64_t QueryWithBase(uint64_t base_hash, uint32_t key,
                        bool* tainted) const {
    const Storage& s = *store_;
    size_t base = BucketOfBase(base_hash) * stride_;
    size_t hit = simd::FindLiveKey(&s.keys[base], &s.counts[base], stride_,
                                   key);
    if (hit == SIZE_MAX) return 0;
    if (tainted != nullptr) *tainted = s.tainted[base + hit] != 0;
    return s.counts[base + hit];
  }

  bool Contains(uint32_t key) const;

  // Direct structural access (merge, heavy hitters, cardinality).
  size_t num_buckets() const { return buckets_; }
  size_t num_slots() const { return slots_; }
  bool BucketFlag(size_t bucket) const { return store_->flags[bucket]; }
  void SetBucketFlag(size_t bucket, bool flag) {
    Mut().flags[bucket] = flag;
  }
  Entry EntryAt(size_t bucket, size_t slot) const {
    const Storage& s = *store_;
    size_t i = bucket * stride_ + slot;
    return {s.keys[i], s.counts[i], s.tainted[i] != 0};
  }
  size_t BucketOf(uint32_t key) const {
    return hash_.BucketFast(key, buckets_);
  }
  size_t BucketOfBase(uint64_t base_hash) const {
    return hash_.BucketFastWithBase(base_hash, buckets_);
  }

  // All live entries (key, count).
  std::vector<Entry> Entries() const;

  // Replaces the contents of `bucket` with up to c entries; extra
  // responsibility for evicted entries lies with the caller (Algorithm 3).
  void OverwriteBucket(size_t bucket, const std::vector<Entry>& entries,
                       bool flag);

  // Raw state round-trip (geometry must already match).
  void SaveState(std::ostream& out) const;
  bool LoadState(std::istream& in);

  // DVSZ compressed state over the logical (unpadded) layout: keys stay
  // raw u32 (high-entropy, incompressible), counts become zigzag varints
  // (empty slots cost one byte instead of eight), taint bits and bucket
  // flags are bit-packed eight to a byte, and evict counters are varints.
  // The loader applies LoadState's range gates (counts within
  // ±kMaxLoadedCount) plus structural ones (spare bits in the packed
  // bitmaps must be zero).
  void SaveStateCompressed(std::ostream& out) const;
  bool LoadStateCompressed(std::istream& in);

  // Aborts (DAVINCI_CHECK) if Algorithm 1's structural invariants are
  // violated. Unconditional: array geometry, flag/taint bytes are 0/1,
  // every live entry hashes to the bucket holding it, no bucket holds a
  // key twice. In kAdditive mode additionally: live counts are positive,
  // a bucket with a free slot has a zero evict counter (ecnt only moves
  // while the bucket is full), and a full bucket's evict counter respects
  // the λ-vote bound ecnt ≤ λ·min|count| (an insert pushing it past the
  // bound must have evicted and reset it).
  void CheckInvariants(InvariantMode mode) const;

  // Fills `out` with the bucket-occupancy scan and (stats builds) the
  // Algorithm 1 case counters. See docs/OBSERVABILITY.md.
  void CollectStats(obs::FpHealth* out) const;

  uint64_t memory_accesses() const { return accesses_; }
  size_t MemoryBytes() const {
    return buckets_ * (slots_ * DaVinciConfig::kFpSlotBytes +
                       DaVinciConfig::kFpBucketOverheadBytes);
  }

  // Identity of the shared flat storage — two FrequentParts return the
  // same pointer iff they still share buffers (CoW test hook; not part of
  // the measurement API).
  const void* StorageId() const { return store_.get(); }

 private:
  struct Storage {
    std::vector<uint32_t> keys;     // buckets_ × stride_ (padding keys are 0)
    std::vector<int64_t> counts;    // buckets_ × stride_ (0 = empty slot)
    std::vector<uint8_t> tainted;   // buckets_ × stride_
    std::vector<uint32_t> ecnt;     // per-bucket evict counters
    std::vector<uint8_t> flags;     // per-bucket evict flags
    size_t ByteSize() const {
      return keys.size() * sizeof(uint32_t) +
             counts.size() * sizeof(int64_t) + tainted.size() +
             ecnt.size() * sizeof(uint32_t) + flags.size();
    }
  };

  // Write-path storage access: clones iff a snapshot still shares the
  // buffers. Refcount increments only happen while the owner is externally
  // synchronized with writes, so a concurrent *release* by a reader can at
  // worst cause one spurious clone — never a missed one.
  Storage& Mut() {
    if (store_.use_count() > 1) CloneStore();
    return *store_;
  }
  void CloneStore();

  size_t buckets_;
  size_t slots_;
  size_t stride_;  // slots_ rounded up to simd::kKeyLaneStride
  int64_t evict_lambda_;
  HashFamily hash_;
  std::shared_ptr<Storage> store_;
  uint64_t accesses_ = 0;

  // Telemetry (no-ops unless built with DAVINCI_STATS).
  struct Counters {
    obs::EventCounter inserts;
    obs::EventCounter hits;        // case 1
    obs::EventCounter fills;       // case 2
    obs::EventCounter evictions;   // case 3
    obs::EventCounter rejections;  // case 4
  };
  Counters stats_;
};

}  // namespace davinci

#endif  // DAVINCI_CORE_FREQUENT_PART_H_
