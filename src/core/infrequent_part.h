#ifndef DAVINCI_CORE_INFREQUENT_PART_H_
#define DAVINCI_CORE_INFREQUENT_PART_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/modular.h"
#include "core/config.h"
#include "core/element_filter.h"
#include "obs/health.h"

// The infrequent part (IFP) of DaVinci Sketch: a counting Fermat sketch of
// d rows × w buckets {iID, icnt} with per-row ±1 functions ζ_i
// (Algorithm 2). Supports
//  - fast point queries: median of sign-corrected counters (count-sketch
//    style, unbiased),
//  - full decode (Algorithm 5): peel single-element buckets via Fermat's
//    little theorem, validating both e and p−e and cross-validating with
//    the element filter,
//  - linear merge/subtract for union and difference, and
//  - an unbiased inner-product estimate between identically-seeded parts.
//
// The {iID, icnt} lanes live behind a shared_ptr so copies share storage
// in O(1) (copy-on-write): the write path clones lazily, only when a
// snapshot still references the buffers (DESIGN.md §10).

namespace davinci {

class InfrequentPart {
 public:
  InfrequentPart(size_t rows, size_t buckets_per_row, bool use_signs,
                 uint64_t seed);

  void Insert(uint32_t key, int64_t count) {
    InsertWithHash(key, HashFamily::BaseHash(key), count);
  }

  // Hot-path variant: `base_hash` must equal HashFamily::BaseHash(key).
  // The key itself is still needed for the mod-p id encoding.
  void InsertWithHash(uint32_t key, uint64_t base_hash, int64_t count);

  // Write-prefetch of the d (iID, icnt) cells `base_hash` maps to.
  void Prefetch(uint64_t base_hash) const;

  // Median of sign-corrected mapped counters (no decode).
  int64_t FastQuery(uint32_t key) const {
    return FastQueryWithBase(HashFamily::BaseHash(key));
  }

  // Hot-path variant: `base_hash` must equal HashFamily::BaseHash(key).
  int64_t FastQueryWithBase(uint64_t base_hash) const;

  // Tuning for the parallel peeling decode. Only the clock moves with
  // these — the decoded map is bit-identical for every setting.
  struct DecodeOptions {
    // Worker threads for the purity scans (clamped to [1, 64]).
    size_t num_threads = 1;
    // A scan round splits across a second (or further) worker only while
    // every worker keeps at least this many active buckets; below that the
    // round runs fully sequentially (fork/join latency would exceed the
    // scan). Matches DaVinciConfig::decode_min_buckets_per_worker.
    size_t min_buckets_per_worker = 4096;
    // Cap num_threads at std::thread::hardware_concurrency(): requesting 4
    // workers on a 1-core host must not burn the win on context switches.
    // Tests disable the clamp to exercise the pool on any machine.
    bool clamp_to_hardware = true;
  };

  // Peels the sketch into flow -> signed count (Algorithm 5). If
  // `cross_filter` is non-null, candidates must have |filter estimate| ≥
  // its threshold (the paper's double verification).
  //
  // The peeling runs in synchronized rounds: a read-only purity scan over
  // the active buckets (sharded row-major across a persistent worker pool,
  // one contiguous range per worker) selects candidates from a
  // start-of-round snapshot, then one sequential peeling pass applies them
  // in ascending bucket order. Because candidate selection depends only on
  // the snapshot and application order is fixed, the decoded map is
  // bit-identical for every thread count — threads only change who scans,
  // never what is peeled.
  std::unordered_map<uint32_t, int64_t> Decode(
      const ElementFilter* cross_filter, const DecodeOptions& options) const;
  // Convenience overload with default sharding granularity.
  std::unordered_map<uint32_t, int64_t> Decode(
      const ElementFilter* cross_filter, size_t num_threads = 1) const {
    DecodeOptions options;
    options.num_threads = num_threads;
    return Decode(cross_filter, options);
  }

  void Merge(const InfrequentPart& other);
  void Subtract(const InfrequentPart& other);

  // Median over rows of the bucket-wise counter dot product; unbiased for
  // identically-seeded parts thanks to the ζ signs.
  static double InnerProduct(const InfrequentPart& a,
                             const InfrequentPart& b);

  size_t rows() const { return rows_; }
  size_t width() const { return width_; }
  size_t EmptyBuckets() const;
  size_t TotalBuckets() const { return rows_ * width_; }

  size_t MemoryBytes() const {
    return rows_ * width_ * DaVinciConfig::kIfpBucketBytes;
  }
  // Raw state round-trip (geometry must already match). LoadState also
  // range-checks every cell (iID < p, |icnt| ≤ kMaxLoadedCount) so a
  // corrupted or hostile image is rejected at the boundary instead of
  // feeding the peeling arithmetic.
  void SaveState(std::ostream& out) const;
  bool LoadState(std::istream& in);

  // DVSZ compressed state. Real traffic leaves most IFP buckets untouched
  // (100% empty on the insert bench), so the encoder counts the non-empty
  // cells first and picks per image: a u8 mode byte selects sparse
  // (gap-coded strictly-ascending cell indices, each with a varint iID and
  // zigzag icnt) when at most kSparseDensityPercent of the cells are live,
  // else flat (the exact SaveState layout) — a saturated IFP must not pay
  // the sparse index overhead. The loader applies LoadState's field/range
  // gates plus the sparse structure's own (mode byte, index monotonicity
  // and bounds).
  static constexpr size_t kSparseDensityPercent = 50;
  void SaveStateCompressed(std::ostream& out) const;
  bool LoadStateCompressed(std::istream& in);

  // Test hook: plant raw cell contents directly, bypassing both the insert
  // path and LoadState's range gate — how the invariant-audit tests inject
  // corruption that no public boundary admits anymore.
  void OverwriteCellForTesting(size_t row, size_t bucket, uint64_t id,
                               int64_t count) {
    Storage& st = Mut();
    st.ids[row * width_ + bucket] = id;
    st.counts[row * width_ + bucket] = count;
  }

  // Aborts (DAVINCI_CHECK) on a violated structural invariant of the
  // counting Fermat sketch. Unconditional: array geometry; every iID field
  // lies in [0, p) (Fermat decode divides by icnt mod p, so an id outside
  // the field silently corrupts every peel); each row receives every
  // insert exactly once, so the per-row sum of iID fields mod p is the
  // same for all rows. Without sign hashes the per-row icnt sums agree
  // too, and in kAdditive mode each icnt is additionally nonnegative.
  void CheckInvariants(InvariantMode mode) const;

  // Fills `out` with the bucket-load scan and (stats builds) the
  // insert/decode counters, including false decodes rejected by the EF
  // cross-validation. See docs/OBSERVABILITY.md.
  void CollectStats(obs::IfpHealth* out) const;

  uint64_t memory_accesses() const { return accesses_; }

  // Identity of the shared {iID, icnt} storage — two InfrequentParts
  // return the same pointer iff they still share buffers (CoW test hook).
  const void* StorageId() const { return store_.get(); }

 private:
  size_t BucketIndexBase(size_t row, uint64_t base_hash) const {
    return row * width_ + hashes_[row].BucketFastWithBase(base_hash, width_);
  }
  size_t BucketIndex(size_t row, uint32_t key) const {
    return BucketIndexBase(row, HashFamily::BaseHash(key));
  }
  int SignBase(size_t row, uint64_t base_hash) const {
    return use_signs_ ? signs_[row].SignWithBase(base_hash) : 1;
  }
  int Sign(size_t row, uint64_t key) const {
    return SignBase(row, HashFamily::BaseHash(key));
  }

  struct Storage {
    std::vector<uint64_t> ids;    // Σ count·key mod p, rows_ × width_
    std::vector<int64_t> counts;  // Σ ζ(key)·count (signed)
    size_t ByteSize() const {
      return ids.size() * sizeof(uint64_t) + counts.size() * sizeof(int64_t);
    }
  };

  // Write-path storage access: clones iff a snapshot still shares the
  // buffers (see FrequentPart::Mut for the refcount reasoning).
  Storage& Mut() {
    if (store_.use_count() > 1) CloneStore();
    return *store_;
  }
  void CloneStore();

  size_t rows_;
  size_t width_;
  bool use_signs_;
  std::vector<HashFamily> hashes_;
  std::vector<SignHash> signs_;
  std::shared_ptr<Storage> store_;
  uint64_t accesses_ = 0;

  // Telemetry (no-ops unless built with DAVINCI_STATS). Mutable: Decode()
  // is logically const but accounts its peeling outcomes. The decode
  // tallies are SharedEventCounter because a sketch's lazy decode runs
  // concurrently with other readers copying or inspecting the same part
  // (DESIGN.md §10); `inserts` stays plain — writes happen only under the
  // owner's synchronization.
  struct Counters {
    obs::EventCounter inserts;
    obs::SharedEventCounter decode_runs;
    obs::SharedEventCounter decoded_flows;
    obs::SharedEventCounter decode_rejected_by_filter;
  };
  mutable Counters stats_;
};

}  // namespace davinci

#endif  // DAVINCI_CORE_INFREQUENT_PART_H_
