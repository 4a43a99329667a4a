#ifndef DAVINCI_CORE_CONFIG_H_
#define DAVINCI_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

// Configuration and sizing of a DaVinci Sketch.

namespace davinci {

struct DaVinciConfig {
  // --- Frequent part (FP) ---
  size_t fp_buckets = 1024;  // k
  size_t fp_slots = 7;       // c entries per bucket (paper's tested value)
  int64_t evict_lambda = 8;  // λ in Algorithm 1

  // --- Element filter (EF) ---
  std::vector<int> ef_level_bits = {8, 16};  // m = 2 tower levels
  size_t ef_bytes = 64 * 1024;
  int64_t promotion_threshold = 16;  // T: estimate above T promotes to IFP

  // --- Infrequent part (IFP) ---
  size_t ifp_rows = 3;  // d
  size_t ifp_buckets_per_row = 1024;  // w
  bool use_sign_hash = true;           // ζ_i on (unbiased fast queries)
  bool decode_cross_validation = true;  // EF check inside canDecode

  // Worker threads for the IFP peeling decode (cardinality / distribution /
  // entropy / difference queries). Runtime-only tuning — deliberately NOT
  // serialized (two hosts may decode the same sketch with different
  // parallelism; the decoded map is bit-identical either way, see
  // InfrequentPart::Decode). 1 = today's sequential behavior.
  size_t decode_threads = 1;

  // Decode sharding granularity, runtime-only like decode_threads (the
  // answers are identical for every setting; surfaced in HealthSnapshot):
  // a purity-scan round splits across a second (or further) worker only
  // while every worker keeps at least this many active buckets. Below the
  // threshold the round runs sequentially — the fork/join latency exceeds
  // the scan it would parallelize.
  size_t decode_min_buckets_per_worker = 4096;

  uint64_t seed = 1;

  // Aborts (DAVINCI_CHECK) on an out-of-range tuning knob. Called by the
  // DaVinciSketch constructor, so a sketch can only exist over a sane
  // config. Bounds, not equalities: every value inside them answers
  // queries identically.
  void Validate() const;

  // Non-aborting geometry check for DESERIALIZED configs: every count is
  // in a range an honestly-built sketch can reach, and the total footprint
  // (computed overflow-safe) stays under kMaxLoadedBytes — so Load rejects
  // a corrupted or hostile prefix instead of aborting the process or
  // attempting a multi-terabyte allocation. In-process construction keeps
  // using the aborting Validate(): a bad config there is a programming
  // error, not input.
  bool Valid() const;

  // Footprint ceiling Valid() enforces (2 GiB of design state — far above
  // any evaluated sketch, far below an allocation-of-death).
  static constexpr uint64_t kMaxLoadedBytes = uint64_t{1} << 31;

  // Memory accounting constants (bytes of design state):
  //   FP bucket: c·(4B key + 4B count + taint bit) + 4B ecnt + 1B flag
  //   IFP bucket: 5B id (33-bit mod-p value) + 4B signed count
  static constexpr size_t kFpSlotBytes = 8;
  static constexpr size_t kFpBucketOverheadBytes = 6;
  static constexpr size_t kIfpBucketBytes = 9;

  size_t FpBytes() const {
    return fp_buckets * (fp_slots * kFpSlotBytes + kFpBucketOverheadBytes);
  }
  size_t IfpBytes() const {
    return ifp_rows * ifp_buckets_per_row * kIfpBucketBytes;
  }
  size_t TotalBytes() const { return FpBytes() + ef_bytes + IfpBytes(); }

  // Splits a byte budget 25% FP / 50% EF / 25% IFP (the default used by
  // all benches; the ablation bench sweeps the split).
  static DaVinciConfig FromMemory(size_t total_bytes, uint64_t seed);

  // Same, with explicit part fractions (must sum to <= 1).
  static DaVinciConfig FromMemorySplit(size_t total_bytes, double fp_fraction,
                                       double ef_fraction, uint64_t seed);

  // Binary round-trip (used by DaVinciSketch::Save/Load).
  void Save(std::ostream& out) const;
  static bool Load(std::istream& in, DaVinciConfig* config);

  // Continuation of Load for a caller that already consumed the leading
  // u64 (fp_buckets) while sniffing the stream for the DVSZ magic word.
  // The magic|version pair can never be a valid fp_buckets (Valid() caps
  // it at 2^24), so DaVinciSketch::Load branches on that first word and
  // hands the flat case here — no seeking, so non-seekable streams work.
  static bool LoadTail(uint64_t fp_buckets, std::istream& in,
                       DaVinciConfig* config);

  // How two geometries relate — the single admission gate shared by
  // resize, merge/import, delta-apply, the window engine and the server's
  // cross-tenant queries. Runtime-only tuning knobs (decode_threads,
  // decode_min_buckets_per_worker) are deliberately ignored: they never
  // change answers.
  enum class GeometryRelation {
    // Same seed, same serialized geometry: linear ops (Merge / Subtract /
    // InnerProduct / ApplyDelta / ImportMerge) are sound, and a Resize is
    // a digest-preserving no-op.
    kIdentical,
    // Same seed (hash family continuity), both geometries Valid(), but
    // shapes differ: linear ops are NOT sound; the only legal migration
    // is the rebuild/replay path (DaVinciSketch::Resize), with the §12
    // accuracy contract.
    kResizable,
    // Different seed or an invalid geometry: no migration path at all.
    kIncompatible,
  };
  static GeometryRelation GeometryCompatible(const DaVinciConfig& from,
                                             const DaVinciConfig& to);
};

}  // namespace davinci

#endif  // DAVINCI_CORE_CONFIG_H_
