#ifndef DAVINCI_CORE_DAVINCI_SKETCH_H_
#define DAVINCI_CORE_DAVINCI_SKETCH_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/config.h"
#include "core/element_filter.h"
#include "core/frequent_part.h"
#include "core/infrequent_part.h"
#include "core/sketch_interface.h"
#include "obs/health.h"

// DaVinci Sketch: one data structure, nine set-measurement tasks.
//
// Layout (paper §III):
//   frequent part   — exact (key, count) hash table with λ-vote eviction
//   element filter  — TowerSketch cold filter holding ≤ T units per flow
//   infrequent part — counting Fermat sketch holding everything beyond T
//
// A flow of size f is represented as f = f_FP + f_EF + f_IFP, where the FP
// share is exact, the EF share is ≈ min(f, T), and the IFP share is
// recoverable exactly by decode (or approximately by a count-sketch-style
// fast query). All nine tasks are answered from this decomposition.
//
// Two sketches built with the same DaVinciConfig (same seed!) are linear:
// Merge computes the union and Subtract the (signed) difference, after
// which every query keeps working on the result.
//
// Snapshot() returns an immutable SketchView in O(1): the three parts'
// flat buffers are copy-on-write (shared until the live sketch next
// mutates them), so acquiring a snapshot never copies counter state and
// writers never block on readers (DESIGN.md §10).

namespace davinci {

class SketchView;

// Serialization format selector (DESIGN.md §Wire format). kFlat is the
// original fixed-width POD dump — its byte layout is pinned by the FNV
// digest in tests/serialization_fuzz_test.cc and must never change.
// kCompressed is the DVSZ v1 container: varint + zero-run coding for the
// EF tower, sparse cells for the near-empty IFP, varint counts and
// bit-packed flags for the FP — typically >4x smaller on skewed traffic.
// Load() auto-detects the format, so both stay readable forever.
enum class SketchFormat : uint8_t {
  kFlat = 0,
  kCompressed = 1,
};

// DVSZ (full compressed image) and DVSD (delta image) container framing.
// The magic|version pair occupies the position of the flat format's
// leading fp_buckets u64; DaVinciConfig::Valid() caps fp_buckets at 2^24,
// so the sniff in Load() can never misread an honest flat image.
inline constexpr uint32_t kDvszMagic = 0x5A535644;    // "DVSZ" little-endian
inline constexpr uint32_t kDvszVersion = 1;
inline constexpr uint32_t kDvszTrailer = 0x4456535A;  // "ZSVD"
inline constexpr uint32_t kDvsdMagic = 0x44535644;    // "DVSD"
inline constexpr uint32_t kDvsdVersion = 1;
inline constexpr uint32_t kDvsdTrailer = 0x44565344;  // "DSVD"

class DaVinciSketch : public FrequencySketch, public HeavyHitterSketch {
 public:
  explicit DaVinciSketch(const DaVinciConfig& config);

  // Convenience: split `bytes` across the three parts with the default
  // 25/50/25 plan.
  DaVinciSketch(size_t bytes, uint64_t seed);

  // Copies share the parts' CoW buffers in O(1) but start with a COLD
  // decode cache: the cache pointer is the one member a shared SketchView
  // still writes (under its once-cell) after publication, so a copy that
  // read it would race the view's lazy decode. Nothing loses a warm cache
  // in practice — every write path invalidates it anyway. Moves transfer
  // the cache; they require exclusive ownership like any other mutation.
  DaVinciSketch(const DaVinciSketch& other);
  DaVinciSketch& operator=(const DaVinciSketch& other);
  DaVinciSketch(DaVinciSketch&&) = default;
  DaVinciSketch& operator=(DaVinciSketch&&) = default;

  std::string Name() const override { return "DaVinci"; }
  size_t MemoryBytes() const override;
  void Insert(uint32_t key, int64_t count) override;
  int64_t Query(uint32_t key) const override;  // Algorithm 4
  uint64_t MemoryAccesses() const override;

  // ---- batched hot path ----
  // Block width of the insertion pipeline: stage A hashes a block's keys
  // once each and prefetches their FP bucket lines one block ahead of use;
  // stage B applies the FP inserts, prefetching the element-filter counters
  // of each overflow key the moment it is discovered; stage C drains the
  // block's overflow through EF and IFP.
  static constexpr size_t kInsertBlock = 64;

  // State-equivalent to `for (i) Insert(keys[i], counts[i])` — bit-for-bit:
  // the FP/EF/IFP state after a batch is identical to the single-insert
  // state, so every query answers the same. `counts` must match `keys` in
  // size.
  void InsertBatch(std::span<const uint32_t> keys,
                   std::span<const int64_t> counts);
  // Same with an implicit count of 1 per key.
  void InsertBatch(std::span<const uint32_t> keys);

  // Batched point queries, mirroring the insertion pipeline: each block's
  // base hashes are computed once and its FP bucket lines read-prefetched
  // one block ahead; the EF counters of keys that miss the FP (or hit a
  // tainted entry) are prefetched the moment the FP probe resolves.
  // Returns exactly what `for (i) Query(keys[i])` would — same decode
  // cache, same per-key result (tests/query_batch_test.cc pins this).
  std::vector<int64_t> QueryBatch(std::span<const uint32_t> keys) const;

  // ---- single-set tasks ----
  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const override;
  double EstimateCardinality() const;
  std::map<int64_t, int64_t> Distribution() const;
  double EstimateEntropy() const;

  // ---- multi-set tasks ----
  // The linear ops below abort unless GeometryCompatible(this, other) is
  // kIdentical.
  // Union (Algorithm 3): this += other.
  void Merge(const DaVinciSketch& other);
  // Signed difference: this -= other; keys only in `other` go negative.
  void Subtract(const DaVinciSketch& other);
  // Heavy changers between this window and `other`:
  // elements with |f_this − f_other| > delta.
  std::vector<std::pair<uint32_t, int64_t>> HeavyChangers(
      const DaVinciSketch& other, int64_t delta) const;
  // Cardinality of the inner join, decomposed into the nine FF..EE terms.
  static double InnerProduct(const DaVinciSketch& a, const DaVinciSketch& b);

  // ---- dynamic geometry (DESIGN.md §12) ----
  // The flows that survive a rebuild, in the deterministic replay order
  // the migration uses: FP entries in bucket/slot iteration order, then
  // the decoded IFP flows in ascending key order. EF-resident residue
  // (≤ T units per flow) is NOT enumerable — the tower is hash-indexed
  // with no key set — and is therefore absent here; see Resize() for when
  // it survives anyway.
  std::vector<std::pair<uint32_t, int64_t>> SurvivingFlows() const;

  // True when the EF tower state can be carried verbatim across a resize
  // from `from` to `to`: identical tower geometry (ef_bytes + level bits)
  // and seed, and a non-decreasing promotion threshold (lowering T would
  // leave carried per-flow residue above the new threshold, breaking the
  // "EF holds ≤ T per flow" invariant the decode cross-validation needs).
  static bool EfCarriesOver(const DaVinciConfig& from,
                            const DaVinciConfig& to);

  // Rebuilds *this into `new_config`'s geometry. Returns false (leaving
  // *this untouched) when GeometryCompatible says kIncompatible. When the
  // geometries are kIdentical this is a digest-preserving no-op that only
  // adopts the new runtime tuning knobs (the serialized image — and thus
  // the pinned flat-format digest — cannot change, because only geometry
  // fields are serialized). Otherwise the migration stages a fresh sketch
  // and move-commits atomically on success:
  //   1. If EfCarriesOver, the old tower is merged into the staged EF.
  //   2. SurvivingFlows() is replayed through the staged sketch's normal
  //      Insert path (so FP placement, eviction routing, and taint bits
  //      are exactly what honest ingestion would produce).
  //   3. With a carried EF, a taint-fixup pass marks replayed FP residents
  //      whose key shows EF residue, mirroring Merge's taint rule.
  // Accuracy contract: when the EF does not carry over, the result is
  // bit-identical to a fresh sketch of the new geometry fed
  // SurvivingFlows() in order — the EF residue (≤ T_old per flow) and any
  // undecodable IFP remainder are the documented loss. When the EF does
  // carry over, that residue survives too and per-flow answers stay
  // within the old sketch's own error bounds. Requires additive state
  // (InvariantMode::kAdditive) — resizing a subtracted sketch is
  // unsupported. Insert/query telemetry tallies carry across.
  bool Resize(const DaVinciConfig& new_config);

  // ---- snapshots ----
  // O(1) immutable snapshot: the view shares the parts' CoW buffers with
  // the live sketch, so no counter state is copied now and the live
  // sketch's next write to a shared buffer clones it instead of mutating
  // the view's copy. The caller must externally synchronize Snapshot()
  // with concurrent writes to *this* sketch (ConcurrentDaVinci does so
  // under its shard mutex); once returned, the view is safe to read from
  // any number of threads with no further synchronization.
  std::shared_ptr<const SketchView> Snapshot() const;

  // ---- persistence ----
  // Binary serialization: the config is written first, then the raw state
  // of the three parts. Load reconstructs an identical sketch (same seeds,
  // so it stays mergeable with its siblings) from either format — it
  // sniffs the leading u64 for the DVSZ magic and otherwise reads flat.
  void Save(std::ostream& out) const;
  void Save(std::ostream& out, SketchFormat format) const;
  static bool Load(std::istream& in, DaVinciSketch* sketch);

  // ---- delta images (DVSD) ----
  // SealDelta() pins the three parts' current CoW storage as the delta
  // base — free on the hot path; the next write to each part clones once,
  // exactly as an outstanding Snapshot() would force. SaveDelta() encodes
  // only the cells/buckets touched since the seal; ApplyDelta() replays
  // such an image onto a replica holding the base state, after which the
  // replica is bit-identical to the sealed writer (wire_format_test pins
  // this with the flat-image digest). ApplyDelta requires matching
  // geometry and rejects hostile images without mutating *this.
  void SealDelta();
  void SaveDelta(std::ostream& out) const;
  bool ApplyDelta(std::istream& in);

  // Aborts (DAVINCI_CHECK) on a violated structural invariant: the three
  // parts' geometry matches the config, every part-level audit passes
  // (see FrequentPart/ElementFilter/InfrequentPart::CheckInvariants), and
  // the decode cache — if populated — holds no zero-count flows. Pass
  // kAdditive only if the sketch saw nothing but nonnegative inserts and
  // merges.
  void CheckInvariants(InvariantMode mode) const;

  // ---- introspection ----
  // Populates a HealthSnapshot from the three parts' CollectStats hooks
  // plus the sketch-level insert/query tallies. Structural fields (slot
  // occupancy, tower saturation, IFP load) are always live; event counters
  // are zero unless built with DAVINCI_STATS (see docs/OBSERVABILITY.md).
  void CollectStats(obs::HealthSnapshot* out) const;

  const DaVinciConfig& config() const { return config_; }
  const FrequentPart& frequent_part() const { return fp_; }
  const ElementFilter& element_filter() const { return ef_; }
  const InfrequentPart& infrequent_part() const { return ifp_; }
  // Cached full decode of the infrequent part (flow -> signed count).
  const std::unordered_map<uint32_t, int64_t>& DecodedFlows() const;

 private:
  // SketchView drives the FP-probe fast path + ResolveQuery tail directly
  // (materializing the decode cache exactly once via its own once-cell).
  friend class SketchView;

  // Shared tail of Query/QueryBatch: combines an already-computed FP probe
  // result with the EF/IFP shares per Algorithm 4. `base_hash` must equal
  // HashFamily::BaseHash(key); `fp_count`/`tainted` must come from the FP
  // probe of that key. HeavyHitters/Distribution call this directly with
  // the FP entry they are iterating, skipping the redundant re-probe.
  int64_t ResolveQuery(uint32_t key, uint64_t base_hash, int64_t fp_count,
                       bool tainted) const;
  // Routes an overflow (evicted or rejected element) through EF then IFP.
  void RouteToFilter(uint32_t key, int64_t count);
  void RouteToFilterWithHash(uint32_t key, uint64_t base_hash, int64_t count);
  // Shared implementation of Merge/Subtract.
  void Combine(const DaVinciSketch& other, bool subtract);
  void InvalidateDecodeCache() { decode_cache_.reset(); }

  DaVinciConfig config_;
  FrequentPart fp_;
  ElementFilter ef_;
  InfrequentPart ifp_;
  // Per-instance immutable decode cache, built lazily by DecodedFlows().
  // Deliberately NOT propagated by copies (see the copy constructor): a
  // published SketchView fills it under its once-cell while other threads
  // may be copying the view's sketch, so copies must not read it.
  mutable std::shared_ptr<const std::unordered_map<uint32_t, int64_t>>
      decode_cache_;

  // Telemetry (no-ops unless built with DAVINCI_STATS); queries_ is
  // mutable because Query() is const, and relaxed-atomic because snapshot
  // views run Query concurrently from many reader threads.
  obs::EventCounter inserts_;
  mutable obs::SharedEventCounter queries_;
};

// An immutable, internally-synchronized view of a DaVinciSketch, produced
// by DaVinciSketch::Snapshot(). The view owns a CoW copy of the sketch:
// buffers stay shared with the live sketch until the live side writes, so
// the view's answers are frozen at snapshot time ("bit-stable") no matter
// what the writer does afterwards.
//
// Thread safety: every method is safe to call concurrently from any number
// of threads. The only lazily-built state — the IFP decode cache — is
// materialized through an annotated double-checked once-cell (Decoded());
// the pure FP fast path never waits on it, so point queries that the
// frequent part settles stay decode-free.
class SketchView {
 public:
  explicit SketchView(const DaVinciSketch& sketch) : sketch_(sketch) {}
  SketchView(const SketchView&) = delete;
  SketchView& operator=(const SketchView&) = delete;

  int64_t Query(uint32_t key) const;
  std::vector<int64_t> QueryBatch(std::span<const uint32_t> keys) const;
  // Pure read over the EF bottom level + FP entries; never decodes.
  double EstimateCardinality() const { return sketch_.EstimateCardinality(); }
  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const;

  // The frozen sketch itself, for merged-task queries (Merge a copy,
  // InnerProduct, Save, ...). Callers must treat it as const.
  const DaVinciSketch& sketch() const { return sketch_; }

  size_t MemoryBytes() const { return sketch_.MemoryBytes(); }

 private:
  // Materializes the decode cache exactly once (thread-safe); afterwards
  // every DecodedFlows() call inside the query tail is a const read.
  // call_once-equivalent, but written as an annotated double-checked
  // once-cell: std::once_flag is opaque to Thread Safety Analysis, and
  // this is the one lazy write behind the "immutable" view, so it is
  // exactly the state the analysis must see (EXCLUDES catches a Decoded()
  // call from a context already holding the fill lock).
  void Decoded() const DAVINCI_EXCLUDES(decode_mu_);

  DaVinciSketch sketch_;
  // decode_ready_ is the lock-free fast-path flag (release-published after
  // the fill, acquire-checked by readers); decode_filled_ is the guarded
  // source of truth that makes losers of the fill race skip the decode.
  mutable Mutex decode_mu_;
  mutable std::atomic<bool> decode_ready_{false};
  mutable bool decode_filled_ DAVINCI_GUARDED_BY(decode_mu_) = false;
};

}  // namespace davinci

#endif  // DAVINCI_CORE_DAVINCI_SKETCH_H_
