#ifndef DAVINCI_OBS_HEALTH_H_
#define DAVINCI_OBS_HEALTH_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/stats.h"

// HealthSnapshot: a point-in-time view of a DaVinci Sketch's internal
// dynamics, populated by the CollectStats() hooks on the three parts
// (docs/OBSERVABILITY.md maps every field to the paper's Algorithms 1/3/5).
//
// Two kinds of fields coexist:
//  - structural scans (slot occupancy, tower saturation, IFP bucket load):
//    recomputed from sketch state on every CollectStats() call, available
//    regardless of DAVINCI_STATS;
//  - event counters (evictions, promotions, decode rejects): accumulated in
//    the hot paths, zero when the build has DAVINCI_STATS off (check
//    `stats_enabled`).

namespace davinci::obs {

// Frequent part (Algorithm 1: λ-vote eviction).
struct FpHealth {
  // Structural scan.
  size_t buckets = 0;
  size_t slots = 0;            // per bucket
  size_t live_slots = 0;       // entries with count != 0
  size_t flagged_buckets = 0;  // evict flag set (bucket ever evicted)
  uint64_t ecnt_sum = 0;       // Σ per-bucket evict counters
  uint32_t ecnt_max = 0;
  // Event counters (Algorithm 1's four cases).
  uint64_t inserts = 0;
  uint64_t hits = 0;        // case 1: key already resident
  uint64_t fills = 0;       // case 2: took a free slot
  uint64_t evictions = 0;   // case 3: λ-vote evicted the resident minimum
  uint64_t rejections = 0;  // case 4: newcomer deemed infrequent

  double Occupancy() const {
    size_t total = buckets * slots;
    return total == 0 ? 0.0
                      : static_cast<double>(live_slots) /
                            static_cast<double>(total);
  }
};

// One tower level of the element filter.
struct EfLevelHealth {
  size_t width = 0;      // counters at this level
  int bits = 0;          // design counter width
  int64_t cap = 0;       // saturation value
  size_t saturated = 0;  // counters pinned at cap
  size_t zeros = 0;      // untouched counters

  double SaturationFraction() const {
    return width == 0 ? 0.0
                      : static_cast<double>(saturated) /
                            static_cast<double>(width);
  }
};

// Element filter (cold filter with threshold T).
struct EfHealth {
  int64_t threshold = 0;  // T
  std::vector<EfLevelHealth> levels;
  // Event counters.
  uint64_t inserts = 0;
  uint64_t promotions = 0;      // inserts whose overflow crossed T
  uint64_t promoted_units = 0;  // Σ |overflow| handed to the IFP
};

// Infrequent part (Algorithm 5: Fermat peeling with EF cross-validation).
struct IfpHealth {
  // Structural scan.
  size_t rows = 0;
  size_t width = 0;  // buckets per row
  size_t empty_buckets = 0;
  // Configured Decode() worker count (DaVinciConfig::decode_threads) —
  // runtime tuning, not serialized sketch state; shard aggregation takes
  // the max.
  size_t decode_threads = 1;
  // Event counters.
  uint64_t inserts = 0;
  uint64_t decode_runs = 0;    // full Decode() invocations
  uint64_t decoded_flows = 0;  // flows recovered across all runs
  // Pure-looking buckets whose candidate failed the element-filter
  // cross-check (the paper's double verification rejecting false decodes).
  uint64_t decode_rejected_by_filter = 0;

  double Load() const {
    size_t total = rows * width;
    return total == 0 ? 0.0
                      : 1.0 - static_cast<double>(empty_buckets) /
                                  static_cast<double>(total);
  }
};

// Epoch engine (EpochManager: rotation + memoized window merges, see
// DESIGN.md §10). All fields are structural/rotation-granularity counters,
// live regardless of DAVINCI_STATS; zero when the snapshot came from a
// plain sketch.
struct EpochHealth {
  size_t window_epochs = 0;     // configured W
  size_t epochs_in_window = 0;  // sealed + live currently covered
  uint64_t rotations = 0;       // Advance() calls
  // Sealed epochs answered from a memoized suffix/accumulator merge
  // instead of being re-merged (summed per window query).
  uint64_t window_merge_hits = 0;
  // Merges spent maintaining the memo (per-Advance accumulation + the
  // amortized suffix rebuilds).
  uint64_t window_rebuild_merges = 0;
  // Process-wide CowTally readings at collect time (max on Accumulate —
  // the tally is global, summing would double count).
  uint64_t cow_clones = 0;
  uint64_t cow_clone_bytes = 0;
};

// Runtime tuning in effect at collect time: the decode-sharding knob from
// DaVinciConfig. Pure tuning, never serialized sketch state; shard
// aggregation takes the max (shards share one config).
struct TuningHealth {
  size_t decode_min_buckets_per_worker = 0;
};

// Fan-in merge-tree provenance (server kImportMerge aggregation, see
// docs/SERVER.md §Export / ImportMerge). Only the server's Tenant fills
// it, after folding its shards; Accumulate leaves it alone. A tenant that
// has only ever ingested raw traffic sits at height 0; importing images
// whose tallest source has height h lifts the target to h+1, so `height`
// reads off how many aggregation hops separate this view from raw
// ingest. Structural counters, live regardless of DAVINCI_STATS.
struct MergeTreeHealth {
  uint32_t height = 0;            // max source height + 1, 0 = leaf
  uint64_t import_requests = 0;   // kImportMerge frames applied
  uint64_t imported_images = 0;   // shard images folded in, total
  uint64_t imported_bytes = 0;    // wire bytes of those images
  // imported_images bucketed by the level they arrived at (the height of
  // the target AFTER the import): index 0 counts leaf-to-leaf folds,
  // higher indexes deeper aggregation tiers. Capped at kMaxTrackedLevels;
  // deeper imports land in the last bucket.
  static constexpr size_t kMaxTrackedLevels = 8;
  std::vector<uint64_t> images_per_level;
};

// Dynamic-geometry provenance of a server tenant (kResizeTenant — see
// DESIGN.md §12). What triggered the last applied resize, and the
// footprint it moved between. The Tenant owns the one record and copies
// it into its snapshots; Accumulate leaves it alone. Structural
// counters, live regardless of DAVINCI_STATS.
struct ResizeHealth {
  // What asked for the last applied resize.
  enum Trigger : uint32_t {
    kNone = 0,   // never resized
    kAdmin = 1,  // kResizeTenant / an explicit Resize call
  };
  uint64_t applied = 0;   // geometry swaps committed
  uint64_t rejected = 0;  // requests refused (incompatible geometry / quota)
  uint64_t bytes_before = 0;  // design bytes before the last applied swap
  uint64_t bytes_after = 0;   // design bytes after it
  uint32_t last_trigger = kNone;
};

struct HealthSnapshot {
  bool stats_enabled = kStatsEnabled;
  size_t shards = 1;  // > 1 when collected from a ConcurrentDaVinci
  size_t memory_bytes = 0;
  uint64_t inserts = 0;  // sketch-level Insert/InsertBatch keys
  uint64_t queries = 0;
  // ConcurrentDaVinci::SharedSnapshot: merges built, and calls served from
  // the per-published-state memo. The engine's own relaxed atomics, live
  // regardless of DAVINCI_STATS; zero when collected from a plain sketch.
  uint64_t snapshot_merges = 0;
  uint64_t snapshot_reuse_hits = 0;
  FpHealth fp;
  EfHealth ef;
  IfpHealth ifp;
  EpochHealth epoch;
  TuningHealth tuning;
  MergeTreeHealth merge_tree;
  ResizeHealth resize;

  // Shard aggregation: sums capacities, scans and counters; takes the max
  // of ecnt_max; merges tower levels element-wise (shards share geometry).
  // The tenant-level merge_tree and resize sections are not folded.
  void Accumulate(const HealthSnapshot& other);

  // Single JSON object, no trailing newline.
  void WriteJson(std::ostream& out) const;
};

}  // namespace davinci::obs

#endif  // DAVINCI_OBS_HEALTH_H_
