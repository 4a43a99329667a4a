#ifndef DAVINCI_CORE_CONCURRENT_DAVINCI_H_
#define DAVINCI_CORE_CONCURRENT_DAVINCI_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_annotations.h"
#include "core/davinci_sketch.h"

// A sharded, thread-safe wrapper: keys are partitioned across S DaVinci
// Sketches by a shard hash, so concurrent writers rarely contend.
//
// RCU-style read path (DESIGN.md §10): each shard publishes an immutable
// SketchView through an atomic shared_ptr. Readers (`Query`, `QueryBatch`,
// `EstimateCardinality`, `HeavyHitters`, `SnapshotAll`) load the current
// view with one acquire and never touch a mutex — a reader observes either
// the state before or after any given write, never a torn middle, and is
// never blocked by a writer. Writers keep the per-shard mutex, mutate the
// live sketch (cloning any CoW buffer a view still shares), and publish a
// fresh view before unlocking.
//
// The write-side protocol is machine-checked (docs/STATIC_ANALYSIS.md):
// the live sketch is GUARDED_BY the shard mutex, and Publish carries
// REQUIRES(shard.mutex), so the TSA build rejects any mutation or
// publication outside the lock. The `view` slot itself is a std::atomic —
// reads are deliberately lock-free — but every *store* happens inside
// Publish, which the annotations pin under the mutex (the mutex orders the
// CoW refcount increment inside Snapshot() against other writers).
//
// One publication rule: every write call publishes each shard it changed
// exactly once, under that shard's mutex, before it returns. A write is
// therefore visible to every read that starts after it returns
// (read-your-writes), and a read racing a multi-shard call may see the
// call applied on some shards and not yet on others — each view is always
// a consistent image of its own shard. Publishing once per call, not once
// per key or block, bounds the dominant write-side cost under concurrent
// readers: each publish leaves a view sharing the live sketch's CoW
// buffers, so the shard's *next* write call re-clones them (about 0.8 MB
// per shard at 1 MiB over 4 shards).
//
// Aggregate queries either sum per-shard answers (cardinality, frequency)
// or operate on a merged snapshot (the remaining tasks). The merged
// snapshot is built once per published state and shared until a write
// publishes a new view (SharedSnapshot). The shards share seeds, so
// snapshots of two ConcurrentDaVinci instances remain mergeable.

namespace davinci {

class ConcurrentDaVinci {
 public:
  // `total_bytes` is divided evenly across `shards`.
  ConcurrentDaVinci(size_t shards, size_t total_bytes, uint64_t seed);

  // Does nothing: every write call publishes before it returns, so there
  // is never anything left to flush. Kept for source compatibility with
  // existing callers (the perfbench load generator calls it).
  void FlushViews() {}

  void Insert(uint32_t key, int64_t count = 1);

  // Batched insert: groups the whole call by shard, then takes each
  // touched shard's lock ONCE to hand its group to
  // DaVinciSketch::InsertBatch and publish. Keys of the same shard are
  // applied in stream order, so the per-shard (and hence snapshot) state
  // is identical to single Inserts. Aborts unless `keys` and `counts` have
  // the same length.
  void InsertBatch(std::span<const uint32_t> keys,
                   std::span<const int64_t> counts);
  void InsertBatch(std::span<const uint32_t> keys);  // count 1 per key

  // Lock-free point query against the shard's published view.
  int64_t Query(uint32_t key) const;

  // Batched point queries: groups each block of keys by shard (remembering
  // every key's position in `keys`), runs each group against that shard's
  // published view — lock-free — and scatters the answers back into
  // result order. Answer-equivalent to `for (i) Query(keys[i])`.
  std::vector<int64_t> QueryBatch(std::span<const uint32_t> keys) const;

  // Lock-free: sums each published view's estimate (shards partition the
  // key space, so cardinalities add).
  double EstimateCardinality() const;

  // Lock-free: concatenates each published view's heavy hitters (shards
  // partition the key space, so no flow spans two shards).
  std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const;

  // Union with another sharded sketch built with the same shard count and
  // seed: merges shard-by-shard, holding the pair of shard locks via an
  // address-ordered MutexLockPair (deadlock-free even when two threads
  // merge two instances into each other concurrently). Safe to run while
  // writers keep inserting into either side; inserts into `other` that
  // race the merge land in whichever side their shard has already been
  // merged from.
  void Merge(const ConcurrentDaVinci& other);

  // A coherent per-shard vector of the currently-published views, one
  // atomic load per shard and no locks. Each view is individually a
  // consistent image of its shard; the vector is the serving primitive for
  // merged-task queries (union, inner product, ...).
  std::vector<std::shared_ptr<const SketchView>> SnapshotAll() const;

  // The single merged sketch of SnapshotAll() — lock-free (shards
  // hash-partition the key space, so the merge sees each flow once).
  // During a Resize transient the published views briefly span two
  // geometries; a view that disagrees with the first shard's is rebuilt
  // through DaVinciSketch::Resize before merging, so the snapshot stays
  // servable mid-swap.
  //
  // Memoized per published state: the merge is kept together with weak
  // references to the views it was folded from, and returned again while
  // every shard still publishes exactly those views. Any write publishes
  // a new view, so it invalidates the memo with no write-side work. No
  // lock is held across the merge: readers that miss at the same time
  // each merge, and the last to store wins. The shared sketch, its IFP
  // decode included, is safe to read from any number of threads.
  std::shared_ptr<const DaVinciSketch> SharedSnapshot() const;
  // `*SharedSnapshot()`: an O(1) copy sharing the memo's CoW buffers.
  DaVinciSketch Snapshot() const;

  // SharedSnapshot telemetry (relaxed, live in every build): merges
  // performed, and calls answered from the memo without one.
  uint64_t snapshot_merges() const {
    return snapshot_merges_.load(std::memory_order_relaxed);
  }
  uint64_t snapshot_reuse_hits() const {
    return snapshot_reuse_hits_.load(std::memory_order_relaxed);
  }

  // ---- dynamic geometry (DESIGN.md §12) ----
  // Rebuilds every shard's live sketch into `per_shard_config`, one shard
  // at a time under that shard's mutex, publishing a fresh view per shard
  // — readers stay lock-free on their current views throughout and are
  // never blocked. Returns false, touching no shard, when the new geometry
  // is kIncompatible with the current one. Concurrent writers are safe;
  // anything else that reads or changes the geometry (another Resize, an
  // image parse-then-merge, a whole-engine export) must be serialized
  // against it by the owner — the server's Tenant does so on its mutex.
  bool Resize(const DaVinciConfig& per_shard_config);
  // Per-shard geometry currently live (read off shard 0's published view;
  // uniform outside a Resize transient).
  DaVinciConfig ShardConfig() const;

  // ---- persistence (the server's tenant checkpoints) ----
  // Serializes the shard count followed by each shard's PUBLISHED view —
  // one atomic load per shard, no locks, so writers are never stalled by a
  // checkpoint. The image carries every write call that returned before
  // SaveShards started; a call racing it may be captured on some shards
  // and not others. `format` selects each shard's image:
  // kCompressed writes a DVSZ container (typically >4x smaller on skewed
  // traffic — the DVCK v2 checkpoint body and the server's kExportSketch
  // use this). Readers need no flag: DaVinciSketch::Load sniffs the format
  // per shard, so RestoreShards and ParseShardImage accept both, including
  // images that mix formats.
  void SaveShards(std::ostream& out, SketchFormat format) const;

  // Parses ONE SaveShards image into per-shard sketches without touching
  // live state. Returns false — leaving `staged` unspecified — on any of
  // RestoreShards' gates (shard count, per-shard Load, mutual geometry,
  // FP shard routing); with `match_live_geometry` additionally when the
  // image's geometry differs from this instance's live one (required
  // before MergeShardImages — DaVinciSketch::Merge aborts on mismatched
  // configs, and a wire image must fail softly instead).
  bool ParseShardImage(std::istream& in, std::vector<DaVinciSketch>* staged,
                       bool match_live_geometry = true) const;

  // Fan-in merge: left-folds every staged image (each from ParseShardImage
  // with match_live_geometry) into the live shards, in the order given,
  // publishing each shard once at the end. The parse's geometry gate holds
  // only if no Resize runs between the two calls (the server's Tenant holds
  // its mutex across both). The state evolution is exactly
  // `for (i) Merge(engine_of(images[i]))` — the canonical order matters
  // because FP eviction during merge is order-sensitive (DESIGN.md §Wire
  // format), so the aggregator pins request order rather than pretending
  // Merge is associative.
  void MergeShardImages(std::vector<std::vector<DaVinciSketch>>&& images);

  // Restores an image produced by SaveShards into this instance, replacing
  // every shard's live sketch and republishing. Non-aborting on hostile
  // input: returns false — leaving *this untouched — when the shard count
  // differs from this instance's, any per-shard image fails the
  // DaVinciSketch::Load gate, the shard configs are not mutually
  // kIdentical (GeometryCompatible), or a frequent-part resident key is
  // routed to a different shard by this instance's shard hash (a corrupted
  // image must not poison Snapshot()'s cross-shard merge).
  bool RestoreShards(std::istream& in);

  // Aggregated health telemetry: collects every shard's snapshot under its
  // lock and sums them (capacities and counters add across shards;
  // `shards` records the shard count). Safe while writers are active.
  void CollectStats(obs::HealthSnapshot* out) const;

  size_t num_shards() const { return shards_.size(); }
  size_t MemoryBytes() const;

  // Aborts (DAVINCI_CHECK) on a violated structural invariant: every
  // shard's sketch passes its own audit, the shards share one geometry
  // and seed (Snapshot's Merge requires it), each shard holds only keys
  // the shard hash routes to it, and each shard has a published view.
  // Takes every shard lock in turn, so it is safe to call while writers
  // are active.
  void CheckInvariants(InvariantMode mode) const;

  // Returns shard `shard`'s writer mutex (test hook: the lock-free-read
  // tests hold a shard lock hostage — via ReleasableMutexLock — and assert
  // reads still complete). The old form returned an already-locked
  // std::unique_lock, which Thread Safety Analysis cannot track across the
  // call boundary; handing out the annotated Mutex instead keeps the
  // hostage-holding *test* inside the analysis too (the pattern is
  // documented in docs/STATIC_ANALYSIS.md §"Locks across call boundaries").
  Mutex& ShardMutexForTesting(size_t shard) const {
    return shards_[shard].mutex;
  }

 private:
  // Whole-struct alignment keeps any two shards off a shared cache line:
  // reader threads hammer `view` (acquire load + refcount bump) while
  // writer threads spin adjacent shards' mutexes, and at the default
  // alignment shard s's view slot and shard s+1's mutex land on one line
  // and ping-pong it between cores.
  struct alignas(128) Shard {
    mutable Mutex mutex;
    std::unique_ptr<DaVinciSketch> sketch DAVINCI_GUARDED_BY(mutex);
    // RCU publication point: the immutable view readers run against.
    // Stored with release by writers (once per write call that touched the
    // shard), loaded with acquire by readers; never null once the
    // constructor finishes. Deliberately NOT guarded: reads are lock-free
    // by design, and all stores live in Publish (REQUIRES the mutex).
    std::atomic<std::shared_ptr<const SketchView>> view;
    // Read-side query tally (the lock-free paths bypass the live sketch's
    // counters, which only writers touch). Own cache line: readers bump it
    // on every query, and sharing a line with `view` would drag the
    // publication slot into every increment's ownership transfer.
    alignas(64) mutable obs::SharedEventCounter read_queries;
  };

  size_t ShardOf(uint32_t key) const {
    return shard_hash_.BucketFast(key, shards_.size());
  }

  // Publishes a fresh view of the shard's live sketch (the mutex orders
  // the CoW refcount increment inside Snapshot() against other writers).
  static void Publish(Shard& shard) DAVINCI_REQUIRES(shard.mutex) {
    shard.view.store(shard.sketch->Snapshot(), std::memory_order_release);
  }

  // SharedSnapshot's memo. The key is weak: it neither pins retired
  // views' buffers nor matches a new view that reuses a freed one's
  // address, because lock() on an expired reference yields null.
  struct SnapshotMemo {
    std::vector<std::weak_ptr<const SketchView>> views;
    std::shared_ptr<const DaVinciSketch> merged;
  };

  HashFamily shard_hash_;
  std::vector<Shard> shards_;
  mutable std::atomic<std::shared_ptr<const SnapshotMemo>> snapshot_memo_;
  mutable std::atomic<uint64_t> snapshot_merges_{0};
  mutable std::atomic<uint64_t> snapshot_reuse_hits_{0};
};

}  // namespace davinci

#endif  // DAVINCI_CORE_CONCURRENT_DAVINCI_H_
