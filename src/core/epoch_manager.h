#ifndef DAVINCI_CORE_EPOCH_MANAGER_H_
#define DAVINCI_CORE_EPOCH_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/davinci_sketch.h"

// EpochManager: the one window lifecycle every temporal feature sits on
// (DESIGN.md §10). It owns epoch rotation — Advance() seals the current
// epoch (a zero-copy move into an immutable shared_ptr) and opens a fresh
// same-seed sketch — and retains a ring of up to W−1 sealed epochs plus
// the live one, so the window covers exactly the last W epochs.
//
// Window queries are answered by LAZY INCREMENTAL MERGE with memoized
// prefix merges, using the classic two-stack sliding-window aggregation
// (DaVinci merge is associative in value but NOT invertible — λ-vote
// eviction loses information — so a subtract-the-expired-epoch scheme is
// unsound):
//
//  - back accumulator: a running left-fold merge of the most recently
//    sealed epochs, extended by one Merge per Advance();
//  - front suffix stack: for the oldest segment, entry i memoizes the
//    merge of epoch i with everything newer in the segment. Expiring the
//    oldest epoch is a pop; when the stack runs dry the back segment is
//    flipped into it (one Merge per epoch, amortized O(1) per Advance).
//
// MergedWindow() then combines at most two memoized aggregates and the
// live epoch — constant merge work per call regardless of W, with sealed
// epochs never re-merged (the `window_merge_hits` telemetry counts how
// many sealed epochs each query served from the memo).
//
// Not internally synchronized: like DaVinciSketch, callers serialize
// writes; wrap in ConcurrentDaVinci-style locking if needed. Concurrent
// *const* queries against a quiescent manager are allowed, which is why
// the one piece of state a const path mutates — the window_merge_hits_
// telemetry tally — is a relaxed atomic (the PR 7 annotation audit found
// the old `mutable uint64_t` racing itself under two concurrent window
// queries; every other member is only touched by the externally-serialized
// write path or read after it).

namespace davinci {

class EpochManager {
 public:
  // The window spans `window_epochs` epochs of `bytes_per_epoch` each
  // (default 25/50/25 split); all epochs share `seed`, so they stay
  // mergeable.
  EpochManager(size_t window_epochs, size_t bytes_per_epoch, uint64_t seed);

  // Explicit-geometry variant (the resize/autotune entry point).
  EpochManager(size_t window_epochs, const DaVinciConfig& config);

  // Moves require exclusive ownership of both sides, like any write (the
  // atomic telemetry member deletes the implicit versions).
  EpochManager(EpochManager&& other) noexcept
      : max_epochs_(other.max_epochs_),
        epoch_config_(std::move(other.epoch_config_)),
        pending_config_(std::move(other.pending_config_)),
        live_(std::move(other.live_)),
        live_inserts_(other.live_inserts_),
        front_stack_(std::move(other.front_stack_)),
        back_epochs_(std::move(other.back_epochs_)),
        back_agg_(std::move(other.back_agg_)),
        rotations_(other.rotations_),
        rebuild_merges_(other.rebuild_merges_),
        resizes_applied_(other.resizes_applied_),
        window_merge_hits_(other.window_merge_hits()) {}
  EpochManager& operator=(EpochManager&& other) noexcept {
    if (this == &other) return *this;
    max_epochs_ = other.max_epochs_;
    epoch_config_ = std::move(other.epoch_config_);
    pending_config_ = std::move(other.pending_config_);
    live_ = std::move(other.live_);
    live_inserts_ = other.live_inserts_;
    front_stack_ = std::move(other.front_stack_);
    back_epochs_ = std::move(other.back_epochs_);
    back_agg_ = std::move(other.back_agg_);
    rotations_ = other.rotations_;
    rebuild_merges_ = other.rebuild_merges_;
    resizes_applied_ = other.resizes_applied_;
    window_merge_hits_.store(other.window_merge_hits(),
                             std::memory_order_relaxed);
    return *this;
  }

  // ---- write path (live epoch) ----
  void Insert(uint32_t key, int64_t count = 1);
  void InsertBatch(std::span<const uint32_t> keys,
                   std::span<const int64_t> counts);
  void InsertBatch(std::span<const uint32_t> keys);  // count 1 per key

  // Seals the current epoch into the ring and opens a fresh same-seed
  // sketch; the oldest epoch expires once the window would exceed W.
  // If a resize is pending (ScheduleResize), the rotation is also the
  // geometry swap point: the sealed epoch and every retained window epoch
  // are rebuilt into the new geometry (DaVinciSketch::Resize), the suffix
  // memos are recomputed over the rebuilt epochs, and the fresh live
  // epoch opens at the new size. Outstanding CoW snapshots keep serving
  // the old-geometry state untouched.
  void Advance();

  // ---- dynamic geometry ----
  // Stages `config` to take effect at the next Advance() (the seal-by-move
  // rotation is the one point where no reader holds the live sketch).
  // Returns false — staging nothing — when the new geometry is
  // kIncompatible with the current one. A second call before the next
  // Advance replaces the staged config.
  bool ScheduleResize(const DaVinciConfig& config);
  bool resize_pending() const { return pending_config_.has_value(); }
  // Geometry swaps applied at seal boundaries so far.
  uint64_t resizes_applied() const { return resizes_applied_; }
  // The geometry every window epoch currently shares (a pending resize
  // does not show here until its Advance applies it).
  const DaVinciConfig& epoch_config() const { return epoch_config_; }

  // ---- window queries ----
  // Frequency over the whole window (sum of per-epoch estimates).
  int64_t Query(uint32_t key) const;
  // Frequency in the live epoch only.
  int64_t QueryCurrentEpoch(uint32_t key) const;
  // One merged sketch covering the window, for the remaining tasks (heavy
  // hitters, cardinality, distribution, entropy, joins). Constant merge
  // work per call via the memoized aggregates.
  DaVinciSketch MergedWindow() const;

  // Heavy changers of the newest epoch against the merged remainder of
  // the window (the paper's two-window semantics, Algorithm 4 task 3).
  std::vector<std::pair<uint32_t, int64_t>> HeavyChangers(
      int64_t delta) const;

  // ---- introspection ----
  const DaVinciSketch& live() const { return live_; }
  size_t window_epochs() const { return max_epochs_; }
  size_t sealed_epochs() const {
    return front_stack_.size() + back_epochs_.size();
  }
  size_t epochs_in_window() const { return sealed_epochs() + 1; }
  uint64_t rotations() const { return rotations_; }
  uint64_t window_merge_hits() const {
    return window_merge_hits_.load(std::memory_order_relaxed);
  }
  uint64_t window_rebuild_merges() const { return rebuild_merges_; }

  // Design bytes of the W window epochs (the memoized aggregates are
  // derived caches and not counted, matching the pre-engine accounting).
  size_t MemoryBytes() const;

  // Aborts (DAVINCI_CHECK) on a violated structural invariant: the window
  // never holds more than W epochs, every epoch and memoized aggregate
  // passes its own sketch audit, and the memo covers exactly the sealed
  // epochs.
  void CheckInvariants(InvariantMode mode) const;

  // Accumulates every window epoch's HealthSnapshot (shards counts
  // epochs, as in ConcurrentDaVinci) and fills the `epoch` section with
  // rotation/memoization/CoW telemetry.
  void CollectStats(obs::HealthSnapshot* out) const;

 private:
  struct FrontEntry {
    std::shared_ptr<const DaVinciSketch> epoch;
    // Merge of `epoch` with every newer epoch in the front segment.
    std::shared_ptr<const DaVinciSketch> agg;
  };

  // Pops the oldest epoch, flipping the back segment into the suffix
  // stack first if the stack is dry.
  void Expire();
  void Flip();
  // Merged remainder of the window excluding the live epoch; requires
  // sealed_epochs() > 0. Bumps window_merge_hits_.
  DaVinciSketch MergedSealed() const;
  // True when `epoch` is kIdentical to epoch_config_'s geometry.
  bool SharesEpochGeometry(const DaVinciSketch& epoch) const;
  // Rebuilds one retained epoch into epoch_config_'s geometry.
  std::shared_ptr<const DaVinciSketch> RebuildEpoch(
      const std::shared_ptr<const DaVinciSketch>& epoch);
  // Rebuilds every retained epoch and recomputes the two-stack memos.
  void RebuildWindow();

  size_t max_epochs_;
  DaVinciConfig epoch_config_;
  std::optional<DaVinciConfig> pending_config_;

  DaVinciSketch live_;
  uint64_t live_inserts_ = 0;  // lets MergedWindow skip merging an empty live
  // Oldest segment, top (back()) = oldest epoch in the window.
  std::vector<FrontEntry> front_stack_;
  // Newest sealed segment in seal order (front() = oldest of the segment).
  std::deque<std::shared_ptr<const DaVinciSketch>> back_epochs_;
  // Left-fold merge of back_epochs_; null iff back_epochs_ is empty.
  std::shared_ptr<DaVinciSketch> back_agg_;

  uint64_t rotations_ = 0;
  uint64_t rebuild_merges_ = 0;
  uint64_t resizes_applied_ = 0;
  // Bumped from const query paths, which may run concurrently (see the
  // class comment); relaxed is enough for a monotone telemetry tally.
  mutable std::atomic<uint64_t> window_merge_hits_{0};
};

}  // namespace davinci

#endif  // DAVINCI_CORE_EPOCH_MANAGER_H_
