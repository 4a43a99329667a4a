#include "core/epoch_manager.h"

#include <algorithm>

#include "obs/stats.h"

namespace davinci {

EpochManager::EpochManager(size_t window_epochs, size_t bytes_per_epoch,
                           uint64_t seed)
    : EpochManager(window_epochs,
                   DaVinciConfig::FromMemory(bytes_per_epoch, seed)) {}

EpochManager::EpochManager(size_t window_epochs, const DaVinciConfig& config)
    : max_epochs_(std::max<size_t>(1, window_epochs)),
      epoch_config_(config),
      live_(epoch_config_) {}

void EpochManager::Insert(uint32_t key, int64_t count) {
  ++live_inserts_;
  live_.Insert(key, count);
}

void EpochManager::InsertBatch(std::span<const uint32_t> keys,
                               std::span<const int64_t> counts) {
  live_inserts_ += keys.size();
  live_.InsertBatch(keys, counts);
}

void EpochManager::InsertBatch(std::span<const uint32_t> keys) {
  live_inserts_ += keys.size();
  live_.InsertBatch(keys);
}

bool EpochManager::ScheduleResize(const DaVinciConfig& config) {
  if (DaVinciConfig::GeometryCompatible(epoch_config_, config) ==
      DaVinciConfig::GeometryRelation::kIncompatible) {
    return false;
  }
  pending_config_ = config;
  return true;
}

bool EpochManager::SharesEpochGeometry(const DaVinciSketch& epoch) const {
  return DaVinciConfig::GeometryCompatible(epoch.config(), epoch_config_) ==
         DaVinciConfig::GeometryRelation::kIdentical;
}

std::shared_ptr<const DaVinciSketch> EpochManager::RebuildEpoch(
    const std::shared_ptr<const DaVinciSketch>& epoch) {
  if (SharesEpochGeometry(*epoch)) return epoch;
  auto rebuilt = std::make_shared<DaVinciSketch>(*epoch);
  DAVINCI_CHECK(rebuilt->Resize(epoch_config_));
  return rebuilt;
}

void EpochManager::RebuildWindow() {
  // Rebuild every retained epoch into the new geometry, then recompute
  // the two memo structures over the rebuilt epochs so the suffix/fold
  // relationships Flip() and Advance() maintain keep holding exactly.
  // front_stack_[0] is the newest entry of the front segment; entry i's
  // aggregate extends the suffix memo at i−1 (Flip's construction).
  for (size_t i = 0; i < front_stack_.size(); ++i) {
    front_stack_[i].epoch = RebuildEpoch(front_stack_[i].epoch);
    if (i == 0) {
      front_stack_[i].agg = front_stack_[i].epoch;
    } else {
      auto agg = std::make_shared<DaVinciSketch>(*front_stack_[i].epoch);
      agg->Merge(*front_stack_[i - 1].agg);
      ++rebuild_merges_;
      front_stack_[i].agg = std::move(agg);
    }
  }
  for (auto& epoch : back_epochs_) epoch = RebuildEpoch(epoch);
  if (!back_epochs_.empty()) {
    back_agg_ = std::make_shared<DaVinciSketch>(*back_epochs_.front());
    for (size_t i = 1; i < back_epochs_.size(); ++i) {
      back_agg_->Merge(*back_epochs_[i]);
      ++rebuild_merges_;
    }
  }
}

void EpochManager::Advance() {
  ++rotations_;
  // Sealing is a move: the epoch's CoW buffers change owner, no counter
  // state is copied. The fresh live sketch reuses the same seed so the
  // window stays mergeable.
  auto sealed = std::make_shared<const DaVinciSketch>(std::move(live_));
  if (pending_config_.has_value()) {
    // The seal boundary is the geometry swap point: adopt the staged
    // config, rebuild the just-sealed epoch and the retained window, and
    // open the fresh live epoch at the new size. Snapshots taken before
    // this line keep their old-geometry CoW state.
    epoch_config_ = *pending_config_;
    pending_config_.reset();
    ++resizes_applied_;
    sealed = RebuildEpoch(sealed);
    RebuildWindow();
  }
  live_ = DaVinciSketch(epoch_config_);
  live_inserts_ = 0;

  back_epochs_.push_back(sealed);
  if (back_agg_ == nullptr) {
    // Shares the sealed epoch's buffers until the accumulator next merges.
    back_agg_ = std::make_shared<DaVinciSketch>(*sealed);
  } else {
    back_agg_->Merge(*sealed);
    ++rebuild_merges_;
  }

  while (sealed_epochs() + 1 > max_epochs_) {
    Expire();
  }
}

void EpochManager::Expire() {
  if (front_stack_.empty()) Flip();
  front_stack_.pop_back();
}

void EpochManager::Flip() {
  // Rebuild the suffix memo from the back segment, newest epoch first so
  // each pushed entry's aggregate extends the (newer) suffix below it.
  // One Merge per epoch — amortized O(1) per Advance since every epoch is
  // flipped at most once.
  for (size_t i = back_epochs_.size(); i-- > 0;) {
    FrontEntry entry;
    entry.epoch = back_epochs_[i];
    if (front_stack_.empty()) {
      entry.agg = entry.epoch;  // suffix of one — the epoch itself
    } else {
      auto agg = std::make_shared<DaVinciSketch>(*entry.epoch);
      agg->Merge(*front_stack_.back().agg);
      ++rebuild_merges_;
      entry.agg = std::move(agg);
    }
    front_stack_.push_back(std::move(entry));
  }
  back_epochs_.clear();
  back_agg_.reset();
}

int64_t EpochManager::Query(uint32_t key) const {
  int64_t total = live_.Query(key);
  for (const FrontEntry& entry : front_stack_) {
    total += entry.epoch->Query(key);
  }
  for (const std::shared_ptr<const DaVinciSketch>& epoch : back_epochs_) {
    total += epoch->Query(key);
  }
  return total;
}

int64_t EpochManager::QueryCurrentEpoch(uint32_t key) const {
  return live_.Query(key);
}

DaVinciSketch EpochManager::MergedSealed() const {
  DAVINCI_DCHECK(sealed_epochs() > 0);
  // Every sealed epoch is served from a memoized aggregate: the front
  // suffix top already covers the whole front segment, the back
  // accumulator the whole back segment.
  window_merge_hits_.fetch_add(sealed_epochs(), std::memory_order_relaxed);
  if (!front_stack_.empty()) {
    DaVinciSketch merged = *front_stack_.back().agg;
    if (back_agg_ != nullptr) merged.Merge(*back_agg_);
    return merged;
  }
  return *back_agg_;
}

DaVinciSketch EpochManager::MergedWindow() const {
  if (sealed_epochs() == 0) return live_;
  DaVinciSketch merged = MergedSealed();
  // Skipping an untouched live epoch keeps the no-slide window bit-equal
  // to the offline left-fold of the sealed epochs (FP merge order is not
  // bit-associative, so gratuitous merges would perturb the digest).
  if (live_inserts_ > 0) merged.Merge(live_);
  return merged;
}

std::vector<std::pair<uint32_t, int64_t>> EpochManager::HeavyChangers(
    int64_t delta) const {
  if (sealed_epochs() == 0) {
    // Single-epoch window: nothing to compare against.
    return {};
  }
  // Paper two-window semantics: newest epoch vs the merged remainder of
  // the window.
  DaVinciSketch remainder = MergedSealed();
  return live_.HeavyChangers(remainder, delta);
}

size_t EpochManager::MemoryBytes() const {
  size_t bytes = live_.MemoryBytes();
  for (const FrontEntry& entry : front_stack_) {
    bytes += entry.epoch->MemoryBytes();
  }
  for (const std::shared_ptr<const DaVinciSketch>& epoch : back_epochs_) {
    bytes += epoch->MemoryBytes();
  }
  return bytes;
}

void EpochManager::CheckInvariants(InvariantMode mode) const {
  DAVINCI_CHECK_LE(epochs_in_window(), max_epochs_);
  DAVINCI_CHECK_EQ(back_epochs_.empty(), back_agg_ == nullptr);
  // Geometry uniformity: a resize rebuilds every retained epoch eagerly,
  // so the whole window always shares epoch_config_'s geometry.
  DAVINCI_CHECK(SharesEpochGeometry(live_));
  live_.CheckInvariants(mode);
  for (const FrontEntry& entry : front_stack_) {
    DAVINCI_CHECK(entry.epoch != nullptr);
    DAVINCI_CHECK(entry.agg != nullptr);
    DAVINCI_CHECK(SharesEpochGeometry(*entry.epoch));
    entry.epoch->CheckInvariants(mode);
    entry.agg->CheckInvariants(mode);
  }
  for (const std::shared_ptr<const DaVinciSketch>& epoch : back_epochs_) {
    DAVINCI_CHECK(epoch != nullptr);
    DAVINCI_CHECK(SharesEpochGeometry(*epoch));
    epoch->CheckInvariants(mode);
  }
  if (back_agg_ != nullptr) back_agg_->CheckInvariants(mode);
}

void EpochManager::CollectStats(obs::HealthSnapshot* out) const {
  *out = obs::HealthSnapshot{};
  out->shards = 0;  // Accumulate sums the per-epoch `shards` of 1 each
  auto fold = [out](const DaVinciSketch& sketch) {
    obs::HealthSnapshot one;
    sketch.CollectStats(&one);
    out->Accumulate(one);
  };
  fold(live_);
  for (const FrontEntry& entry : front_stack_) fold(*entry.epoch);
  for (const std::shared_ptr<const DaVinciSketch>& epoch : back_epochs_) {
    fold(*epoch);
  }
  out->epoch.window_epochs = max_epochs_;
  out->epoch.epochs_in_window = epochs_in_window();
  out->epoch.rotations = rotations_;
  out->epoch.window_merge_hits = window_merge_hits();
  out->epoch.window_rebuild_merges = rebuild_merges_;
  out->epoch.cow_clones = obs::CowTally::Clones();
  out->epoch.cow_clone_bytes = obs::CowTally::CloneBytes();
}

}  // namespace davinci
