#include "core/concurrent_davinci.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/serialize.h"

namespace davinci {

ConcurrentDaVinci::ConcurrentDaVinci(size_t shards, size_t total_bytes,
                                     uint64_t seed)
    : shard_hash_(seed * 31001011 + 13),
      shards_(std::max<size_t>(1, shards)) {
  size_t per_shard = std::max<size_t>(8 * 1024, total_bytes / shards_.size());
  for (Shard& shard : shards_) {
    // No concurrent access is possible yet, but Publish's contract requires
    // the shard mutex, and an uncontended acquire costs nothing.
    MutexLock lock(&shard.mutex);
    shard.sketch = std::make_unique<DaVinciSketch>(per_shard, seed);
    Publish(shard);
  }
}

void ConcurrentDaVinci::Insert(uint32_t key, int64_t count) {
  Shard& shard = shards_[ShardOf(key)];
  MutexLock lock(&shard.mutex);
  shard.sketch->Insert(key, count);
  Publish(shard);
}

void ConcurrentDaVinci::InsertBatch(std::span<const uint32_t> keys,
                                    std::span<const int64_t> counts) {
  // DaVinciSketch::InsertBatch only DCHECKs this; without it a short
  // `counts` is read out of bounds in Release builds.
  DAVINCI_CHECK_EQ(keys.size(), counts.size());
  // Group the whole call by shard, then drain every non-empty group under
  // a single lock acquisition and publish it once.
  std::vector<std::vector<uint32_t>> shard_keys(shards_.size());
  std::vector<std::vector<int64_t>> shard_counts(shards_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    size_t s = ShardOf(keys[i]);
    shard_keys[s].push_back(keys[i]);
    shard_counts[s].push_back(counts[i]);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_keys[s].empty()) continue;
    MutexLock lock(&shards_[s].mutex);
    shards_[s].sketch->InsertBatch(shard_keys[s], shard_counts[s]);
    Publish(shards_[s]);
  }
}

void ConcurrentDaVinci::InsertBatch(std::span<const uint32_t> keys) {
  std::vector<int64_t> ones(keys.size(), 1);
  InsertBatch(keys, ones);
}

int64_t ConcurrentDaVinci::Query(uint32_t key) const {
  const Shard& shard = shards_[ShardOf(key)];
  shard.read_queries.Inc();
  // One acquire load pins the shard's current immutable view; no lock.
  std::shared_ptr<const SketchView> view =
      shard.view.load(std::memory_order_acquire);
  return view->Query(key);
}

std::vector<int64_t> ConcurrentDaVinci::QueryBatch(
    std::span<const uint32_t> keys) const {
  std::vector<int64_t> out(keys.size());
  // Groups each block by shard, with a parallel position vector so the
  // per-shard answers scatter back to the caller's order. Blocks bound the
  // scratch memory.
  constexpr size_t kBlock = 16 * DaVinciSketch::kInsertBlock;
  std::vector<std::vector<uint32_t>> shard_keys(shards_.size());
  std::vector<std::vector<size_t>> shard_pos(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    shard_keys[s].reserve(kBlock);
    shard_pos[s].reserve(kBlock);
  }
  std::vector<int64_t> answers;
  answers.reserve(kBlock);
  for (size_t start = 0; start < keys.size(); start += kBlock) {
    size_t len = std::min(kBlock, keys.size() - start);
    for (size_t i = 0; i < len; ++i) {
      size_t s = ShardOf(keys[start + i]);
      shard_keys[s].push_back(keys[start + i]);
      shard_pos[s].push_back(start + i);
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shard_keys[s].empty()) continue;
      shards_[s].read_queries.Inc(shard_keys[s].size());
      std::shared_ptr<const SketchView> view =
          shards_[s].view.load(std::memory_order_acquire);
      answers = view->QueryBatch(shard_keys[s]);
      for (size_t i = 0; i < answers.size(); ++i) {
        out[shard_pos[s][i]] = answers[i];
      }
      shard_keys[s].clear();
      shard_pos[s].clear();
    }
  }
  return out;
}

double ConcurrentDaVinci::EstimateCardinality() const {
  // Shards partition the key space, so cardinalities add.
  double total = 0;
  for (const Shard& shard : shards_) {
    std::shared_ptr<const SketchView> view =
        shard.view.load(std::memory_order_acquire);
    total += view->EstimateCardinality();
  }
  return total;
}

std::vector<std::pair<uint32_t, int64_t>> ConcurrentDaVinci::HeavyHitters(
    int64_t threshold) const {
  // Shards partition the key space, so each flow lives in exactly one
  // shard and the per-shard lists concatenate without dedup.
  std::vector<std::pair<uint32_t, int64_t>> out;
  for (const Shard& shard : shards_) {
    shard.read_queries.Inc();
    std::shared_ptr<const SketchView> view =
        shard.view.load(std::memory_order_acquire);
    std::vector<std::pair<uint32_t, int64_t>> found =
        view->HeavyHitters(threshold);
    out.insert(out.end(), found.begin(), found.end());
  }
  return out;
}

std::vector<std::shared_ptr<const SketchView>> ConcurrentDaVinci::SnapshotAll()
    const {
  std::vector<std::shared_ptr<const SketchView>> views;
  views.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    views.push_back(shard.view.load(std::memory_order_acquire));
  }
  return views;
}

std::shared_ptr<const DaVinciSketch> ConcurrentDaVinci::SharedSnapshot()
    const {
  std::vector<std::shared_ptr<const SketchView>> views = SnapshotAll();
  std::shared_ptr<const SnapshotMemo> memo =
      snapshot_memo_.load(std::memory_order_acquire);
  if (memo != nullptr &&
      std::equal(views.begin(), views.end(), memo->views.begin(),
                 memo->views.end(),
                 [](const std::shared_ptr<const SketchView>& view,
                    const std::weak_ptr<const SketchView>& key) {
                   return key.lock() == view;
                 })) {
    snapshot_reuse_hits_.fetch_add(1, std::memory_order_relaxed);
    return memo->merged;
  }
  // The copy shares the first view's CoW buffers; Merge then clones what
  // it mutates. The views pin their state, so no locks are needed.
  DaVinciSketch merged = views[0]->sketch();
  for (size_t s = 1; s < views.size(); ++s) {
    const DaVinciSketch& shard_sketch = views[s]->sketch();
    if (DaVinciConfig::GeometryCompatible(merged.config(),
                                          shard_sketch.config()) !=
        DaVinciConfig::GeometryRelation::kIdentical) {
      // Mid-Resize transient: this shard still publishes the other
      // geometry. Rebuild a copy into the merge geometry (same seed by
      // construction, so this cannot fail) instead of letting Merge abort.
      DaVinciSketch rebuilt = shard_sketch;
      DAVINCI_CHECK(rebuilt.Resize(merged.config()));
      merged.Merge(rebuilt);
    } else {
      merged.Merge(shard_sketch);
    }
  }
  snapshot_merges_.fetch_add(1, std::memory_order_relaxed);
  auto shared = std::make_shared<const DaVinciSketch>(std::move(merged));
  snapshot_memo_.store(
      std::make_shared<const SnapshotMemo>(SnapshotMemo{
          std::vector<std::weak_ptr<const SketchView>>(views.begin(),
                                                       views.end()),
          shared}),
      std::memory_order_release);
  return shared;
}

DaVinciSketch ConcurrentDaVinci::Snapshot() const { return *SharedSnapshot(); }

DaVinciConfig ConcurrentDaVinci::ShardConfig() const {
  return shards_[0].view.load(std::memory_order_acquire)->sketch().config();
}

bool ConcurrentDaVinci::Resize(const DaVinciConfig& per_shard_config) {
  if (DaVinciConfig::GeometryCompatible(ShardConfig(), per_shard_config) ==
      DaVinciConfig::GeometryRelation::kIncompatible) {
    return false;
  }
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mutex);
    DAVINCI_CHECK(shard.sketch->Resize(per_shard_config));
    Publish(shard);
  }
  return true;
}

void ConcurrentDaVinci::CollectStats(obs::HealthSnapshot* out) const {
  *out = obs::HealthSnapshot{};
  out->shards = 0;  // Accumulate sums the per-shard `shards` of 1 each
  for (const Shard& shard : shards_) {
    obs::HealthSnapshot one;
    {
      MutexLock lock(&shard.mutex);
      shard.sketch->CollectStats(&one);
    }
    // The lock-free read paths never touch the live sketch's counters;
    // fold in the shard's read-side tally.
    one.queries += shard.read_queries.value();
    out->Accumulate(one);
  }
  out->snapshot_merges = snapshot_merges();
  out->snapshot_reuse_hits = snapshot_reuse_hits();
}

void ConcurrentDaVinci::SaveShards(std::ostream& out,
                                   SketchFormat format) const {
  std::vector<std::shared_ptr<const SketchView>> views = SnapshotAll();
  WritePod(out, static_cast<uint32_t>(views.size()));
  for (const std::shared_ptr<const SketchView>& view : views) {
    view->sketch().Save(out, format);
  }
}

bool ConcurrentDaVinci::ParseShardImage(std::istream& in,
                                        std::vector<DaVinciSketch>* staged,
                                        bool match_live_geometry) const {
  uint32_t count = 0;
  if (!ReadPod(in, &count)) return false;
  if (count != shards_.size()) return false;
  staged->clear();
  staged->reserve(count);
  // The live geometry is read off shard 0's published view: views are
  // never null after construction and one atomic load needs no lock.
  DaVinciConfig live_config;
  if (match_live_geometry) {
    live_config = shards_[0]
                      .view.load(std::memory_order_acquire)
                      ->sketch()
                      .config();
  }
  for (uint32_t s = 0; s < count; ++s) {
    DaVinciSketch loaded(8 * 1024, 0);  // placeholder, overwritten by Load
    if (!DaVinciSketch::Load(in, &loaded)) return false;
    if (match_live_geometry &&
        DaVinciConfig::GeometryCompatible(loaded.config(), live_config) !=
            DaVinciConfig::GeometryRelation::kIdentical) {
      return false;  // Merge into the live shard would abort
    }
    if (!staged->empty() &&
        DaVinciConfig::GeometryCompatible(staged->front().config(),
                                          loaded.config()) !=
            DaVinciConfig::GeometryRelation::kIdentical) {
      return false;  // cross-shard merge (Snapshot) would abort
    }
    // Routing gate: every frequent-part resident must hash back to its
    // shard, or Snapshot() double-counts and Query() consults the wrong
    // shard. (EF/IFP state is not key-addressable, so FP residency is the
    // strongest check a sketch image supports.)
    for (const FrequentPart::Entry& entry : loaded.frequent_part().Entries()) {
      if (ShardOf(entry.key) != s) return false;
    }
    staged->push_back(std::move(loaded));
  }
  return true;
}

void ConcurrentDaVinci::MergeShardImages(
    std::vector<std::vector<DaVinciSketch>>&& images) {
  for (const std::vector<DaVinciSketch>& image : images) {
    DAVINCI_CHECK_EQ(image.size(), shards_.size());
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    MutexLock lock(&shard.mutex);
    // Left fold in request order: bit-identical to merging the source
    // engines one by one (wire_format_test pins this equivalence).
    for (std::vector<DaVinciSketch>& image : images) {
      shard.sketch->Merge(image[s]);
    }
    Publish(shard);
  }
}

bool ConcurrentDaVinci::RestoreShards(std::istream& in) {
  // Stage every shard image before touching live state, so a failure at
  // shard k never leaves shards [0, k) restored and the rest stale. No
  // live-geometry gate: a restore may legitimately swap in a differently
  // sized sketch (recovery rebuilds the tenant from the image's own
  // config).
  std::vector<DaVinciSketch> staged;
  if (!ParseShardImage(in, &staged, /*match_live_geometry=*/false)) {
    return false;
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    MutexLock lock(&shard.mutex);
    *shard.sketch = std::move(staged[s]);
    Publish(shard);
  }
  return true;
}

void ConcurrentDaVinci::Merge(const ConcurrentDaVinci& other) {
  DAVINCI_CHECK_MSG(this != &other, "self-merge is not supported");
  DAVINCI_CHECK_EQ(shards_.size(), other.shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    MutexLockPair lock(&shards_[s].mutex, &other.shards_[s].mutex);
    shards_[s].sketch->Merge(*other.shards_[s].sketch);
    Publish(shards_[s]);
  }
}

void ConcurrentDaVinci::CheckInvariants(InvariantMode mode) const {
  DAVINCI_CHECK(!shards_.empty());
  // Copy the reference geometry out under shard 0's lock (the annotation
  // pass flagged the old code, which read shard 0's sketch unlocked while
  // holding only the loop shard's mutex).
  DaVinciConfig reference;
  {
    MutexLock lock(&shards_[0].mutex);
    reference = shards_[0].sketch->config();
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    MutexLock lock(&shards_[s].mutex);
    DAVINCI_CHECK_MSG(
        shards_[s].view.load(std::memory_order_acquire) != nullptr,
        "shard " + std::to_string(s) + " has no published view");
    const DaVinciSketch& sketch = *shards_[s].sketch;
    DAVINCI_CHECK_MSG(
        DaVinciConfig::GeometryCompatible(sketch.config(), reference) ==
            DaVinciConfig::GeometryRelation::kIdentical,
        "shard " + std::to_string(s) + " geometry differs from shard 0's");
    sketch.CheckInvariants(mode);
    // Shard-routing conservation: a key resident in shard s's frequent
    // part must hash to s, or Snapshot would double-count it and Query
    // would consult the wrong shard.
    for (const FrequentPart::Entry& entry :
         sketch.frequent_part().Entries()) {
      DAVINCI_CHECK_MSG(ShardOf(entry.key) == s,
                        "key " + std::to_string(entry.key) +
                            " resident in foreign shard " +
                            std::to_string(s));
    }
  }
}

size_t ConcurrentDaVinci::MemoryBytes() const {
  size_t bytes = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mutex);
    bytes += shard.sketch->MemoryBytes();
  }
  return bytes;
}

}  // namespace davinci
