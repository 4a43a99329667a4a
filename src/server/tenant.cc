#include "server/tenant.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/serialize.h"

namespace davinci::server {

namespace {

constexpr uint32_t kCheckpointMagic = 0x4B435644;    // "DVCK"
constexpr uint32_t kCheckpointTrailer = 0x44564B43;  // "KCVD"
// v1 bodies carry flat SaveShards images; v2 carries DVSZ compressed
// ones. Readers accept both — the per-shard format is sniffed by
// DaVinciSketch::Load, so the version is provenance, not a dispatch key,
// and pre-compression checkpoints stay recoverable forever. v3 (current)
// additionally carries the tenant's quota, its live byte budget, and the
// resize provenance record in the header (see docs/SERVER.md
// §Checkpoints); v1/v2 recover with those fields zeroed.
constexpr uint32_t kCheckpointVersionFlat = 1;
constexpr uint32_t kCheckpointVersionCompressed = 2;
constexpr uint32_t kCheckpointVersion = 3;

// Tenant names double as checkpoint file stems, so they are restricted to
// a filesystem-safe alphabet — no separators, no dotfiles, no traversal.
bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > kMaxNameBytes) return false;
  if (name.front() == '.') return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-' && c != '.') {
      return false;
    }
  }
  return true;
}

// fsync(2) on a file or directory opened with `flags`; false when it
// cannot be opened, synced or closed.
bool SyncPath(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return false;
  bool synced = ::fsync(fd) == 0;
  return ::close(fd) == 0 && synced;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tenant

Tenant::Tenant(std::string name, const TenantOptions& options)
    : name_(std::move(name)),
      options_(options),
      engine_(options.shards, options.total_bytes, options.seed),
      current_bytes_(options.total_bytes) {
  if (options_.window_epochs > 0) {
    // The window shares the engine's per-shard budget so a windowed tenant
    // roughly doubles (not squares) its footprint; same seed keeps the
    // window's epochs mergeable with nothing — it is a private lifecycle.
    MutexLock lock(&window_mu_);
    window_ = std::make_unique<EpochManager>(
        options_.window_epochs, options_.PerShardBytes(options_.total_bytes),
        options_.seed);
  }
}

void Tenant::Insert(uint32_t key, int64_t count) {
  engine_.Insert(key, count);
  if (windowed()) {
    MutexLock lock(&window_mu_);
    window_->Insert(key, count);
  }
}

void Tenant::InsertBatch(std::span<const uint32_t> keys,
                         std::span<const int64_t> counts) {
  engine_.InsertBatch(keys, counts);
  if (windowed()) {
    MutexLock lock(&window_mu_);
    window_->InsertBatch(keys, counts);
  }
}

uint64_t Tenant::AdvanceEpoch() {
  if (windowed()) {
    MutexLock lock(&window_mu_);
    window_->Advance();
    uint64_t epoch = window_->rotations();
    epoch_.store(epoch, std::memory_order_relaxed);
    return epoch;
  }
  return epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
}

Tenant::ResizeOutcome Tenant::Resize(uint64_t total_bytes) {
  MutexLock lock(&mu_);
  ResizeOutcome outcome = ResizeOutcome::kBadArgument;
  if (TenantOptions::BudgetInBounds(total_bytes)) {
    outcome = options_.WithinQuota(total_bytes)
                  ? ResizeOutcome::kOk
                  : ResizeOutcome::kQuotaExceeded;
  }
  DaVinciConfig config;
  uint64_t bytes_before = 0;
  if (outcome == ResizeOutcome::kOk) {
    // Same per-shard derivation as construction, at the new budget; the
    // creation seed carries over, so the relation is kResizable unless a
    // checkpoint restored the engine under a foreign seed.
    config = DaVinciConfig::FromMemory(options_.PerShardBytes(total_bytes),
                                       options_.seed);
    bytes_before = engine_.MemoryBytes();
    if (!engine_.Resize(config)) outcome = ResizeOutcome::kBadArgument;
  }
  if (outcome != ResizeOutcome::kOk) {
    ++resize_.rejected;
    return outcome;
  }
  if (windowed()) {
    // The window applies the same per-shard geometry at its next seal
    // boundary (EpochManager::Advance), mirroring its construction-time
    // budget share.
    MutexLock window_lock(&window_mu_);
    DAVINCI_CHECK(window_->ScheduleResize(config));
  }
  ++resize_.applied;
  resize_.bytes_before = bytes_before;
  resize_.bytes_after = engine_.MemoryBytes();
  resize_.last_trigger = obs::ResizeHealth::kAdmin;
  current_bytes_ = total_bytes;
  return ResizeOutcome::kOk;
}

std::vector<std::pair<uint32_t, int64_t>> Tenant::WindowHeavyChangers(
    int64_t delta) const {
  if (!windowed()) return {};
  MutexLock lock(&window_mu_);
  if (window_->sealed_epochs() == 0) return {};
  return window_->HeavyChangers(delta);
}

void Tenant::CollectStats(obs::HealthSnapshot* out) const {
  engine_.CollectStats(out);
  if (windowed()) {
    obs::HealthSnapshot window_stats;
    {
      MutexLock lock(&window_mu_);
      window_->CollectStats(&window_stats);
    }
    // The window is not a set of shards: its counters would double the
    // engine's, so only its rotation telemetry and footprint join.
    out->memory_bytes += window_stats.memory_bytes;
    out->epoch = window_stats.epoch;
  }
  MutexLock lock(&mu_);
  out->resize = resize_;
  out->merge_tree = merge_tree_;
}

std::string Tenant::Export(SketchFormat format, uint32_t* merge_height) {
  MutexLock lock(&mu_);
  std::ostringstream image;
  engine_.SaveShards(image, format);
  *merge_height = merge_tree_.height;
  return std::move(image).str();
}

bool Tenant::ImportMerge(std::span<const std::string> images,
                         std::span<const uint32_t> heights,
                         uint32_t* merge_height) {
  uint32_t max_source_height = 0;
  for (uint32_t height : heights) {
    if (height == UINT32_MAX) return false;
    max_source_height = std::max(max_source_height, height);
  }
  MutexLock lock(&mu_);
  // Every image is parsed and geometry-gated BEFORE any of them touches
  // the engine, so a bad image in the middle of the batch cannot leave a
  // half-applied fold; the mutex keeps a Resize from moving the live
  // geometry between the gate and the merge.
  std::vector<std::vector<DaVinciSketch>> staged;
  staged.reserve(images.size());
  uint64_t total_bytes = 0;
  for (const std::string& blob : images) {
    std::istringstream in(blob);
    std::vector<DaVinciSketch> shards;
    if (!engine_.ParseShardImage(in, &shards) ||
        in.peek() != std::char_traits<char>::eof()) {
      return false;
    }
    total_bytes += blob.size();
    staged.push_back(std::move(shards));
  }
  engine_.MergeShardImages(std::move(staged));
  const uint32_t new_height = max_source_height + 1;
  merge_tree_.height = std::max(merge_tree_.height, new_height);
  ++merge_tree_.import_requests;
  merge_tree_.imported_images += images.size();
  merge_tree_.imported_bytes += total_bytes;
  size_t level = std::min<size_t>(
      new_height - 1, obs::MergeTreeHealth::kMaxTrackedLevels - 1);
  std::vector<uint64_t>& per_level = merge_tree_.images_per_level;
  if (per_level.size() <= level) per_level.resize(level + 1, 0);
  per_level[level] += images.size();
  *merge_height = merge_tree_.height;
  return true;
}

void Tenant::SaveCheckpoint(std::ostream& out) {
  WritePod(out, kCheckpointMagic);
  WritePod(out, kCheckpointVersion);
  WritePod(out, static_cast<uint16_t>(name_.size()));
  out.write(name_.data(), static_cast<std::streamsize>(name_.size()));
  WritePod(out, options_.shards);
  WritePod(out, options_.total_bytes);
  WritePod(out, options_.seed);
  WritePod(out, options_.window_epochs);
  WritePod(out, options_.max_bytes);
  WritePod(out, epoch());
  MutexLock lock(&mu_);
  // v3: the live budget and the tenant's resize record, so resize history
  // reads continuously across any number of crash/recover cycles. The
  // shard image below already carries the post-resize geometry — this is
  // provenance, not a rebuild key.
  WritePod(out, current_bytes_);
  WritePod(out, resize_.applied);
  WritePod(out, resize_.rejected);
  WritePod(out, resize_.bytes_before);
  WritePod(out, resize_.bytes_after);
  WritePod(out, resize_.last_trigger);
  engine_.SaveShards(out, SketchFormat::kCompressed);
  WritePod(out, kCheckpointTrailer);
}

bool Tenant::ReadCheckpointHeader(std::istream& in, CheckpointHeader* header) {
  uint32_t magic = 0, version = 0;
  uint16_t name_len = 0;
  if (!ReadPod(in, &magic) || magic != kCheckpointMagic) return false;
  if (!ReadPod(in, &version) ||
      (version != kCheckpointVersionFlat &&
       version != kCheckpointVersionCompressed &&
       version != kCheckpointVersion)) {
    return false;
  }
  if (!ReadPod(in, &name_len) || name_len > kMaxNameBytes) return false;
  header->name.resize(name_len);
  in.read(header->name.data(), name_len);
  if (!in) return false;
  if (!ReadPod(in, &header->options.shards) ||
      !ReadPod(in, &header->options.total_bytes) ||
      !ReadPod(in, &header->options.seed) ||
      !ReadPod(in, &header->options.window_epochs)) {
    return false;
  }
  if (version >= kCheckpointVersion &&
      !ReadPod(in, &header->options.max_bytes)) {
    return false;
  }
  if (!ReadPod(in, &header->epoch)) return false;
  if (version >= kCheckpointVersion) {
    if (!ReadPod(in, &header->current_bytes) ||
        !ReadPod(in, &header->resize.applied) ||
        !ReadPod(in, &header->resize.rejected) ||
        !ReadPod(in, &header->resize.bytes_before) ||
        !ReadPod(in, &header->resize.bytes_after) ||
        !ReadPod(in, &header->resize.last_trigger)) {
      return false;
    }
  }
  return ValidTenantName(header->name) && header->options.Valid();
}

bool Tenant::RestoreCheckpointBody(std::istream& in,
                                   const CheckpointHeader& header) {
  MutexLock lock(&mu_);
  if (!engine_.RestoreShards(in)) return false;
  uint32_t trailer = 0;
  if (!ReadPod(in, &trailer) || trailer != kCheckpointTrailer) return false;
  epoch_.store(header.epoch, std::memory_order_relaxed);
  resize_ = header.resize;
  if (header.current_bytes != 0) current_bytes_ = header.current_bytes;
  return true;
}

// ---------------------------------------------------------------------------
// TenantRegistry

TenantRegistry::TenantRegistry(std::string checkpoint_dir)
    : dir_(std::move(checkpoint_dir)) {}

RegistryResult TenantRegistry::Create(const std::string& name,
                                      const TenantOptions& options,
                                      std::shared_ptr<Tenant>* out) {
  if (!ValidTenantName(name) || !options.Valid()) {
    return RegistryResult::kInvalid;
  }
  // Construct outside the lock (a big tenant allocates megabytes), then
  // publish under it.
  std::shared_ptr<Tenant> tenant = std::make_shared<Tenant>(name, options);
  {
    MutexLock lock(&mu_);
    if (tenants_.size() >= kMaxTenants) return RegistryResult::kFull;
    auto [it, inserted] = tenants_.emplace(name, tenant);
    if (!inserted) return RegistryResult::kExists;
  }
  if (out != nullptr) *out = std::move(tenant);
  return RegistryResult::kOk;
}

RegistryResult TenantRegistry::Drop(const std::string& name) {
  {
    MutexLock lock(&mu_);
    if (tenants_.erase(name) == 0) return RegistryResult::kNotFound;
    recovered_empty_.erase(name);
  }
  if (persistent()) {
    std::error_code ec;
    std::filesystem::remove(CheckpointPath(name), ec);
  }
  return RegistryResult::kOk;
}

std::shared_ptr<Tenant> TenantRegistry::Find(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

std::vector<std::string> TenantRegistry::List() const {
  std::vector<std::string> names;
  {
    MutexLock lock(&mu_);
    names.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t TenantRegistry::size() const {
  MutexLock lock(&mu_);
  return tenants_.size();
}

std::string TenantRegistry::CheckpointPath(const std::string& name) const {
  return (std::filesystem::path(dir_) / (name + ".dvck")).string();
}

bool TenantRegistry::Checkpoint(Tenant& tenant) {
  if (!persistent()) return false;
  MutexLock lock(&ckpt_mu_);
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::string path = CheckpointPath(tenant.name());
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    tenant.SaveCheckpoint(out);
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  // The image must be on disk before the rename publishes it, or a power
  // loss could leave the final name pointing at unwritten blocks.
  if (!SyncPath(tmp, O_WRONLY)) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  // rename(2) is atomic within a filesystem: readers (and a post-crash
  // recovery) see either the old image or the new one, never a torn file.
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  // The rename is durable only once the directory entry is. If that sync
  // fails, a power loss may bring back either complete image; report
  // failure so the mutation clock keeps running and the next checkpoint
  // retries.
  if (!SyncPath(dir_, O_RDONLY | O_DIRECTORY)) return false;
  tenant.ResetMutationClock();
  return true;
}

size_t TenantRegistry::CheckpointAll() {
  size_t written = 0;
  std::vector<std::shared_ptr<Tenant>> tenants;
  {
    MutexLock lock(&mu_);
    tenants.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) tenants.push_back(tenant);
  }
  for (const std::shared_ptr<Tenant>& tenant : tenants) {
    if (Checkpoint(*tenant)) ++written;
  }
  return written;
}

size_t TenantRegistry::RecoverAll() {
  if (!persistent()) return 0;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return 0;
  size_t recovered = 0;
  for (const std::filesystem::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || entry.path().extension() != ".dvck") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in) continue;
    Tenant::CheckpointHeader header;
    if (!Tenant::ReadCheckpointHeader(in, &header)) {
      // Unusable header: there is nothing trustworthy to recreate the
      // tenant from. Skip the file (and say so) rather than abort.
      std::fprintf(stderr, "tenant recovery: %s: unreadable header, skipped\n",
                   entry.path().c_str());
      continue;
    }
    std::shared_ptr<Tenant> tenant;
    if (Create(header.name, header.options, &tenant) != RegistryResult::kOk) {
      continue;  // duplicate name across files, or registry full
    }
    bool restored = tenant->RestoreCheckpointBody(in, header);
    if (!restored) {
      // Load gate rejected the body: the tenant starts empty with the
      // header's options instead of serving a corrupted sketch.
      std::fprintf(stderr,
                   "tenant recovery: %s: corrupt body, tenant '%s' starts "
                   "empty\n",
                   entry.path().c_str(), header.name.c_str());
    }
    {
      MutexLock lock(&mu_);
      recovered_empty_[header.name] = !restored;
    }
    ++recovered;
  }
  return recovered;
}

bool TenantRegistry::RecoveredEmpty(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = recovered_empty_.find(name);
  return it != recovered_empty_.end() && it->second;
}

}  // namespace davinci::server
