#ifndef DAVINCI_SERVER_TENANT_H_
#define DAVINCI_SERVER_TENANT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/concurrent_davinci.h"
#include "core/epoch_manager.h"
#include "server/protocol.h"

// Tenant lifecycle of the sketch server (docs/SERVER.md §Tenants).
//
// A tenant is one isolated measurement namespace: its own sharded
// ConcurrentDaVinci (ingest + the RCU lock-free read path every wire query
// is answered from) and — when created with window_epochs > 0 — its own
// EpochManager for windowed queries. The registry multiplexes up to
// kMaxTenants of them behind one mutex-guarded name map; handlers take a
// shared_ptr out and drop the registry lock, so a slow query or checkpoint
// on one tenant never blocks requests against the others, and dropping a
// tenant mid-query is safe (the last shared_ptr frees it).
//
// Checkpoints (docs/SERVER.md §Checkpoints) are per-tenant files written
// atomically (tmp + rename) so a crash mid-write can never destroy the
// previous good image:
//
//   DVCK v3 := magic u32 'DVCK' | version u32
//            | name (u16 len + bytes) | shards u32 | bytes u64 | seed u64
//            | window_epochs u32 | max_bytes u64 | epoch u64
//            | current_bytes u64
//            | resize: applied u64 | rejected u64 | bytes_before u64
//                    | bytes_after u64 | last_trigger u32
//            | ConcurrentDaVinci::SaveShards image
//            | trailer u32 'KCVD'
//
// v1 (flat shard images) and v2 (DVSZ-compressed, no quota/resize fields)
// remain readable; their missing fields recover as zero. The shard image
// itself carries each shard's geometry, so a tenant resized after creation
// recovers at its post-resize geometry even though the header's
// total_bytes still records the creation-time budget.
//
// Recovery re-creates the tenant from the header and restores the shard
// image through the hostile-input Load gates; a corrupted or truncated
// body yields an EMPTY tenant with the header's options (never an abort),
// and an unreadable header skips the file entirely. The window is runtime
// state and deliberately not checkpointed: a recovered tenant restarts
// its window from the recovered cumulative sketch's epoch counter.

namespace davinci::server {

struct TenantOptions {
  uint32_t shards = 4;
  uint64_t total_bytes = 1 << 20;
  uint64_t seed = 1;
  // 0 = no window: AdvanceEpoch only bumps the checkpoint clock.
  uint32_t window_epochs = 0;
  // Memory quota: the ceiling any kResizeTenant (or the initial
  // total_bytes) may grow the tenant to. 0 = unlimited. Enforced at create
  // and resize admission (StatusCode::kQuotaExceeded on the wire).
  uint64_t max_bytes = 0;

  // The byte bounds every budget, at creation or resize, must lie in.
  static bool BudgetInBounds(uint64_t bytes) {
    return bytes >= 1024 && bytes <= (uint64_t{1} << 31);
  }
  bool WithinQuota(uint64_t bytes) const {
    return max_bytes == 0 || bytes <= max_bytes;
  }
  // Each shard's (and each window epoch's) share of a `bytes` budget.
  uint64_t PerShardBytes(uint64_t bytes) const {
    return std::max<uint64_t>(8 * 1024, bytes / shards);
  }

  bool Valid() const {
    return shards >= 1 && shards <= kMaxShardsPerTenant &&
           BudgetInBounds(total_bytes) && window_epochs <= 64 &&
           WithinQuota(total_bytes);
  }
};

// A tenant owns its geometry: one mutex, `mu_`, serializes everything that
// changes the geometry (Resize, checkpoint restore) against everything
// that must see one geometry throughout (ImportMerge's parse-then-merge,
// Export, SaveCheckpoint), and guards the resize and merge-tree records.
// Ingest and queries never take it. Lock order: the registry's ckpt_mu_,
// then mu_, then the engine's shard mutexes and window_mu_.
class Tenant {
 public:
  Tenant(std::string name, const TenantOptions& options);

  const std::string& name() const { return name_; }
  const TenantOptions& options() const { return options_; }
  bool windowed() const { return options_.window_epochs > 0; }

  // Ingest: engine first (the serving path), then — for windowed tenants —
  // the same stream into the window's live epoch under the window mutex.
  void Insert(uint32_t key, int64_t count);
  void InsertBatch(std::span<const uint32_t> keys,
                   std::span<const int64_t> counts);

  // The sharded engine every wire query reads from (published views only).
  ConcurrentDaVinci& engine() { return engine_; }
  const ConcurrentDaVinci& engine() const { return engine_; }

  // Seals the current epoch (rotating the window when one exists) and
  // returns the new epoch number.
  uint64_t AdvanceEpoch() DAVINCI_EXCLUDES(window_mu_);
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  // Windowed heavy changers (newest epoch vs merged remainder); empty when
  // the tenant has no window or nothing sealed yet.
  std::vector<std::pair<uint32_t, int64_t>> WindowHeavyChangers(
      int64_t delta) const DAVINCI_EXCLUDES(window_mu_);

  // The engine's health (shards, inserts, queries and the three parts),
  // plus — for windowed tenants — the window's `epoch` section and its
  // bytes added to memory_bytes, plus the tenant's resize and merge-tree
  // records.
  void CollectStats(obs::HealthSnapshot* out) const
      DAVINCI_EXCLUDES(mu_, window_mu_);

  // ---- dynamic geometry (kResizeTenant; DESIGN.md §12) ----
  // Rebuilds the tenant onto a `total_bytes` budget: the engine resizes
  // shard-by-shard (readers stay lock-free throughout) and a windowed
  // tenant schedules the matching per-epoch geometry for its next seal
  // boundary. The seed and shard count are fixed at creation, so the new
  // geometry is always kResizable. Returns kBadArgument when `total_bytes`
  // is outside TenantOptions::BudgetInBounds, kQuotaExceeded when
  // options().max_bytes caps the tenant below the request; both count as
  // rejected in the resize record.
  enum class ResizeOutcome : uint8_t { kOk, kBadArgument, kQuotaExceeded };
  ResizeOutcome Resize(uint64_t total_bytes) DAVINCI_EXCLUDES(mu_, window_mu_);

  // Mutations since the last checkpoint (the server's periodic
  // seal-and-checkpoint trigger reads and resets this).
  uint64_t AdvanceMutationClock(uint64_t mutations) {
    return mutations_since_checkpoint_.fetch_add(
               mutations, std::memory_order_relaxed) +
           mutations;
  }
  void ResetMutationClock() {
    mutations_since_checkpoint_.store(0, std::memory_order_relaxed);
  }

  // ---- merge-tree fan-in (kExportSketch / kImportMerge) ----
  // The tenant's SaveShards image in `format`, carrying every completed
  // write, and its merge height (0 until the first import, then max over
  // imports of tallest source height + 1).
  std::string Export(SketchFormat format, uint32_t* merge_height)
      DAVINCI_EXCLUDES(mu_);
  // Folds `images` (SaveShards images whose sources sat at `heights`) into
  // the engine in request order and records the import. All or nothing:
  // returns false, touching nothing, when any height is UINT32_MAX (the
  // tenant's own height would wrap) or any image fails the engine's
  // ParseShardImage gates — including a geometry other than the live one
  // — or carries trailing bytes. On success `*merge_height` is the
  // tenant's post-import height.
  bool ImportMerge(std::span<const std::string> images,
                   std::span<const uint32_t> heights, uint32_t* merge_height)
      DAVINCI_EXCLUDES(mu_);

  // ---- persistence ----
  // Serializes the DVCK image; it reflects every write completed at call
  // time.
  void SaveCheckpoint(std::ostream& out) DAVINCI_EXCLUDES(mu_);
  // Parses a DVCK header; returns false if it is unusable (bad magic /
  // version / name / options).
  struct CheckpointHeader {
    std::string name;
    TenantOptions options;
    uint64_t epoch = 0;
    // v3 fields; zero when recovering a v1/v2 image.
    uint64_t current_bytes = 0;
    obs::ResizeHealth resize;
  };
  static bool ReadCheckpointHeader(std::istream& in, CheckpointHeader* header);
  // Restores the shard image + trailer into this tenant's engine, plus the
  // header's epoch and (v3) resize record. False (engine untouched) on
  // any validation failure.
  bool RestoreCheckpointBody(std::istream& in, const CheckpointHeader& header)
      DAVINCI_EXCLUDES(mu_);

 private:
  const std::string name_;
  const TenantOptions options_;
  ConcurrentDaVinci engine_;

  mutable Mutex window_mu_;
  // Engaged iff windowed(); EpochManager is externally synchronized, so
  // every touch happens under window_mu_.
  std::unique_ptr<EpochManager> window_ DAVINCI_GUARDED_BY(window_mu_);

  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> mutations_since_checkpoint_{0};

  mutable Mutex mu_;
  // The byte budget currently live (creation total_bytes until the first
  // successful Resize; restored from a v3 checkpoint on recovery).
  uint64_t current_bytes_ DAVINCI_GUARDED_BY(mu_);
  obs::ResizeHealth resize_ DAVINCI_GUARDED_BY(mu_);
  obs::MergeTreeHealth merge_tree_ DAVINCI_GUARDED_BY(mu_);
};

// Status of a registry mutation (mirrors the wire statuses the dispatcher
// maps them to).
enum class RegistryResult : uint8_t {
  kOk = 0,
  kExists,
  kNotFound,
  kInvalid,
  kFull,
  kIoError,
};

class TenantRegistry {
 public:
  // `checkpoint_dir` empty disables persistence entirely.
  explicit TenantRegistry(std::string checkpoint_dir);

  RegistryResult Create(const std::string& name, const TenantOptions& options,
                        std::shared_ptr<Tenant>* out = nullptr)
      DAVINCI_EXCLUDES(mu_);
  // Removes the tenant and deletes its checkpoint file (if any). In-flight
  // handlers holding the shared_ptr finish safely.
  RegistryResult Drop(const std::string& name) DAVINCI_EXCLUDES(mu_);
  std::shared_ptr<Tenant> Find(const std::string& name) const
      DAVINCI_EXCLUDES(mu_);
  std::vector<std::string> List() const DAVINCI_EXCLUDES(mu_);
  size_t size() const DAVINCI_EXCLUDES(mu_);

  // ---- persistence ----
  const std::string& checkpoint_dir() const { return dir_; }
  bool persistent() const { return !dir_.empty(); }
  // Atomically (tmp + rename) writes `tenant`'s DVCK file, fsyncing the
  // tmp file before the rename and the directory after it, so a returned
  // true survives power loss. No-op without a checkpoint dir. Serialized per registry so two triggers cannot
  // interleave their tmp files.
  bool Checkpoint(Tenant& tenant) DAVINCI_EXCLUDES(ckpt_mu_);
  // Checkpoints every current tenant; returns how many succeeded.
  size_t CheckpointAll() DAVINCI_EXCLUDES(mu_, ckpt_mu_);
  // Scans the checkpoint dir for *.dvck files and revives each tenant:
  // restored state when the body passes the Load gates, empty otherwise.
  // Returns the number of tenants created.
  size_t RecoverAll() DAVINCI_EXCLUDES(mu_);

  // True when the named tenant's last recovery fell back to an empty
  // sketch because its checkpoint body was corrupt (surfaced in logs and
  // asserted by tests/server_recovery_test.cc).
  bool RecoveredEmpty(const std::string& name) const DAVINCI_EXCLUDES(mu_);

 private:
  std::string CheckpointPath(const std::string& name) const;

  const std::string dir_;
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Tenant>> tenants_
      DAVINCI_GUARDED_BY(mu_);
  std::unordered_map<std::string, bool> recovered_empty_
      DAVINCI_GUARDED_BY(mu_);
  Mutex ckpt_mu_;
};

}  // namespace davinci::server

#endif  // DAVINCI_SERVER_TENANT_H_
