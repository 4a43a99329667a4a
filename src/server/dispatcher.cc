#include "server/dispatcher.h"

#include <map>
#include <optional>
#include <vector>

#include "core/davinci_sketch.h"
#include "obs/health.h"

namespace davinci::server {

namespace {

StatusCode ToStatus(RegistryResult result) {
  switch (result) {
    case RegistryResult::kOk: return StatusCode::kOk;
    case RegistryResult::kExists: return StatusCode::kTenantExists;
    case RegistryResult::kNotFound: return StatusCode::kNoSuchTenant;
    case RegistryResult::kInvalid: return StatusCode::kBadArgument;
    case RegistryResult::kFull: return StatusCode::kTooLarge;
    case RegistryResult::kIoError: return StatusCode::kInternal;
  }
  return StatusCode::kInternal;
}

}  // namespace

RequestDispatcher::RequestDispatcher(TenantRegistry* registry,
                                     DispatcherOptions options)
    : registry_(registry), options_(options) {}

std::string RequestDispatcher::Handle(std::span<const uint8_t> body) {
  WireReader reader(body);
  uint8_t version = 0;
  uint8_t opcode = 0;
  if (!reader.U8(&version) || !reader.U8(&opcode)) {
    return StatusBody(StatusCode::kMalformed);
  }
  if (version != kProtocolVersion) {
    return StatusBody(StatusCode::kBadVersion);
  }
  return Dispatch(static_cast<Op>(opcode), reader);
}

std::string RequestDispatcher::Dispatch(Op op, WireReader& reader) {
  switch (op) {
    case Op::kPing:
      return reader.Done() ? StatusBody(StatusCode::kOk)
                           : StatusBody(StatusCode::kMalformed);
    case Op::kCreateTenant: return CreateTenant(reader);
    case Op::kDropTenant: return DropTenant(reader);
    case Op::kListTenants: return ListTenants(reader);
    case Op::kAdvanceEpoch: return AdvanceEpoch(reader);
    case Op::kCheckpoint: return Checkpoint(reader);
    case Op::kHealth: return Health(reader);
    case Op::kFlushViews: return FlushViews(reader);
    case Op::kInsert: return Insert(reader);
    case Op::kInsertBatch: return InsertBatch(reader);
    case Op::kQuery: return Query(reader);
    case Op::kQueryBatch: return QueryBatch(reader);
    case Op::kHeavyHitters: return HeavyHitters(reader);
    case Op::kHeavyChangers: return HeavyChangers(reader);
    case Op::kCardinality: return Cardinality(reader);
    case Op::kDistribution: return Distribution(reader);
    case Op::kEntropy: return Entropy(reader);
    case Op::kUnionCardinality: return UnionCardinality(reader);
    case Op::kDifferenceQuery: return DifferenceQuery(reader);
    case Op::kInnerProduct: return InnerProduct(reader);
    case Op::kWindowHeavyChangers: return WindowHeavyChangers(reader);
    case Op::kExportSketch: return ExportSketch(reader);
    case Op::kImportMerge: return ImportMerge(reader);
    case Op::kResizeTenant: return ResizeTenant(reader);
  }
  return StatusBody(StatusCode::kUnknownOp);
}

void RequestDispatcher::MaybeCheckpoint(const std::shared_ptr<Tenant>& tenant,
                                        uint64_t mutations) {
  if (options_.checkpoint_every == 0 || !registry_->persistent()) return;
  if (tenant->AdvanceMutationClock(mutations) >= options_.checkpoint_every) {
    // Seal boundary first, so the checkpointed image is epoch-aligned;
    // Checkpoint() resets the mutation clock on success.
    tenant->AdvanceEpoch();
    registry_->Checkpoint(*tenant);
  }
}

// ---------------------------------------------------------------------------
// Admin / lifecycle.

std::string RequestDispatcher::CreateTenant(WireReader& reader) {
  std::string name;
  TenantOptions options;
  if (!reader.Str(&name) || !reader.U32(&options.shards) ||
      !reader.U64(&options.total_bytes) || !reader.U64(&options.seed) ||
      !reader.U32(&options.window_epochs) || !reader.U64(&options.max_bytes) ||
      !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  // Quota admission gets its own status so a client can tell "you asked
  // for more than your ceiling" from a structurally invalid request
  // (registry Create would fold both into kBadArgument via Valid()).
  if (!options.WithinQuota(options.total_bytes)) {
    return StatusBody(StatusCode::kQuotaExceeded);
  }
  return StatusBody(ToStatus(registry_->Create(name, options)));
}

std::string RequestDispatcher::DropTenant(WireReader& reader) {
  std::string name;
  if (!reader.Str(&name) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  return StatusBody(ToStatus(registry_->Drop(name)));
}

std::string RequestDispatcher::ListTenants(WireReader& reader) {
  if (!reader.Done()) return StatusBody(StatusCode::kMalformed);
  std::vector<std::string> names = registry_->List();
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) writer.Str(name);
  return writer.Take();
}

std::string RequestDispatcher::AdvanceEpoch(WireReader& reader) {
  std::string name;
  if (!reader.Str(&name) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  uint64_t epoch = tenant->AdvanceEpoch();
  // Epoch seals are the checkpoint boundary: a persistent server durably
  // captures the sealed state right here.
  if (registry_->persistent()) registry_->Checkpoint(*tenant);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.U64(epoch);
  return writer.Take();
}

std::string RequestDispatcher::Checkpoint(WireReader& reader) {
  std::string name;
  if (!reader.Str(&name) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  bool written = registry_->Checkpoint(*tenant);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.U8(written ? 1 : 0);
  return writer.Take();
}

std::string RequestDispatcher::ResizeTenant(WireReader& reader) {
  std::string name;
  uint64_t total_bytes = 0;
  if (!reader.Str(&name) || !reader.U64(&total_bytes) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  switch (tenant->Resize(total_bytes)) {
    case Tenant::ResizeOutcome::kBadArgument:
      return StatusBody(StatusCode::kBadArgument);
    case Tenant::ResizeOutcome::kQuotaExceeded:
      return StatusBody(StatusCode::kQuotaExceeded);
    case Tenant::ResizeOutcome::kOk:
      break;
  }
  // A resize is durable state: on a persistent server the new geometry
  // must survive a crash even if no further ingest arrives, so checkpoint
  // at the same seal boundary the periodic trigger uses.
  if (registry_->persistent()) {
    tenant->AdvanceEpoch();
    registry_->Checkpoint(*tenant);
  }
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.U64(tenant->engine().MemoryBytes());
  return writer.Take();
}

std::string RequestDispatcher::Health(WireReader& reader) {
  std::string name;
  if (!reader.Str(&name) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  obs::HealthSnapshot stats;
  tenant->CollectStats(&stats);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.U64(stats.shards);
  writer.U64(stats.memory_bytes);
  writer.U64(stats.inserts);
  writer.U64(stats.queries);
  writer.U64(tenant->epoch());
  writer.U8(tenant->windowed() ? 1 : 0);
  writer.U32(stats.merge_tree.height);
  writer.U64(stats.resize.applied);
  writer.U64(stats.resize.rejected);
  writer.U64(stats.resize.bytes_before);
  writer.U64(stats.resize.bytes_after);
  writer.U32(stats.resize.last_trigger);
  return writer.Take();
}

// Every write publishes before its reply, so there is nothing to flush;
// the opcode is kept so existing clients still get kOk / kNoSuchTenant.
std::string RequestDispatcher::FlushViews(WireReader& reader) {
  std::string name;
  if (!reader.Str(&name) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  if (!registry_->Find(name)) return StatusBody(StatusCode::kNoSuchTenant);
  return StatusBody(StatusCode::kOk);
}

// ---------------------------------------------------------------------------
// Merge-tree fan-in.

std::string RequestDispatcher::ExportSketch(WireReader& reader) {
  std::string name;
  uint8_t format = 0;
  if (!reader.Str(&name) || !reader.U8(&format) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  if (format > static_cast<uint8_t>(SketchFormat::kCompressed)) {
    return StatusBody(StatusCode::kBadArgument);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  uint32_t merge_height = 0;
  std::string bytes =
      tenant->Export(static_cast<SketchFormat>(format), &merge_height);
  // status + height + blob length prefix must still frame; a tenant too big
  // for one flat frame can usually still export compressed.
  if (bytes.size() + 16 > kMaxFrameBytes) {
    return StatusBody(StatusCode::kTooLarge);
  }
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.U32(merge_height);
  writer.Blob(bytes);
  return writer.Take();
}

std::string RequestDispatcher::ImportMerge(WireReader& reader) {
  std::string name;
  uint32_t n = 0;
  if (!reader.Str(&name) || !reader.U32(&n)) {
    return StatusBody(StatusCode::kMalformed);
  }
  if (n == 0 || n > kMaxImportImages) {
    return StatusBody(StatusCode::kBadArgument);
  }
  std::vector<uint32_t> heights(n);
  std::vector<std::string> blobs(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!reader.U32(&heights[i]) || !reader.Blob(&blobs[i])) {
      return StatusBody(StatusCode::kMalformed);
    }
  }
  if (!reader.Done()) return StatusBody(StatusCode::kMalformed);
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  uint32_t merge_height = 0;
  if (!tenant->ImportMerge(blobs, heights, &merge_height)) {
    return StatusBody(StatusCode::kBadArgument);
  }
  MaybeCheckpoint(tenant, n);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.U32(merge_height);
  return writer.Take();
}

// ---------------------------------------------------------------------------
// Ingest.

std::string RequestDispatcher::Insert(WireReader& reader) {
  std::string name;
  uint32_t key = 0;
  int64_t count = 0;
  if (!reader.Str(&name) || !reader.U32(&key) || !reader.I64(&count) ||
      !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  tenant->Insert(key, count);
  MaybeCheckpoint(tenant, 1);
  return StatusBody(StatusCode::kOk);
}

std::string RequestDispatcher::InsertBatch(WireReader& reader) {
  std::string name;
  std::vector<uint32_t> keys;
  std::vector<int64_t> counts;
  if (!reader.Str(&name) || !reader.Keys(&keys) || !reader.Counts(&counts) ||
      !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  // Counts must pair up one-to-one; an empty vector means "1 per key".
  if (!counts.empty() && counts.size() != keys.size()) {
    return StatusBody(StatusCode::kBadArgument);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  if (counts.empty()) counts.assign(keys.size(), 1);
  tenant->InsertBatch(keys, counts);
  MaybeCheckpoint(tenant, keys.size());
  return StatusBody(StatusCode::kOk);
}

// ---------------------------------------------------------------------------
// Single-tenant queries — all answered from published views (the engine's
// lock-free read paths or SharedSnapshot()); no writer lock is ever taken
// here.

std::string RequestDispatcher::Query(WireReader& reader) {
  std::string name;
  uint32_t key = 0;
  if (!reader.Str(&name) || !reader.U32(&key) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.I64(tenant->engine().Query(key));
  return writer.Take();
}

std::string RequestDispatcher::QueryBatch(WireReader& reader) {
  std::string name;
  std::vector<uint32_t> keys;
  if (!reader.Str(&name) || !reader.Keys(&keys) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  std::vector<int64_t> answers = tenant->engine().QueryBatch(keys);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.Counts(answers);
  return writer.Take();
}

std::string RequestDispatcher::HeavyHitters(WireReader& reader) {
  std::string name;
  int64_t threshold = 0;
  if (!reader.Str(&name) || !reader.I64(&threshold) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.Pairs(tenant->engine().HeavyHitters(threshold));
  return writer.Take();
}

std::string RequestDispatcher::Cardinality(WireReader& reader) {
  std::string name;
  if (!reader.Str(&name) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.F64(tenant->engine().EstimateCardinality());
  return writer.Take();
}

std::string RequestDispatcher::Distribution(WireReader& reader) {
  std::string name;
  if (!reader.Str(&name) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  std::map<int64_t, int64_t> dist =
      tenant->engine().SharedSnapshot()->Distribution();
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.U32(static_cast<uint32_t>(dist.size()));
  for (const auto& [size, flows] : dist) {
    writer.I64(size);
    writer.I64(flows);
  }
  return writer.Take();
}

std::string RequestDispatcher::Entropy(WireReader& reader) {
  std::string name;
  if (!reader.Str(&name) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.F64(tenant->engine().SharedSnapshot()->EstimateEntropy());
  return writer.Take();
}

std::string RequestDispatcher::WindowHeavyChangers(WireReader& reader) {
  std::string name;
  int64_t delta = 0;
  if (!reader.Str(&name) || !reader.I64(&delta) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (!tenant) return StatusBody(StatusCode::kNoSuchTenant);
  if (!tenant->windowed()) return StatusBody(StatusCode::kBadArgument);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.Pairs(tenant->WindowHeavyChangers(delta));
  return writer.Take();
}

// ---------------------------------------------------------------------------
// Cross-tenant queries. The core's Merge/Subtract/HeavyChangers/
// InnerProduct DAVINCI_CHECK-abort on mismatched geometry, so the gate
// below turns a hostile pairing into kBadArgument instead of killing the
// daemon for every other tenant.

namespace {

// Both tenants' memoized merged snapshots. A self-pair is one object
// twice; the linear ops below mutate a copy of `a`, never the memo.
struct TenantPair {
  std::shared_ptr<const DaVinciSketch> a;
  std::shared_ptr<const DaVinciSketch> b;
};

// Snapshots both tenants into *out; any status but kOk leaves it empty.
StatusCode SnapshotPair(TenantRegistry* registry, const std::string& name_a,
                        const std::string& name_b,
                        std::optional<TenantPair>* out) {
  std::shared_ptr<Tenant> tenant_a = registry->Find(name_a);
  std::shared_ptr<Tenant> tenant_b = registry->Find(name_b);
  if (!tenant_a || !tenant_b) return StatusCode::kNoSuchTenant;
  TenantPair pair{tenant_a->engine().SharedSnapshot(),
                  tenant_b->engine().SharedSnapshot()};
  // Cross-tenant linear ops need the kIdentical relation; two kResizable
  // tenants (same seed, different split) still answer kBadArgument — the
  // server never rebuilds a whole tenant to satisfy one query.
  if (DaVinciConfig::GeometryCompatible(pair.a->config(), pair.b->config()) !=
      DaVinciConfig::GeometryRelation::kIdentical) {
    return StatusCode::kBadArgument;
  }
  out->emplace(std::move(pair));
  return StatusCode::kOk;
}

}  // namespace

std::string RequestDispatcher::HeavyChangers(WireReader& reader) {
  std::string name_a, name_b;
  int64_t delta = 0;
  if (!reader.Str(&name_a) || !reader.Str(&name_b) || !reader.I64(&delta) ||
      !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::optional<TenantPair> pair;
  StatusCode status = SnapshotPair(registry_, name_a, name_b, &pair);
  if (status != StatusCode::kOk) return StatusBody(status);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.Pairs(pair->a->HeavyChangers(*pair->b, delta));
  return writer.Take();
}

std::string RequestDispatcher::UnionCardinality(WireReader& reader) {
  std::string name_a, name_b;
  if (!reader.Str(&name_a) || !reader.Str(&name_b) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::optional<TenantPair> pair;
  StatusCode status = SnapshotPair(registry_, name_a, name_b, &pair);
  if (status != StatusCode::kOk) return StatusBody(status);
  DaVinciSketch merged = *pair->a;  // O(1) CoW copy; Merge clones
  merged.Merge(*pair->b);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.F64(merged.EstimateCardinality());
  return writer.Take();
}

std::string RequestDispatcher::DifferenceQuery(WireReader& reader) {
  std::string name_a, name_b;
  std::vector<uint32_t> keys;
  if (!reader.Str(&name_a) || !reader.Str(&name_b) || !reader.Keys(&keys) ||
      !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::optional<TenantPair> pair;
  StatusCode status = SnapshotPair(registry_, name_a, name_b, &pair);
  if (status != StatusCode::kOk) return StatusBody(status);
  DaVinciSketch diff = *pair->a;  // O(1) CoW copy; Subtract clones
  diff.Subtract(*pair->b);
  std::vector<int64_t> answers = diff.QueryBatch(keys);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.Counts(answers);
  return writer.Take();
}

std::string RequestDispatcher::InnerProduct(WireReader& reader) {
  std::string name_a, name_b;
  if (!reader.Str(&name_a) || !reader.Str(&name_b) || !reader.Done()) {
    return StatusBody(StatusCode::kMalformed);
  }
  std::optional<TenantPair> pair;
  StatusCode status = SnapshotPair(registry_, name_a, name_b, &pair);
  if (status != StatusCode::kOk) return StatusBody(status);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  writer.F64(DaVinciSketch::InnerProduct(*pair->a, *pair->b));
  return writer.Take();
}

}  // namespace davinci::server
