// Wire-protocol conformance of the sketch server (docs/SERVER.md):
//  - every request/response round-trips through a real socket;
//  - batched wire ingest is bit-equivalent to a direct InsertBatch into a
//    same-parameter ConcurrentDaVinci (compared on serialized bytes);
//  - all nine query tasks answered over the wire match the in-process
//    computation bit-for-bit on a seeded Zipf trace;
//  - hostile input (unknown opcodes, truncated payloads, trailing
//    garbage, oversized/zero length prefixes) gets a clean error reply
//    and never harms other connections or tenants;
//  - pipelined replies, including multi-MB exports the server must flush
//    across many socket-buffer-sized writes, arrive whole and in order.

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/concurrent_davinci.h"
#include "obs/health.h"
#include "server/client.h"
#include "server/dispatcher.h"
#include "server/server.h"
#include "test_seed.h"
#include "workload/trace.h"

namespace davinci::server {
namespace {

constexpr uint32_t kShards = 4;
constexpr uint64_t kTenantBytes = 256 * 1024;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.workers = 2;
    server_ = std::make_unique<SketchServer>(options);
    ASSERT_TRUE(server_->Start());
    ASSERT_TRUE(client_.Connect(server_->port()));
  }

  void TearDown() override {
    client_.Close();
    server_->Stop();
  }

  std::unique_ptr<SketchServer> server_;
  Client client_;
};

std::string SerializedSnapshot(const ConcurrentDaVinci& engine) {
  std::stringstream buffer;
  engine.Snapshot().Save(buffer);
  return buffer.str();
}

TEST_F(ServerTest, PingAndTenantLifecycle) {
  EXPECT_EQ(client_.Ping(), StatusCode::kOk);

  EXPECT_EQ(client_.CreateTenant("alpha", kShards, kTenantBytes, 7),
            StatusCode::kOk);
  EXPECT_EQ(client_.CreateTenant("alpha", kShards, kTenantBytes, 7),
            StatusCode::kTenantExists);
  // Filesystem-hostile and empty names are rejected before any state.
  EXPECT_EQ(client_.CreateTenant("../evil", kShards, kTenantBytes, 7),
            StatusCode::kBadArgument);
  EXPECT_EQ(client_.CreateTenant("", kShards, kTenantBytes, 7),
            StatusCode::kBadArgument);
  // Invalid geometry: zero shards.
  EXPECT_EQ(client_.CreateTenant("beta", 0, kTenantBytes, 7),
            StatusCode::kBadArgument);

  EXPECT_EQ(client_.CreateTenant("beta", kShards, kTenantBytes, 7),
            StatusCode::kOk);
  std::vector<std::string> names;
  ASSERT_EQ(client_.ListTenants(&names), StatusCode::kOk);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "beta"}));

  EXPECT_EQ(client_.DropTenant("alpha"), StatusCode::kOk);
  EXPECT_EQ(client_.DropTenant("alpha"), StatusCode::kNoSuchTenant);
  ASSERT_EQ(client_.ListTenants(&names), StatusCode::kOk);
  EXPECT_EQ(names, (std::vector<std::string>{"beta"}));

  uint64_t epoch = 0;
  EXPECT_EQ(client_.AdvanceEpoch("beta", &epoch), StatusCode::kOk);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(client_.AdvanceEpoch("ghost", &epoch), StatusCode::kNoSuchTenant);

  HealthReply health;
  ASSERT_EQ(client_.Health("beta", &health), StatusCode::kOk);
  EXPECT_EQ(health.shards, kShards);
  EXPECT_GT(health.memory_bytes, 0u);
  EXPECT_FALSE(health.windowed);
  EXPECT_EQ(client_.FlushViews("beta"), StatusCode::kOk);
}

TEST_F(ServerTest, BatchedIngestBitEquivalentToDirectInsertBatch) {
  const uint64_t seed = testing::TestSeed(11);
  DAVINCI_ANNOUNCE_SEED(seed);
  Trace trace = BuildSkewedTrace("ingest", 60000, 5000, 1.0, seed);
  std::vector<int64_t> ones(trace.keys.size(), 1);

  ASSERT_EQ(client_.CreateTenant("t", kShards, kTenantBytes, seed),
            StatusCode::kOk);
  // Mixed chunk sizes, plus a few single inserts, to exercise framing.
  size_t pos = 0;
  int toggle = 0;
  while (pos < trace.keys.size()) {
    size_t chunk = (toggle++ % 3 == 0) ? 1 : std::min<size_t>(
        4096, trace.keys.size() - pos);
    chunk = std::min(chunk, trace.keys.size() - pos);
    if (chunk == 1) {
      ASSERT_EQ(client_.Insert("t", trace.keys[pos], 1), StatusCode::kOk);
    } else {
      ASSERT_EQ(
          client_.InsertBatch(
              "t", std::span<const uint32_t>(trace.keys.data() + pos, chunk),
              std::span<const int64_t>(ones.data() + pos, chunk)),
          StatusCode::kOk);
    }
    pos += chunk;
  }

  ConcurrentDaVinci reference(kShards, kTenantBytes, seed);
  reference.InsertBatch(trace.keys, ones);

  // Bit-equivalence at the strongest level: the serialized merged
  // snapshots are byte-identical.
  std::shared_ptr<Tenant> tenant = server_->registry().Find("t");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(SerializedSnapshot(tenant->engine()),
            SerializedSnapshot(reference));
}

TEST_F(ServerTest, AllNineTasksMatchInProcessAnswers) {
  const uint64_t seed = testing::TestSeed(23);
  DAVINCI_ANNOUNCE_SEED(seed);
  Trace trace_a = BuildSkewedTrace("a", 50000, 4000, 1.0, seed);
  Trace trace_b = BuildSkewedTrace("b", 50000, 4000, 1.0, seed + 1);
  std::vector<int64_t> ones_a(trace_a.keys.size(), 1);
  std::vector<int64_t> ones_b(trace_b.keys.size(), 1);

  ASSERT_EQ(client_.CreateTenant("a", kShards, kTenantBytes, seed),
            StatusCode::kOk);
  ASSERT_EQ(client_.CreateTenant("b", kShards, kTenantBytes, seed),
            StatusCode::kOk);
  ASSERT_EQ(client_.InsertBatch("a", trace_a.keys, ones_a), StatusCode::kOk);
  ASSERT_EQ(client_.InsertBatch("b", trace_b.keys, ones_b), StatusCode::kOk);

  ConcurrentDaVinci ref_a(kShards, kTenantBytes, seed);
  ConcurrentDaVinci ref_b(kShards, kTenantBytes, seed);
  ref_a.InsertBatch(trace_a.keys, ones_a);
  ref_b.InsertBatch(trace_b.keys, ones_b);
  DaVinciSketch snap_a = ref_a.Snapshot();
  DaVinciSketch snap_b = ref_b.Snapshot();

  // Task 1: frequency (spot keys + batch).
  std::vector<uint32_t> probe(trace_a.keys.begin(),
                              trace_a.keys.begin() + 512);
  probe.push_back(0xdeadbeef);  // absent key
  for (uint32_t key : std::vector<uint32_t>(probe.begin(), probe.begin() + 32)) {
    int64_t wire = -1;
    ASSERT_EQ(client_.Query("a", key, &wire), StatusCode::kOk);
    EXPECT_EQ(wire, ref_a.Query(key)) << "key=" << key;
  }
  std::vector<int64_t> wire_batch;
  ASSERT_EQ(client_.QueryBatch("a", probe, &wire_batch), StatusCode::kOk);
  EXPECT_EQ(wire_batch, ref_a.QueryBatch(probe));

  // Task 2: heavy hitters.
  std::vector<std::pair<uint32_t, int64_t>> wire_pairs;
  ASSERT_EQ(client_.HeavyHitters("a", 100, &wire_pairs), StatusCode::kOk);
  EXPECT_EQ(wire_pairs, ref_a.HeavyHitters(100));

  // Task 3: heavy changers (tenant a vs tenant b).
  ASSERT_EQ(client_.HeavyChangers("a", "b", 50, &wire_pairs),
            StatusCode::kOk);
  EXPECT_EQ(wire_pairs, snap_a.HeavyChangers(snap_b, 50));

  // Task 4: cardinality — IEEE-754 bit pattern identical.
  double wire_double = 0;
  ASSERT_EQ(client_.Cardinality("a", &wire_double), StatusCode::kOk);
  double local_double = ref_a.EstimateCardinality();
  EXPECT_EQ(std::memcmp(&wire_double, &local_double, sizeof(double)), 0);

  // Task 5: flow-size distribution.
  std::vector<std::pair<int64_t, int64_t>> wire_dist;
  ASSERT_EQ(client_.Distribution("a", &wire_dist), StatusCode::kOk);
  std::vector<std::pair<int64_t, int64_t>> local_dist;
  for (const auto& [size, flows] : snap_a.Distribution()) {
    local_dist.emplace_back(size, flows);
  }
  EXPECT_EQ(wire_dist, local_dist);

  // Task 6: entropy.
  ASSERT_EQ(client_.Entropy("a", &wire_double), StatusCode::kOk);
  local_double = snap_a.EstimateEntropy();
  EXPECT_EQ(std::memcmp(&wire_double, &local_double, sizeof(double)), 0);

  // Task 7: union cardinality.
  ASSERT_EQ(client_.UnionCardinality("a", "b", &wire_double), StatusCode::kOk);
  {
    DaVinciSketch merged = ref_a.Snapshot();
    merged.Merge(snap_b);
    local_double = merged.EstimateCardinality();
  }
  EXPECT_EQ(std::memcmp(&wire_double, &local_double, sizeof(double)), 0);

  // Task 8: per-key signed difference.
  ASSERT_EQ(client_.DifferenceQuery("a", "b", probe, &wire_batch),
            StatusCode::kOk);
  {
    DaVinciSketch diff = ref_a.Snapshot();
    diff.Subtract(snap_b);
    EXPECT_EQ(wire_batch, diff.QueryBatch(probe));
  }

  // Task 9: inner join size.
  ASSERT_EQ(client_.InnerProduct("a", "b", &wire_double), StatusCode::kOk);
  local_double = DaVinciSketch::InnerProduct(snap_a, snap_b);
  EXPECT_EQ(std::memcmp(&wire_double, &local_double, sizeof(double)), 0);
}

// The engine's merged snapshot folded straight from its published views,
// bypassing the memo the server answers from.
DaVinciSketch FoldedViews(const ConcurrentDaVinci& engine) {
  std::vector<std::shared_ptr<const SketchView>> views = engine.SnapshotAll();
  DaVinciSketch folded = views[0]->sketch();
  for (size_t s = 1; s < views.size(); ++s) folded.Merge(views[s]->sketch());
  return folded;
}

std::vector<std::pair<int64_t, int64_t>> DistributionPairs(
    const DaVinciSketch& sketch) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (const auto& [size, flows] : sketch.Distribution()) {
    out.emplace_back(size, flows);
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST_F(ServerTest, SelfPairsMatchTwoIndependentCopies) {
  const uint64_t seed = testing::TestSeed(29);
  DAVINCI_ANNOUNCE_SEED(seed);
  Trace trace = BuildSkewedTrace("self", 50000, 4000, 1.0, seed);
  std::vector<int64_t> ones(trace.keys.size(), 1);
  ASSERT_EQ(client_.CreateTenant("self", kShards, kTenantBytes, seed),
            StatusCode::kOk);
  ASSERT_EQ(client_.InsertBatch("self", trace.keys, ones), StatusCode::kOk);

  // On the server both sides of a self-pair are one memoized object; the
  // reference loads the same state twice, into two unrelated sketches.
  ConcurrentDaVinci reference(kShards, kTenantBytes, seed);
  reference.InsertBatch(trace.keys, ones);
  std::stringstream image;
  FoldedViews(reference).Save(image);
  DaVinciSketch copy_a(8 * 1024, 0);
  DaVinciSketch copy_b(8 * 1024, 0);
  std::stringstream image_b(image.str());
  ASSERT_TRUE(DaVinciSketch::Load(image, &copy_a));
  ASSERT_TRUE(DaVinciSketch::Load(image_b, &copy_b));

  std::vector<std::pair<uint32_t, int64_t>> wire_pairs;
  ASSERT_EQ(client_.HeavyChangers("self", "self", 0, &wire_pairs),
            StatusCode::kOk);
  EXPECT_EQ(wire_pairs, copy_a.HeavyChangers(copy_b, 0));

  double wire_double = 0;
  ASSERT_EQ(client_.UnionCardinality("self", "self", &wire_double),
            StatusCode::kOk);
  DaVinciSketch merged = copy_a;
  merged.Merge(copy_b);
  EXPECT_TRUE(SameBits(wire_double, merged.EstimateCardinality()));

  std::vector<uint32_t> probe(trace.keys.begin(), trace.keys.begin() + 256);
  std::vector<int64_t> wire_batch;
  ASSERT_EQ(client_.DifferenceQuery("self", "self", probe, &wire_batch),
            StatusCode::kOk);
  DaVinciSketch diff = copy_a;
  diff.Subtract(copy_b);
  EXPECT_EQ(wire_batch, diff.QueryBatch(probe));

  ASSERT_EQ(client_.InnerProduct("self", "self", &wire_double),
            StatusCode::kOk);
  EXPECT_TRUE(
      SameBits(wire_double, DaVinciSketch::InnerProduct(copy_a, copy_b)));

  // The pair tasks left the tenant's own snapshot untouched.
  std::shared_ptr<Tenant> tenant = server_->registry().Find("self");
  ASSERT_NE(tenant, nullptr);
  std::stringstream served, loaded;
  tenant->engine().SharedSnapshot()->Save(served);
  copy_a.Save(loaded);
  EXPECT_EQ(served.str(), loaded.str());
}

TEST_F(ServerTest, IngestBetweenQueriesReachesTheNextAnswer) {
  const uint64_t seed = testing::TestSeed(37);
  DAVINCI_ANNOUNCE_SEED(seed);
  Trace first = BuildSkewedTrace("first", 30000, 3000, 1.0, seed);
  Trace second = BuildSkewedTrace("second", 30000, 3000, 1.0, seed + 1);
  Trace peer = BuildSkewedTrace("peer", 30000, 3000, 1.0, seed + 2);
  // Empty counts mean one per key, on the wire and in InsertBatch(keys).
  const std::vector<int64_t> ones;
  ASSERT_EQ(client_.CreateTenant("live", kShards, kTenantBytes, seed),
            StatusCode::kOk);
  ASSERT_EQ(client_.CreateTenant("peer", kShards, kTenantBytes, seed),
            StatusCode::kOk);
  ASSERT_EQ(client_.InsertBatch("live", first.keys, ones), StatusCode::kOk);
  ASSERT_EQ(client_.InsertBatch("peer", peer.keys, ones), StatusCode::kOk);
  ConcurrentDaVinci ref_live(kShards, kTenantBytes, seed);
  ConcurrentDaVinci ref_peer(kShards, kTenantBytes, seed);
  ref_live.InsertBatch(first.keys);
  ref_peer.InsertBatch(peer.keys);

  // Both answers are read twice per state: the second read is served from
  // the memo and must still match the state the last write left.
  double before_union = 0;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    std::vector<std::pair<int64_t, int64_t>> wire_dist;
    double wire_union = 0;
    if (round == 1) {
      ASSERT_EQ(client_.InsertBatch("live", second.keys, ones),
                StatusCode::kOk);
      ref_live.InsertBatch(second.keys);
    }
    for (int repeat = 0; repeat < 2; ++repeat) {
      ASSERT_EQ(client_.UnionCardinality("live", "peer", &wire_union),
                StatusCode::kOk);
      DaVinciSketch merged = FoldedViews(ref_live);
      merged.Merge(FoldedViews(ref_peer));
      EXPECT_TRUE(SameBits(wire_union, merged.EstimateCardinality()));
      ASSERT_EQ(client_.Distribution("live", &wire_dist), StatusCode::kOk);
      EXPECT_EQ(wire_dist, DistributionPairs(FoldedViews(ref_live)));
    }
    if (round == 0) {
      before_union = wire_union;
    } else {
      EXPECT_GT(wire_union, before_union);
    }
  }
}

TEST_F(ServerTest, WindowedTenantHeavyChangers) {
  ASSERT_EQ(client_.CreateTenant("w", kShards, kTenantBytes, 5, /*window=*/4),
            StatusCode::kOk);
  ASSERT_EQ(client_.CreateTenant("plain", kShards, kTenantBytes, 5),
            StatusCode::kOk);

  std::vector<uint32_t> epoch1(2000, 42);  // key 42 hot in epoch 1
  std::vector<int64_t> ones(epoch1.size(), 1);
  ASSERT_EQ(client_.InsertBatch("w", epoch1, ones), StatusCode::kOk);
  uint64_t epoch = 0;
  ASSERT_EQ(client_.AdvanceEpoch("w", &epoch), StatusCode::kOk);
  EXPECT_EQ(epoch, 1u);
  std::vector<uint32_t> epoch2(2000, 99);  // key 99 hot in epoch 2
  ASSERT_EQ(client_.InsertBatch("w", epoch2, ones), StatusCode::kOk);

  std::vector<std::pair<uint32_t, int64_t>> wire_pairs;
  ASSERT_EQ(client_.WindowHeavyChangers("w", 500, &wire_pairs),
            StatusCode::kOk);
  std::shared_ptr<Tenant> tenant = server_->registry().Find("w");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(wire_pairs, tenant->WindowHeavyChangers(500));
  EXPECT_FALSE(wire_pairs.empty());

  // kHealth reports the engine's counters: the window is neither extra
  // shards nor a second count of the same inserts.
  HealthReply health;
  ASSERT_EQ(client_.Health("w", &health), StatusCode::kOk);
  EXPECT_EQ(health.shards, kShards);
  EXPECT_EQ(health.inserts, obs::kStatsEnabled ? 4000u : 0u);
  EXPECT_TRUE(health.windowed);

  // A window query against an unwindowed tenant is a usage error, not
  // silence.
  EXPECT_EQ(client_.WindowHeavyChangers("plain", 500, &wire_pairs),
            StatusCode::kBadArgument);
}

TEST_F(ServerTest, CrossTenantGeometryMismatchIsRejected) {
  ASSERT_EQ(client_.CreateTenant("s1", kShards, kTenantBytes, 1),
            StatusCode::kOk);
  // Different seed => different hash functions => not mergeable.
  ASSERT_EQ(client_.CreateTenant("s2", kShards, kTenantBytes, 2),
            StatusCode::kOk);

  double out_d = 0;
  std::vector<std::pair<uint32_t, int64_t>> out_pairs;
  std::vector<int64_t> out_counts;
  std::vector<uint32_t> keys{1, 2, 3};
  EXPECT_EQ(client_.UnionCardinality("s1", "s2", &out_d),
            StatusCode::kBadArgument);
  EXPECT_EQ(client_.HeavyChangers("s1", "s2", 10, &out_pairs),
            StatusCode::kBadArgument);
  EXPECT_EQ(client_.DifferenceQuery("s1", "s2", keys, &out_counts),
            StatusCode::kBadArgument);
  EXPECT_EQ(client_.InnerProduct("s1", "s2", &out_d),
            StatusCode::kBadArgument);
  // The daemon survived every rejected pairing.
  EXPECT_EQ(client_.Ping(), StatusCode::kOk);
}

TEST_F(ServerTest, ResizeTenantRebuildsLiveAndEnforcesQuota) {
  const uint64_t seed = testing::TestSeed(31);
  DAVINCI_ANNOUNCE_SEED(seed);
  ASSERT_EQ(client_.CreateTenant("elastic", kShards, kTenantBytes, 9),
            StatusCode::kOk);
  Trace trace = BuildSkewedTrace("resize", 40000, 4000, 1.0, seed);
  std::vector<int64_t> counts(trace.keys.size(), 1);
  ASSERT_EQ(client_.InsertBatch("elastic", trace.keys, counts),
            StatusCode::kOk);
  int64_t heavy_before = 0;
  ASSERT_EQ(client_.Query("elastic", trace.keys.front(), &heavy_before),
            StatusCode::kOk);

  // Grow 2x: the reply reports the real post-resize footprint and the
  // tenant keeps serving with its state migrated.
  uint64_t new_bytes = 0;
  ASSERT_EQ(client_.ResizeTenant("elastic", 2 * kTenantBytes, &new_bytes),
            StatusCode::kOk);
  EXPECT_GT(new_bytes, kTenantBytes);
  int64_t heavy_after = 0;
  ASSERT_EQ(client_.Query("elastic", trace.keys.front(), &heavy_after),
            StatusCode::kOk);
  // The heavy key's estimate survives migration (promotion-threshold
  // slack is the only mass a rebuild may shed per flow).
  EXPECT_GE(heavy_after, heavy_before - 64);
  EXPECT_LE(heavy_after, heavy_before + 64);

  // Provenance lands in kHealth.
  HealthReply health;
  ASSERT_EQ(client_.Health("elastic", &health), StatusCode::kOk);
  EXPECT_EQ(health.resizes_applied, 1u);
  EXPECT_EQ(health.resizes_rejected, 0u);
  EXPECT_GT(health.resize_bytes_after, health.resize_bytes_before);
  EXPECT_EQ(health.resize_last_trigger,
            static_cast<uint32_t>(obs::ResizeHealth::kAdmin));

  // Quota: a capped tenant admits in-quota resizes and rejects past the
  // ceiling with kQuotaExceeded (recorded as a rejection, state intact).
  ASSERT_EQ(client_.CreateTenant("capped", kShards, kTenantBytes, 9,
                                 /*window_epochs=*/0,
                                 /*max_bytes=*/2 * kTenantBytes),
            StatusCode::kOk);
  EXPECT_EQ(client_.CreateTenant("greedy", kShards, 4 * kTenantBytes, 9,
                                 /*window_epochs=*/0,
                                 /*max_bytes=*/2 * kTenantBytes),
            StatusCode::kQuotaExceeded);
  ASSERT_EQ(client_.ResizeTenant("capped", 2 * kTenantBytes, &new_bytes),
            StatusCode::kOk);
  EXPECT_EQ(client_.ResizeTenant("capped", 4 * kTenantBytes, &new_bytes),
            StatusCode::kQuotaExceeded);
  ASSERT_EQ(client_.Health("capped", &health), StatusCode::kOk);
  EXPECT_EQ(health.resizes_applied, 1u);
  EXPECT_GE(health.resizes_rejected, 1u);

  // Degenerate budgets and missing tenants get clean errors.
  EXPECT_EQ(client_.ResizeTenant("elastic", 0), StatusCode::kBadArgument);
  EXPECT_EQ(client_.ResizeTenant("ghost", kTenantBytes),
            StatusCode::kNoSuchTenant);
  // Truncated kResizeTenant: name but no budget.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kResizeTenant));
    writer.Str("elastic");
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
}

TEST_F(ServerTest, HostileRequestsGetCleanErrors) {
  ASSERT_EQ(client_.CreateTenant("safe", kShards, kTenantBytes, 3),
            StatusCode::kOk);
  ASSERT_EQ(client_.Insert("safe", 7, 5), StatusCode::kOk);

  // Unknown opcode: error reply, connection survives.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(0xEE);
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kUnknownOp);
  }
  // Wrong protocol version.
  {
    WireWriter writer;
    writer.U8(0x42);
    writer.U8(static_cast<uint8_t>(Op::kPing));
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kBadVersion);
  }
  // Truncated payload: kQuery without the key.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kQuery));
    writer.Str("safe");
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // Trailing garbage after a well-formed request.
  {
    std::string body = Client::QueryRequest("safe", 7);
    body += "junk";
    std::string response;
    ASSERT_TRUE(client_.Call(body, &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // A batch whose declared key count overruns the actual bytes.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kInsertBatch));
    writer.Str("safe");
    writer.U32(1000000);  // ...but no key bytes follow
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // Truncated kExportSketch: name but no format byte.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kExportSketch));
    writer.Str("safe");
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // kImportMerge whose declared image count overruns the actual bytes.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kImportMerge));
    writer.Str("safe");
    writer.U32(3);  // ...but no (height, blob) entries follow
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // kImportMerge with a blob length prefix past the frame's end.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kImportMerge));
    writer.Str("safe");
    writer.U32(1);
    writer.U32(0);           // source height
    writer.U32(0xFFFFFF00);  // blob "length" with no bytes behind it
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // The connection is still healthy and tenant state unharmed.
  int64_t count = 0;
  ASSERT_EQ(client_.Query("safe", 7, &count), StatusCode::kOk);
  EXPECT_EQ(count, 5);
}

TEST_F(ServerTest, OversizedLengthPrefixClosesOnlyThatConnection) {
  ASSERT_EQ(client_.CreateTenant("victim", kShards, kTenantBytes, 4),
            StatusCode::kOk);
  ASSERT_EQ(client_.Insert("victim", 1, 9), StatusCode::kOk);

  Client attacker;
  ASSERT_TRUE(attacker.Connect(server_->port()));
  uint32_t huge = kMaxFrameBytes + 1;
  ASSERT_TRUE(attacker.SendRaw(&huge, sizeof(huge)));
  std::string response;
  ASSERT_TRUE(attacker.ReadResponse(&response));
  EXPECT_EQ(Client::ParseStatus(response), StatusCode::kTooLarge);
  // The stream cannot be resynchronized: the server closes it.
  EXPECT_FALSE(attacker.ReadResponse(&response));

  Client zero_attacker;
  ASSERT_TRUE(zero_attacker.Connect(server_->port()));
  uint32_t zero = 0;
  ASSERT_TRUE(zero_attacker.SendRaw(&zero, sizeof(zero)));
  ASSERT_TRUE(zero_attacker.ReadResponse(&response));
  EXPECT_EQ(Client::ParseStatus(response), StatusCode::kTooLarge);
  EXPECT_FALSE(zero_attacker.ReadResponse(&response));

  // The original connection and tenant never noticed.
  int64_t count = 0;
  ASSERT_EQ(client_.Query("victim", 1, &count), StatusCode::kOk);
  EXPECT_EQ(count, 9);
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  ASSERT_EQ(client_.CreateTenant("p", kShards, kTenantBytes, 6),
            StatusCode::kOk);
  for (uint32_t key = 0; key < 64; ++key) {
    ASSERT_EQ(client_.Insert("p", key, static_cast<int64_t>(key) + 1),
              StatusCode::kOk);
  }
  // Send 64 queries back-to-back, then read 64 replies: order preserved.
  for (uint32_t key = 0; key < 64; ++key) {
    ASSERT_TRUE(client_.SendRequest(Client::QueryRequest("p", key)));
  }
  for (uint32_t key = 0; key < 64; ++key) {
    std::string response;
    ASSERT_TRUE(client_.ReadResponse(&response));
    ASSERT_EQ(Client::ParseStatus(response), StatusCode::kOk);
    ASSERT_EQ(response.size(), 1 + sizeof(int64_t));
    int64_t count = 0;
    std::memcpy(&count, response.data() + 1, sizeof(count));
    EXPECT_EQ(count, static_cast<int64_t>(key) + 1) << "key=" << key;
  }
}

TEST_F(ServerTest, PipelinedExportsLargerThanTheSocketBufferArriveWhole) {
  // Two tenants with different contents, so a reordered or spliced reply
  // cannot match the bytes expected at its position.
  constexpr uint64_t kExportBytes = 1 << 20;
  const std::string names[] = {"big0", "big1"};
  for (uint32_t t = 0; t < 2; ++t) {
    ASSERT_EQ(client_.CreateTenant(names[t], kShards, kExportBytes, 9),
              StatusCode::kOk);
    for (uint32_t key = 1; key <= 64; ++key) {
      ASSERT_EQ(client_.Insert(names[t], key * (t + 2), key), StatusCode::kOk);
    }
  }
  auto export_request = [](const std::string& name) {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kExportSketch));
    writer.Str(name);
    writer.U8(0);  // flat: the largest image a tenant has
    return writer.Take();
  };
  std::string lone[2];
  for (size_t t = 0; t < 2; ++t) {
    ASSERT_TRUE(client_.Call(export_request(names[t]), &lone[t]));
    ASSERT_EQ(Client::ParseStatus(lone[t]), StatusCode::kOk);
  }
  ASSERT_NE(lone[0], lone[1]);

  constexpr size_t kPipelined = 8;
  size_t total = 0;
  for (size_t i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client_.SendRequest(export_request(names[i % 2])));
    total += lone[i % 2].size();
  }
  // Far past the loopback send and receive buffers combined, so the
  // server hits EAGAIN mid-reply and resumes from its sent offset many
  // times before the last byte leaves.
  ASSERT_GT(total, size_t{16} << 20);
  for (size_t i = 0; i < kPipelined; ++i) {
    std::string response;
    ASSERT_TRUE(client_.ReadResponse(&response)) << "reply " << i;
    EXPECT_TRUE(response == lone[i % 2]) << "reply " << i << " differs";
  }
  EXPECT_EQ(client_.Ping(), StatusCode::kOk);
}

// A resize racing an import or an export of the same tenant, driven
// through an in-process dispatcher: the tenant mutex serializes them, so
// no import reaches the core's mixed-geometry abort and no export carries
// shards of two geometries. Bounded by iteration count, not time.
class DispatcherRaceTest : public ::testing::Test {
 protected:
  std::string Call(const std::string& body) {
    return dispatcher_.Handle(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(body.data()), body.size()));
  }
  static WireWriter Request(Op op, const std::string& name) {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(op));
    writer.Str(name);
    return writer;
  }
  StatusCode Create(const std::string& name, uint64_t bytes) {
    WireWriter writer = Request(Op::kCreateTenant, name);
    writer.U32(4);
    writer.U64(bytes);
    writer.U64(/*seed=*/5);
    writer.U32(/*window_epochs=*/0);
    writer.U64(/*max_bytes=*/0);
    return Client::ParseStatus(Call(writer.Take()));
  }
  // kExportSketch (DVSZ); returns the reply body.
  std::string Export(const std::string& name) {
    WireWriter writer = Request(Op::kExportSketch, name);
    writer.U8(static_cast<uint8_t>(SketchFormat::kCompressed));
    return Call(writer.Take());
  }
  // The shard image inside a kOk kExportSketch reply.
  static bool ExportedImage(const std::string& reply, std::string* image) {
    WireReader reader(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(reply.data()), reply.size()));
    uint8_t status = 0;
    uint32_t height = 0;
    return reader.U8(&status) &&
           status == static_cast<uint8_t>(StatusCode::kOk) &&
           reader.U32(&height) && reader.Blob(image) && reader.Done();
  }

  TenantRegistry registry_{""};
  RequestDispatcher dispatcher_{&registry_};
};

TEST_F(DispatcherRaceTest, ResizeRacingImportOrExportNeverMixesGeometry) {
  constexpr uint64_t kMiB = 1 << 20;
  constexpr int kResizes = 40;
  constexpr int kRounds = 30;
  ASSERT_EQ(Create("tgt", kMiB), StatusCode::kOk);
  ASSERT_EQ(Create("src1", kMiB), StatusCode::kOk);
  ASSERT_EQ(Create("src2", 2 * kMiB), StatusCode::kOk);
  std::vector<uint32_t> keys(4000);
  for (uint32_t i = 0; i < keys.size(); ++i) keys[i] = i % 700;
  for (const char* name : {"tgt", "src1", "src2"}) {
    WireWriter writer = Request(Op::kInsertBatch, name);
    writer.Keys(keys);
    writer.Counts({});
    ASSERT_EQ(Client::ParseStatus(Call(writer.Take())), StatusCode::kOk);
  }
  std::string images[2];
  ASSERT_TRUE(ExportedImage(Export("src1"), &images[0]));
  ASSERT_TRUE(ExportedImage(Export("src2"), &images[1]));
  std::shared_ptr<Tenant> target = registry_.Find("tgt");
  ASSERT_NE(target, nullptr);

  std::thread resizer([&] {
    for (int i = 0; i < kResizes; ++i) {
      WireWriter writer = Request(Op::kResizeTenant, "tgt");
      writer.U64(i % 2 == 0 ? 2 * kMiB : kMiB);
      EXPECT_EQ(Client::ParseStatus(Call(writer.Take())), StatusCode::kOk);
    }
  });
  int mixed_exports = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& image : images) {
      WireWriter writer = Request(Op::kImportMerge, "tgt");
      writer.U32(1);
      writer.U32(/*height=*/0);
      writer.Blob(image);
      StatusCode status = Client::ParseStatus(Call(writer.Take()));
      EXPECT_TRUE(status == StatusCode::kOk ||
                  status == StatusCode::kBadArgument)
          << static_cast<int>(status);
    }
    std::string image;
    ASSERT_TRUE(ExportedImage(Export("tgt"), &image));
    std::istringstream in(image);
    std::vector<DaVinciSketch> shards;
    if (!target->engine().ParseShardImage(in, &shards,
                                          /*match_live_geometry=*/false)) {
      ++mixed_exports;
    }
  }
  resizer.join();
  EXPECT_EQ(mixed_exports, 0) << "of " << kRounds << " exports";
  target->engine().CheckInvariants(InvariantMode::kAdditive);
}

}  // namespace
}  // namespace davinci::server
