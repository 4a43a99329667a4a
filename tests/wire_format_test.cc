// DVSZ compressed wire format (DESIGN.md §Wire format):
//  - a compressed image round-trips to a sketch whose flat re-save is
//    byte-identical to the original flat image (so every query answer is
//    bit-identical too), and on a zipf-1.05 insert workload the DVSZ image
//    is at least 4x smaller than the flat one;
//  - the fan-in merge tree over the server protocol is bit-identical to an
//    in-process left fold of ConcurrentDaVinci::Merge, and a two-level
//    tree answers point queries exactly when no FP eviction is in play;
//  - hostile DVSZ bytes (truncated runs, overlong varints, zero-length
//    literal runs, duplicate sparse indices, bad trailers) reject cleanly
//    at the part and whole-image level, as do images that lead with the
//    retired DVSD delta-image header — in-process and over kImportMerge;
//  - DVCK v1 (flat-body) checkpoints written before the v2 switch still
//    recover byte-identically.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/modular.h"
#include "common/serialize.h"
#include "common/varint.h"
#include "core/concurrent_davinci.h"
#include "core/davinci_sketch.h"
#include "server/client.h"
#include "server/server.h"
#include "test_seed.h"
#include "workload/trace.h"

namespace davinci {
namespace {

std::string FlatBytes(const DaVinciSketch& sketch) {
  std::stringstream out;
  sketch.Save(out);
  return out.str();
}

std::string CompressedBytes(const DaVinciSketch& sketch) {
  std::stringstream out;
  sketch.Save(out, SketchFormat::kCompressed);
  return out.str();
}

// Leading u64 of the retired DVSD delta-image format ("DVSD" magic,
// version 1). Read as a flat image's fp_buckets it is ≈ 5.4e9, far past
// DaVinciConfig::Valid()'s 2^24 cap, so Load must reject it softly.
constexpr uint64_t kRetiredDvsdHeader = (uint64_t{1} << 32) | 0x44535644;

DaVinciSketch BuildZipfSketch(size_t total_bytes, uint64_t seed,
                              size_t trace_len) {
  // The acceptance workload: zipf-1.05 inserts (matches bench_wire_format).
  Trace trace =
      BuildSkewedTrace("wire", trace_len, trace_len / 20, 1.05, seed);
  DaVinciSketch sketch(total_bytes, seed);
  for (uint32_t key : trace.keys) sketch.Insert(key, 1);
  return sketch;
}

// ---------------------------------------------------------------------------
// Full-image round trip + compression ratio.

TEST(WireFormatTest, CompressedRoundTripIsByteIdenticalToFlat) {
  DaVinciSketch sketch = BuildZipfSketch(512 * 1024, 11, 200000);
  std::string flat = FlatBytes(sketch);
  std::string compressed = CompressedBytes(sketch);

  std::stringstream in(compressed);
  DaVinciSketch loaded(1024, 0);
  ASSERT_TRUE(DaVinciSketch::Load(in, &loaded));
  // Byte-identical flat re-save ⇒ every query path answers identically.
  EXPECT_EQ(FlatBytes(loaded), flat);

  // The acceptance bar from the issue: ≥ 4x smaller on this workload.
  EXPECT_GE(static_cast<double>(flat.size()),
            4.0 * static_cast<double>(compressed.size()))
      << "flat=" << flat.size() << " dvsz=" << compressed.size();
}

TEST(WireFormatTest, EmptySketchRoundTripsCompressed) {
  DaVinciSketch sketch(64 * 1024, 9);
  std::string compressed = CompressedBytes(sketch);
  std::stringstream in(compressed);
  DaVinciSketch loaded(1024, 0);
  ASSERT_TRUE(DaVinciSketch::Load(in, &loaded));
  EXPECT_EQ(FlatBytes(loaded), FlatBytes(sketch));
}

TEST(WireFormatTest, FlatImagesStillLoadUnchanged) {
  DaVinciSketch sketch = BuildZipfSketch(128 * 1024, 13, 40000);
  std::string flat = FlatBytes(sketch);
  std::stringstream in(flat);
  DaVinciSketch loaded(1024, 0);
  ASSERT_TRUE(DaVinciSketch::Load(in, &loaded));
  EXPECT_EQ(FlatBytes(loaded), flat);
}

// ---------------------------------------------------------------------------
// Hostile DVSZ bytes — part level.

TEST(WireFormatTest, TowerCompressedRejectsHostileRuns) {
  ElementFilter source(32 * 1024, {8, 16}, 64, 25);
  for (uint32_t key = 1; key <= 2000; ++key) {
    source.Insert(key * 2654435761u, 1 + static_cast<int64_t>(key % 5));
  }
  std::stringstream good;
  source.SaveStateCompressed(good);
  std::string bytes = good.str();

  ElementFilter target(32 * 1024, {8, 16}, 64, 25);

  // Truncation at every early offset and a sweep through the body.
  for (size_t cut = 0; cut < std::min<size_t>(bytes.size(), 32); ++cut) {
    std::stringstream in(bytes.substr(0, cut));
    EXPECT_FALSE(target.LoadStateCompressed(in)) << "cut=" << cut;
  }
  for (size_t cut = 32; cut < bytes.size(); cut += bytes.size() / 13 + 1) {
    std::stringstream in(bytes.substr(0, cut));
    EXPECT_FALSE(target.LoadStateCompressed(in)) << "cut=" << cut;
  }

  // Overlong varint: 11 continuation bytes can encode nothing.
  {
    std::stringstream in(std::string(11, '\x80'));
    EXPECT_FALSE(target.LoadStateCompressed(in));
  }
  // Zero-run longer than the level: first varint astronomically large.
  {
    std::stringstream in;
    WriteVarU64(in, uint64_t{1} << 40);
    EXPECT_FALSE(target.LoadStateCompressed(in));
  }

  // The good bytes themselves still load and match the source exactly.
  std::stringstream in(bytes);
  ASSERT_TRUE(target.LoadStateCompressed(in));
  std::stringstream a, b;
  source.SaveState(a);
  target.SaveState(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(WireFormatTest, SparseIfpRejectsHostileEntries) {
  InfrequentPart source(3, 2048, /*use_signs=*/true, 27);
  for (uint32_t key = 1; key <= 300; ++key) source.Insert(key, 1);
  InfrequentPart target(3, 2048, /*use_signs=*/true, 27);
  std::stringstream good;
  source.SaveStateCompressed(good);
  std::string bytes = good.str();
  ASSERT_FALSE(bytes.empty());

  // Unknown mode byte.
  {
    std::string mutated = bytes;
    mutated[0] = 2;
    std::stringstream in(mutated);
    EXPECT_FALSE(target.LoadStateCompressed(in));
  }
  // Hand-crafted sparse section with a duplicate index (second gap == 0).
  {
    std::stringstream in;
    WritePod(in, uint8_t{1});  // sparse mode
    WriteVarU64(in, 2);        // two live cells
    WriteVarU64(in, 0);        // cell 0
    WriteVarU64(in, 1);        //   id
    WriteVarI64(in, 1);        //   count
    WriteVarU64(in, 0);        // duplicate: gap 0 on a non-first entry
    WriteVarU64(in, 2);
    WriteVarI64(in, 1);
    EXPECT_FALSE(target.LoadStateCompressed(in));
  }
  // Out-of-range index: first gap beyond the cell count.
  {
    std::stringstream in;
    WritePod(in, uint8_t{1});
    WriteVarU64(in, 1);
    WriteVarU64(in, uint64_t{1} << 40);
    WriteVarU64(in, 1);
    WriteVarI64(in, 1);
    EXPECT_FALSE(target.LoadStateCompressed(in));
  }
  // Fermat residue out of range: id >= p.
  {
    std::stringstream in;
    WritePod(in, uint8_t{1});
    WriteVarU64(in, 1);
    WriteVarU64(in, 0);
    WriteVarU64(in, kFermatPrime);
    WriteVarI64(in, 1);
    EXPECT_FALSE(target.LoadStateCompressed(in));
  }

  // The good bytes themselves still load and match the source exactly.
  std::stringstream in(bytes);
  ASSERT_TRUE(target.LoadStateCompressed(in));
  std::stringstream a, b;
  source.SaveState(a);
  target.SaveState(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(WireFormatTest, WholeImageTrailerAndTruncationRejected) {
  DaVinciSketch sketch = BuildZipfSketch(96 * 1024, 29, 20000);
  std::string bytes = CompressedBytes(sketch);

  // Corrupted trailer.
  {
    std::string mutated = bytes;
    mutated.back() ^= 0x5A;
    std::stringstream in(mutated);
    DaVinciSketch loaded(1024, 0);
    EXPECT_FALSE(DaVinciSketch::Load(in, &loaded));
  }
  // A retired DVSD delta image: the header word followed by a real image
  // tail.
  {
    std::stringstream in;
    WritePod(in, kRetiredDvsdHeader);
    in << FlatBytes(sketch).substr(sizeof(uint64_t));
    DaVinciSketch loaded(1024, 0);
    EXPECT_FALSE(DaVinciSketch::Load(in, &loaded));
  }
  // Dense truncation sweep (same shape as the flat-image fuzz test).
  std::vector<size_t> cuts;
  for (size_t i = 0; i < 64 && i < bytes.size(); ++i) cuts.push_back(i);
  for (size_t i = 64; i < bytes.size(); i += bytes.size() / 97 + 1) {
    cuts.push_back(i);
  }
  for (size_t cut : cuts) {
    std::stringstream in(bytes.substr(0, cut));
    DaVinciSketch loaded(1024, 0);
    EXPECT_FALSE(DaVinciSketch::Load(in, &loaded)) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Merge tree over the server protocol.

class MergeTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server::ServerOptions options;
    options.workers = 2;
    server_ = std::make_unique<server::SketchServer>(options);
    ASSERT_TRUE(server_->Start());
    ASSERT_TRUE(client_.Connect(server_->port()));
  }
  void TearDown() override {
    client_.Close();
    server_->Stop();
  }

  static constexpr uint32_t kShards = 4;
  static constexpr uint64_t kBytes = 256 * 1024;
  static constexpr uint64_t kSeed = 77;

  void IngestSegment(const std::string& tenant, const Trace& trace,
                     size_t begin, size_t end) {
    std::vector<uint32_t> keys(trace.keys.begin() + begin,
                               trace.keys.begin() + end);
    std::vector<int64_t> ones(keys.size(), 1);
    ASSERT_EQ(client_.InsertBatch(tenant, keys, ones),
              server::StatusCode::kOk);
  }

  std::unique_ptr<server::SketchServer> server_;
  server::Client client_;
};

TEST_F(MergeTreeTest, WireFanInMatchesInProcessLeftFold) {
  const size_t kSources = 4;
  Trace trace = BuildSkewedTrace("fanin", 40000, 2000, 1.05, kSeed);
  const size_t seg = trace.keys.size() / kSources;

  ASSERT_EQ(client_.CreateTenant("agg", kShards, kBytes, kSeed),
            server::StatusCode::kOk);
  std::vector<server::Client::ExportedSketch> images;
  ConcurrentDaVinci expected(kShards, kBytes, kSeed);
  std::vector<std::unique_ptr<ConcurrentDaVinci>> sources;
  for (size_t i = 0; i < kSources; ++i) {
    std::string name = "src" + std::to_string(i);
    ASSERT_EQ(client_.CreateTenant(name, kShards, kBytes, kSeed),
              server::StatusCode::kOk);
    IngestSegment(name, trace, i * seg, (i + 1) * seg);
    // Mirror the same segment into an in-process engine.
    sources.push_back(
        std::make_unique<ConcurrentDaVinci>(kShards, kBytes, kSeed));
    std::vector<uint32_t> keys(trace.keys.begin() + i * seg,
                               trace.keys.begin() + (i + 1) * seg);
    std::vector<int64_t> ones(keys.size(), 1);
    sources.back()->InsertBatch(keys, ones);

    server::Client::ExportedSketch exported;
    // Alternate formats: flat and DVSZ must fold identically.
    uint8_t format = i % 2 == 0 ? 1 : 0;
    ASSERT_EQ(client_.ExportSketch(name, format, &exported),
              server::StatusCode::kOk);
    EXPECT_EQ(exported.height, 0u);  // raw-ingest leaves
    images.push_back(std::move(exported));
  }

  uint32_t height = 0;
  ASSERT_EQ(client_.ImportMerge("agg", images, &height),
            server::StatusCode::kOk);
  EXPECT_EQ(height, 1u);

  // In-process ground truth: left fold in request order.
  for (const auto& source : sources) expected.Merge(*source);

  server::Client::ExportedSketch agg_image;
  ASSERT_EQ(client_.ExportSketch("agg", /*format=*/0, &agg_image),
            server::StatusCode::kOk);
  EXPECT_EQ(agg_image.height, 1u);
  std::stringstream expected_bytes;
  expected.SaveShards(expected_bytes, SketchFormat::kFlat);
  EXPECT_EQ(agg_image.image, expected_bytes.str())
      << "wire fan-in diverged from the in-process left fold";
}

TEST_F(MergeTreeTest, TwoLevelTreeAnswersMatchFlatFold) {
  // Few flows relative to FP capacity ⇒ no evictions, so merge order
  // cannot move mass between parts and the tree answers exactly like the
  // flat left fold.
  Trace trace = BuildSkewedTrace("tree", 8000, 300, 1.05, kSeed + 1);
  const size_t seg = trace.keys.size() / 4;
  const char* leaves[] = {"leaf0", "leaf1", "leaf2", "leaf3"};
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(client_.CreateTenant(leaves[i], kShards, kBytes, kSeed),
              server::StatusCode::kOk);
    IngestSegment(leaves[i], trace, i * seg, (i + 1) * seg);
  }
  for (const char* name : {"mid0", "mid1", "root", "flat"}) {
    ASSERT_EQ(client_.CreateTenant(name, kShards, kBytes, kSeed),
              server::StatusCode::kOk);
  }

  auto exported = [&](const std::string& name) {
    server::Client::ExportedSketch image;
    EXPECT_EQ(client_.ExportSketch(name, /*format=*/1, &image),
              server::StatusCode::kOk);
    return image;
  };
  auto import = [&](const std::string& target,
                    std::vector<server::Client::ExportedSketch> images) {
    uint32_t height = 0;
    EXPECT_EQ(client_.ImportMerge(target, images, &height),
              server::StatusCode::kOk);
    return height;
  };

  // Tree: (leaf0+leaf1) and (leaf2+leaf3), then the two mids.
  EXPECT_EQ(import("mid0", {exported(leaves[0]), exported(leaves[1])}), 1u);
  EXPECT_EQ(import("mid1", {exported(leaves[2]), exported(leaves[3])}), 1u);
  EXPECT_EQ(import("root", {exported("mid0"), exported("mid1")}), 2u);
  // Flat fold of all four leaves in one request.
  EXPECT_EQ(import("flat", {exported(leaves[0]), exported(leaves[1]),
                            exported(leaves[2]), exported(leaves[3])}),
            1u);

  for (uint32_t key : trace.keys) {
    int64_t via_tree = 0, via_flat = 0;
    ASSERT_EQ(client_.Query("root", key, &via_tree), server::StatusCode::kOk);
    ASSERT_EQ(client_.Query("flat", key, &via_flat), server::StatusCode::kOk);
    ASSERT_EQ(via_tree, via_flat) << "key=" << key;
  }

  // Provenance surfaced in health: root sits at height 2, leaves at 0.
  server::HealthReply health;
  ASSERT_EQ(client_.Health("root", &health), server::StatusCode::kOk);
  EXPECT_EQ(health.merge_height, 2u);
  ASSERT_EQ(client_.Health("leaf0", &health), server::StatusCode::kOk);
  EXPECT_EQ(health.merge_height, 0u);
}

TEST_F(MergeTreeTest, ImportValidationFailuresLeaveTargetUntouched) {
  ASSERT_EQ(client_.CreateTenant("tgt", kShards, kBytes, kSeed),
            server::StatusCode::kOk);
  ASSERT_EQ(client_.CreateTenant("src", kShards, kBytes, kSeed),
            server::StatusCode::kOk);
  ASSERT_EQ(client_.Insert("src", 42, 7), server::StatusCode::kOk);
  server::Client::ExportedSketch good;
  ASSERT_EQ(client_.ExportSketch("src", 1, &good), server::StatusCode::kOk);

  // Geometry mismatch: a source with different shard count.
  ASSERT_EQ(client_.CreateTenant("odd", kShards * 2, kBytes, kSeed),
            server::StatusCode::kOk);
  server::Client::ExportedSketch mismatched;
  ASSERT_EQ(client_.ExportSketch("odd", 1, &mismatched),
            server::StatusCode::kOk);

  // Batch = [good, mismatched]: all-or-nothing means even the good image
  // must not land.
  std::vector<server::Client::ExportedSketch> batch;
  batch.push_back(good);
  batch.push_back(mismatched);
  EXPECT_EQ(client_.ImportMerge("tgt", batch, nullptr),
            server::StatusCode::kBadArgument);
  int64_t count = -1;
  ASSERT_EQ(client_.Query("tgt", 42, &count), server::StatusCode::kOk);
  EXPECT_EQ(count, 0);

  // Garbage blob.
  server::Client::ExportedSketch garbage;
  garbage.image = std::string(64, '\x5A');
  std::vector<server::Client::ExportedSketch> bad{garbage};
  EXPECT_EQ(client_.ImportMerge("tgt", bad, nullptr),
            server::StatusCode::kBadArgument);

  // A retired DVSD delta image in shard 0's slot: the shard count is
  // right, so the per-shard Load must reject it. The target's image stays
  // byte-identical and the daemon keeps answering.
  {
    server::Client::ExportedSketch before, after, flat_src;
    ASSERT_EQ(client_.ExportSketch("tgt", 0, &before),
              server::StatusCode::kOk);
    ASSERT_EQ(client_.ExportSketch("src", 0, &flat_src),
              server::StatusCode::kOk);
    std::stringstream header;
    WritePod(header, kRetiredDvsdHeader);
    server::Client::ExportedSketch retired = flat_src;
    retired.image.replace(sizeof(uint32_t), sizeof(uint64_t), header.str());
    std::vector<server::Client::ExportedSketch> delta{retired};
    EXPECT_EQ(client_.ImportMerge("tgt", delta, nullptr),
              server::StatusCode::kBadArgument);
    ASSERT_EQ(client_.ExportSketch("tgt", 0, &after),
              server::StatusCode::kOk);
    EXPECT_EQ(after.image, before.image);
    EXPECT_EQ(client_.Ping(), server::StatusCode::kOk);
  }

  // A source height of UINT32_MAX would wrap the target's height to 0: the
  // request is refused before the (valid) image is applied.
  {
    server::Client::ExportedSketch before, after;
    ASSERT_EQ(client_.ExportSketch("tgt", 0, &before),
              server::StatusCode::kOk);
    server::Client::ExportedSketch towering = good;
    towering.height = UINT32_MAX;
    std::vector<server::Client::ExportedSketch> wrap{towering};
    EXPECT_EQ(client_.ImportMerge("tgt", wrap, nullptr),
              server::StatusCode::kBadArgument);
    ASSERT_EQ(client_.ExportSketch("tgt", 0, &after),
              server::StatusCode::kOk);
    EXPECT_EQ(after.image, before.image);
    EXPECT_EQ(after.height, 0u);
  }

  // Trailing junk after a valid image.
  server::Client::ExportedSketch padded = good;
  padded.image += '\0';
  std::vector<server::Client::ExportedSketch> junk{padded};
  EXPECT_EQ(client_.ImportMerge("tgt", junk, nullptr),
            server::StatusCode::kBadArgument);

  // Unknown tenant / bad format on export.
  server::Client::ExportedSketch unused;
  EXPECT_EQ(client_.ExportSketch("ghost", 1, &unused),
            server::StatusCode::kNoSuchTenant);
  EXPECT_EQ(client_.ExportSketch("src", 2, &unused),
            server::StatusCode::kBadArgument);

  // Empty batch.
  std::vector<server::Client::ExportedSketch> empty;
  EXPECT_EQ(client_.ImportMerge("tgt", empty, nullptr),
            server::StatusCode::kBadArgument);
}

// ---------------------------------------------------------------------------
// DVCK v1 compatibility.

TEST(WireFormatTest, CheckpointV1FlatBodiesStillRecover) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "davinci_wire_format_v1_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const uint32_t shards = 2;
  const uint64_t bytes = 128 * 1024, seed = 31;
  ConcurrentDaVinci engine(shards, bytes, seed);
  Trace trace = BuildSkewedTrace("v1", 20000, 1000, 1.05, seed);
  std::vector<int64_t> ones(trace.keys.size(), 1);
  engine.InsertBatch(trace.keys, ones);

  // Hand-rolled DVCK v1: exactly what pre-compression servers wrote —
  // version 1 with a flat SaveShards body.
  {
    std::ofstream out(dir / "legacy.dvck", std::ios::binary);
    WritePod(out, uint32_t{0x4B435644});  // 'DVCK'
    WritePod(out, uint32_t{1});           // v1
    const std::string name = "legacy";
    WritePod(out, static_cast<uint16_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    WritePod(out, shards);
    WritePod(out, bytes);
    WritePod(out, seed);
    WritePod(out, uint32_t{0});  // window_epochs
    WritePod(out, uint64_t{3});  // epoch
    engine.SaveShards(out, SketchFormat::kFlat);
    WritePod(out, uint32_t{0x44564B43});  // 'KCVD'
  }

  server::TenantRegistry registry(dir.string());
  ASSERT_EQ(registry.RecoverAll(), 1u);
  EXPECT_FALSE(registry.RecoveredEmpty("legacy"));
  std::shared_ptr<server::Tenant> tenant = registry.Find("legacy");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->epoch(), 3u);
  for (size_t i = 0; i < 64; ++i) {
    uint32_t key = trace.keys[i * (trace.keys.size() / 64)];
    EXPECT_EQ(tenant->engine().Query(key), engine.Query(key)) << key;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace davinci
