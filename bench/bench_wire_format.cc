// Flat vs DVSZ wire-format bench (DESIGN.md §Wire format).
//
// Builds one sketch over a zipf-1.05 insert workload — the acceptance
// workload for the compressed format — and measures:
//
//   1. compression_ratio_full   flat SaveShards bytes / DVSZ bytes for the
//                               full image (CI floors this at 4x).
//   2. encode/decode throughput for both formats, in MiB/s of FLAT image
//      bytes per second (the logical state moved, so the two formats are
//      directly comparable).
//   3. merge_tree_images_per_s: fan-in fold throughput — N exported DVSZ
//      images decoded and left-folded into a live target, the server's
//      kImportMerge inner loop without the socket.
//
// The bench doubles as a correctness gate: the compressed round trip must
// re-save to the exact flat bytes, or it exits nonzero.
//
// Env knobs: DAVINCI_BENCH_TRACE_LEN (default 1'000'000 keys),
// DAVINCI_BENCH_SKETCH_BYTES (default 1 MiB), DAVINCI_BENCH_FANIN
// (default 8 images). Output: results/BENCH_wire_format.json.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/davinci_sketch.h"
#include "workload/trace.h"

namespace davinci::bench {
namespace {

size_t EnvCount(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  long long value = std::atoll(env);
  return value > 0 ? static_cast<size_t>(value) : fallback;
}

std::string FlatBytes(const DaVinciSketch& sketch) {
  std::stringstream out;
  sketch.Save(out);
  return out.str();
}

int Run() {
  const size_t trace_len = EnvCount("DAVINCI_BENCH_TRACE_LEN", 1'000'000);
  const size_t sketch_bytes =
      EnvCount("DAVINCI_BENCH_SKETCH_BYTES", size_t{1} << 20);
  const size_t fanin = EnvCount("DAVINCI_BENCH_FANIN", 8);
  const uint64_t seed = 42;
  const int reps = 5;

  Trace trace = BuildSkewedTrace("wire", trace_len, trace_len / 20, 1.05,
                                 seed);
  DaVinciSketch sketch(sketch_bytes, seed);
  for (uint32_t key : trace.keys) sketch.Insert(key, 1);

  BenchJson json("wire_format");
  json.Count("trace_len", trace.keys.size());
  json.Count("sketch_bytes", sketch_bytes);
  json.Count("fanin", fanin);

  // ---- full-image sizes + encode/decode throughput ----
  std::string flat = FlatBytes(sketch);
  std::string compressed;
  {
    std::stringstream out;
    sketch.Save(out, SketchFormat::kCompressed);
    compressed = out.str();
  }
  const double flat_mib = static_cast<double>(flat.size()) / (1 << 20);
  const double ratio = static_cast<double>(flat.size()) /
                       static_cast<double>(compressed.size());
  json.Count("flat_bytes", flat.size());
  json.Count("dvsz_bytes", compressed.size());
  json.Metric("compression_ratio_full", ratio);
  std::printf("full image: flat %zu B, dvsz %zu B, ratio %.2fx\n",
              flat.size(), compressed.size(), ratio);

  {
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      std::stringstream out;
      sketch.Save(out, SketchFormat::kCompressed);
    }
    json.Metric("encode_dvsz_mibps", reps * flat_mib / timer.ElapsedSeconds());
  }
  {
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      std::stringstream out;
      sketch.Save(out);
    }
    json.Metric("encode_flat_mibps", reps * flat_mib / timer.ElapsedSeconds());
  }
  {
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      std::stringstream in(compressed);
      DaVinciSketch loaded(1024, 0);
      if (!DaVinciSketch::Load(in, &loaded)) {
        std::fprintf(stderr, "bench_wire_format: dvsz load failed\n");
        return 1;
      }
    }
    json.Metric("decode_dvsz_mibps", reps * flat_mib / timer.ElapsedSeconds());
  }

  // Correctness gate: the compressed round trip must re-save bit-identical.
  {
    std::stringstream in(compressed);
    DaVinciSketch loaded(1024, 0);
    if (!DaVinciSketch::Load(in, &loaded) || FlatBytes(loaded) != flat) {
      std::fprintf(stderr,
                   "bench_wire_format: compressed round trip diverged\n");
      return 1;
    }
  }

  // ---- merge-tree fold throughput ----
  {
    // N leaf sketches over disjoint trace segments, exported as DVSZ.
    std::vector<std::string> images;
    const size_t seg = trace.keys.size() / fanin;
    for (size_t i = 0; i < fanin; ++i) {
      DaVinciSketch leaf(sketch_bytes, seed);
      for (size_t k = i * seg; k < (i + 1) * seg; ++k) {
        leaf.Insert(trace.keys[k], 1);
      }
      std::stringstream out;
      leaf.Save(out, SketchFormat::kCompressed);
      images.push_back(out.str());
    }
    DaVinciSketch target(sketch_bytes, seed);
    Timer timer;
    for (const std::string& image : images) {
      std::stringstream in(image);
      DaVinciSketch staged(1024, 0);
      if (!DaVinciSketch::Load(in, &staged)) {
        std::fprintf(stderr, "bench_wire_format: fold image load failed\n");
        return 1;
      }
      target.Merge(staged);
    }
    double seconds = timer.ElapsedSeconds();
    json.Metric("merge_tree_images_per_s",
                seconds > 0.0 ? static_cast<double>(fanin) / seconds : 0.0);
    std::printf("fold: %zu images in %.3f s\n", fanin, seconds);
  }

  json.Write();
  return 0;
}

}  // namespace
}  // namespace davinci::bench

int main() { return davinci::bench::Run(); }
