// The layer ladder (README.md §Traced run). A traced run replays the
// request stream it sent over the wire in process, once per rung and each
// rung on its own replica fleet, so every rung sees the same state
// evolution. Every replayed request keeps its wire request id, so a
// layer's self time is its span minus the span one rung below for the
// same id. Spans live in memory and are written out at exit.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "bench.h"
#include "common/hash.h"
#include "core/davinci_sketch.h"
#include "core/epoch_manager.h"
#include "obs/health.h"
#include "obs/stats.h"
#include "server/dispatcher.h"
#include "server/tenant.h"

namespace perfbench {

using davinci::ConcurrentDaVinci;
using davinci::DaVinciSketch;
using davinci::EpochManager;
using davinci::HashFamily;
using davinci::SketchFormat;
using davinci::SketchView;
using davinci::server::Op;
using davinci::server::RequestDispatcher;
using davinci::server::Tenant;
using davinci::server::TenantOptions;
using davinci::server::TenantRegistry;

namespace {

// Rungs, top to bottom.
enum Rung : int {
  kServer,
  kDispatcher,
  kTenant,
  kConcurrent,
  kView,
  kSketch,
  kIfp,
  kRungs
};
const char* const kRungNames[kRungs] = {"server", "dispatcher", "tenant",
                                        "concurrent", "view", "sketch", "ifp"};

// The rungs each request path passes through, top to bottom.
const std::vector<Rung>& Chain(const std::string& path) {
  static const std::vector<Rung> ingest{kServer, kDispatcher, kTenant,
                                        kConcurrent, kSketch};
  static const std::vector<Rung> query{kServer, kDispatcher, kTenant,
                                       kConcurrent, kView, kSketch, kIfp};
  static const std::vector<Rung> analytic{kServer, kDispatcher, kConcurrent,
                                          kIfp, kSketch};
  if (path == "ingest") return ingest;
  if (path == "analytic") return analytic;
  return query;
}

std::string PathOf(Op op) {
  switch (op) {
    case Op::kInsertBatch: return "ingest";
    case Op::kQuery: return "query";
    case Op::kQueryBatch: return "query_batch";
    default: return "analytic";
  }
}

constexpr const char* kNotRun = "n/a: this workload never runs it";

struct Span {
  uint64_t id;
  Rung rung;
  int64_t ns;
};

TenantOptions OptionsOf(const Fleet::TenantSpec& spec) {
  TenantOptions options;
  options.shards = spec.shards;
  options.total_bytes = spec.bytes;
  options.seed = spec.seed;
  options.window_epochs = spec.window_epochs;
  return options;
}

// ConcurrentDaVinci's shard routing (same hash, same seed derivation), so
// the view and sketch rungs can group keys exactly as the engine does.
struct ShardRouter {
  HashFamily hash;
  size_t shards;
  explicit ShardRouter(const Fleet::TenantSpec& spec)
      : hash(spec.seed * 31001011 + 13), shards(spec.shards) {}
  size_t Of(uint32_t key) const { return hash.BucketFast(key, shards); }
};

class Ladder {
 public:
  Ladder(const Options& options, RunResult& result)
      : options_(options), result_(result), fleet_(result.fleet) {}

  void Run() {
    for (const Request& request : result_.log) {
      if (request.traced && request.ok) {
        Record(request.id, kServer, request.end_ns - request.start_ns);
      }
    }
    ReplayDispatcher();
    ReplayTenant();
    ReplayConcurrent();
    ReplayView();
    ReplaySketch();
    Report();
    WriteSpans();
  }

 private:
  void Record(uint64_t id, Rung rung, int64_t ns) {
    spans_.push_back({id, rung, ns});
  }

  template <typename F>
  int64_t Time(F&& f) {
    int64_t begin = NowNs();
    f();
    return NowNs() - begin;
  }

  static std::span<const uint32_t> Keys(const Request& request) {
    return {request.batch, request.batch_len};
  }
  std::span<const int64_t> Ones(size_t n) {
    if (ones_.size() < n) ones_.assign(n, 1);
    return {ones_.data(), n};
  }

  std::vector<std::unique_ptr<Tenant>> MakeTenants() const {
    std::vector<std::unique_ptr<Tenant>> tenants;
    for (const Fleet::TenantSpec& spec : fleet_.tenants) {
      tenants.push_back(std::make_unique<Tenant>(spec.name, OptionsOf(spec)));
    }
    return tenants;
  }

  // ---- dispatcher: RequestDispatcher::Handle on prebuilt bodies ----
  void ReplayDispatcher() {
    TenantRegistry registry("");
    RequestDispatcher dispatcher(&registry);
    for (const Fleet::TenantSpec& spec : fleet_.tenants) {
      registry.Create(spec.name, OptionsOf(spec));
    }
    for (const Request& request : result_.log) {
      std::string body = RequestBody(fleet_, request);
      std::span<const uint8_t> bytes(
          reinterpret_cast<const uint8_t*>(body.data()), body.size());
      Record(request.id, kDispatcher,
             Time([&] { (void)dispatcher.Handle(bytes); }));
      if (PathOf(request.op) == "analytic") {
        op_ns_[std::string("dispatcher.") + OpName(request.op)].Add(
            static_cast<double>(spans_.back().ns));
      }
    }
  }

  // ---- tenant: server::Tenant on its engine ----
  void ReplayTenant() {
    auto tenants = MakeTenants();
    for (const Request& request : result_.log) {
      Tenant& tenant = *tenants[request.tenant];
      switch (request.op) {
        case Op::kInsertBatch:
          Record(request.id, kTenant, Time([&] {
                   tenant.InsertBatch(Keys(request), Ones(request.batch_len));
                 }));
          break;
        case Op::kQuery:
          Record(request.id, kTenant,
                 Time([&] { (void)tenant.engine().Query(request.keys[0]); }));
          break;
        case Op::kQueryBatch:
          Record(request.id, kTenant, Time([&] {
                   (void)tenant.engine().QueryBatch(request.keys);
                 }));
          break;
        case Op::kAdvanceEpoch:
          tenant.AdvanceEpoch();
          break;
        case Op::kImportMerge:
          Import(tenant.engine(), request, nullptr);
          break;
        default:
          break;
      }
    }
  }

  // Folds the request's images into `engine`; optionally times the
  // DVSZ parse and the shard merge.
  void Import(ConcurrentDaVinci& engine, const Request& request,
              Samples* merge_ns) {
    std::vector<std::vector<DaVinciSketch>> staged;
    for (const std::string& image : *request.images) {
      std::istringstream in(image);
      std::vector<DaVinciSketch> shards;
      if (!engine.ParseShardImage(in, &shards)) return;
      staged.push_back(std::move(shards));
    }
    int64_t ns = Time([&] { engine.MergeShardImages(std::move(staged)); });
    if (merge_ns != nullptr) merge_ns->Add(static_cast<double>(ns));
  }

  // ---- concurrent: ConcurrentDaVinci, plus the analytic components ----
  void ReplayConcurrent() {
    auto tenants = MakeTenants();
    // The epoch rung of the (single) windowed tenant: fleet_analytics has
    // one, the other workloads none.
    std::unique_ptr<EpochManager> window;
    uint64_t clone_bytes = 0;
    size_t insert_batches = 0;
    for (const Request& request : result_.log) {
      Tenant& tenant = *tenants[request.tenant];
      ConcurrentDaVinci& engine = tenant.engine();
      const Fleet::TenantSpec& spec = fleet_.tenants[request.tenant];
      if (spec.window_epochs > 0 && !window) {
        window = std::make_unique<EpochManager>(
            spec.window_epochs,
            std::max<uint64_t>(8 * 1024, spec.bytes / spec.shards), spec.seed);
      }
      switch (request.op) {
        case Op::kInsertBatch: {
          uint64_t before = davinci::obs::CowTally::CloneBytes();
          Record(request.id, kConcurrent, Time([&] {
                   engine.InsertBatch(Keys(request), Ones(request.batch_len));
                 }));
          clone_bytes += davinci::obs::CowTally::CloneBytes() - before;
          ++insert_batches;
          if (spec.window_epochs > 0) {
            window->InsertBatch(Keys(request), Ones(request.batch_len));
          }
          break;
        }
        case Op::kQuery:
          Record(request.id, kConcurrent,
                 Time([&] { (void)engine.Query(request.keys[0]); }));
          concurrent_query_ns_.Add(static_cast<double>(spans_.back().ns));
          break;
        case Op::kQueryBatch:
          Record(request.id, kConcurrent,
                 Time([&] { (void)engine.QueryBatch(request.keys); }));
          concurrent_batch_ns_.Add(static_cast<double>(spans_.back().ns));
          break;
        case Op::kAdvanceEpoch: {
          int64_t ns = Time([&] { window->Advance(); });
          component_["epoch.advance_ms"].Add(static_cast<double>(ns));
          Record(request.id, kConcurrent, ns);
          break;
        }
        case Op::kImportMerge:
          Import(engine, request, &component_["concurrent.merge_shard_images_ms"]);
          break;
        case Op::kWindowHeavyChangers: {
          int64_t merged = Time([&] { (void)window->MergedWindow(); });
          component_["epoch.merged_window_ms"].Add(static_cast<double>(merged));
          int64_t total = Time([&] { (void)window->HeavyChangers(request.arg); });
          Record(request.id, kConcurrent, total);
          break;
        }
        default:
          Analytic(tenants, request);
          break;
      }
    }
    if (insert_batches > 0) {
      result_.metrics.Set("concurrent.cow_clone_bytes_per_batch",
                          static_cast<double>(clone_bytes) /
                              static_cast<double>(insert_batches),
                          "B", insert_batches);
    }
    double load = 0.0;
    size_t n = 0;
    for (const auto& tenant : tenants) {
      davinci::obs::HealthSnapshot one;
      tenant->engine().CollectStats(&one);
      if (one.inserts == 0) continue;
      load += one.ifp.Load();
      ++n;
    }
    result_.metrics.Set("ifp.load", n ? load / static_cast<double>(n) : 0.0,
                        "ratio");
  }

  // An analytic op below the dispatcher, split into its components:
  // snapshot (concurrent), merged decode (ifp), then the estimator with the
  // decode cache already filled (sketch). Recorded cumulatively, so the
  // rung chain concurrent > ifp > sketch nests.
  void Analytic(std::vector<std::unique_ptr<Tenant>>& tenants,
                const Request& request) {
    ConcurrentDaVinci& engine = tenants[request.tenant]->engine();
    int64_t snapshot_ns = 0, decode_ns = 0, op_ns = 0;
    auto snapshot = [&](ConcurrentDaVinci& e) {
      std::unique_ptr<DaVinciSketch> out;
      snapshot_ns += Time(
          [&] { out = std::make_unique<DaVinciSketch>(e.Snapshot()); });
      return out;
    };
    auto decode = [&](const DaVinciSketch& s) {
      decode_ns += Time([&] { (void)s.DecodedFlows(); });
    };
    switch (request.op) {
      case Op::kHeavyHitters: {
        // Answered per published view (no merged snapshot): load the views,
        // fill any cold decode cache, then the per-view estimator.
        std::vector<std::shared_ptr<const SketchView>> views;
        snapshot_ns = Time([&] { views = engine.SnapshotAll(); });
        for (const auto& view : views) decode(view->sketch());
        op_ns = Time([&] {
          for (const auto& view : views) {
            (void)view->sketch().HeavyHitters(request.arg);
          }
        });
        component_["sketch.heavy_hitters_ms"].Add(static_cast<double>(op_ns));
        break;
      }
      case Op::kCardinality:
        op_ns = Time([&] { (void)engine.EstimateCardinality(); });
        break;
      case Op::kDistribution: {
        auto s = snapshot(engine);
        decode(*s);
        op_ns = Time([&] { (void)s->Distribution(); });
        component_["sketch.distribution_ms"].Add(static_cast<double>(op_ns));
        break;
      }
      case Op::kEntropy: {
        auto s = snapshot(engine);
        decode(*s);
        op_ns = Time([&] { (void)s->EstimateEntropy(); });
        component_["sketch.entropy_ms"].Add(static_cast<double>(op_ns));
        break;
      }
      case Op::kUnionCardinality: {
        auto a = snapshot(engine);
        auto b = snapshot(tenants[request.tenant_b]->engine());
        op_ns = Time([&] {
          a->Merge(*b);
          (void)a->EstimateCardinality();
        });
        component_["sketch.merge_ms"].Add(static_cast<double>(op_ns));
        break;
      }
      case Op::kInnerProduct: {
        auto a = snapshot(engine);
        auto b = snapshot(tenants[request.tenant_b]->engine());
        decode(*a);
        decode(*b);
        op_ns = Time([&] { (void)DaVinciSketch::InnerProduct(*a, *b); });
        component_["sketch.inner_product_ms"].Add(static_cast<double>(op_ns));
        break;
      }
      case Op::kHeavyChangers: {
        auto a = snapshot(engine);
        auto b = snapshot(tenants[request.tenant_b]->engine());
        op_ns = Time([&] { (void)a->HeavyChangers(*b, request.arg); });
        break;
      }
      case Op::kDifferenceQuery: {
        auto a = snapshot(engine);
        auto b = snapshot(tenants[request.tenant_b]->engine());
        op_ns = Time([&] {
          a->Subtract(*b);
          (void)a->QueryBatch(request.keys);
        });
        break;
      }
      case Op::kExportSketch: {
        engine.FlushViews();
        std::vector<std::shared_ptr<const SketchView>> views =
            engine.SnapshotAll();
        std::vector<std::string> images;
        op_ns = Time([&] {
          for (const auto& view : views) {
            std::ostringstream out;
            view->sketch().Save(out, SketchFormat::kCompressed);
            images.push_back(std::move(out).str());
          }
        });
        component_["sketch.save_dvsz_ms"].Add(static_cast<double>(op_ns));
        int64_t load_ns = Time([&] {
          for (const std::string& image : images) {
            std::istringstream in(image);
            DaVinciSketch sketch(8 * 1024, 0);
            (void)DaVinciSketch::Load(in, &sketch);
          }
        });
        component_["sketch.load_dvsz_ms"].Add(static_cast<double>(load_ns));
        break;
      }
      default:
        return;
    }
    if (snapshot_ns > 0 && request.op != Op::kHeavyHitters) {
      component_["concurrent.snapshot_ms"].Add(static_cast<double>(snapshot_ns));
    }
    if (decode_ns > 0 && request.op != Op::kHeavyHitters) {
      component_["ifp.merged_decode_ms"].Add(static_cast<double>(decode_ns));
    }
    Record(request.id, kConcurrent, snapshot_ns + decode_ns + op_ns);
    Record(request.id, kIfp, decode_ns + op_ns);
    Record(request.id, kSketch, op_ns);
  }

  // ---- view: SketchView reads on the published per-shard views ----
  void ReplayView() {
    auto tenants = MakeTenants();
    // The view each shard last decoded (a view decodes at most once).
    std::map<std::pair<uint32_t, size_t>, const SketchView*> decoded;
    uint64_t queries = 0, keys = 0, fp_answered = 0, decodes = 0;
    for (const Request& request : result_.log) {
      Tenant& tenant = *tenants[request.tenant];
      ShardRouter router(fleet_.tenants[request.tenant]);
      if (request.op == Op::kInsertBatch) {
        tenant.engine().InsertBatch(Keys(request), Ones(request.batch_len));
        continue;
      }
      if (request.op == Op::kImportMerge) {
        Import(tenant.engine(), request, nullptr);
        continue;
      }
      if (request.op != Op::kQuery && request.op != Op::kQueryBatch) continue;
      ++queries;
      std::vector<std::shared_ptr<const SketchView>> views =
          tenant.engine().SnapshotAll();
      // Classify before timing: a key the FP settles never decodes; any
      // other key decodes its shard's view unless that view already has.
      bool cold = false;
      std::vector<std::vector<uint32_t>> groups(views.size());
      for (uint32_t key : request.keys) {
        size_t shard = router.Of(key);
        groups[shard].push_back(key);
        bool tainted = false;
        int64_t fp = views[shard]->sketch().frequent_part().QueryWithBase(
            HashFamily::BaseHash(key), key, &tainted);
        bool settled = fp != 0 && !tainted;
        ++keys;
        if (settled) ++fp_answered;
        bool needs_decode = request.op == Op::kQueryBatch || !settled;
        auto slot = std::make_pair(request.tenant, shard);
        if (needs_decode && decoded[slot] != views[shard].get()) {
          decoded[slot] = views[shard].get();
          ++decodes;
          cold = true;
          DecodeAtIfp(request.id, views[shard]->sketch());
        }
      }
      int64_t ns = 0;
      if (request.op == Op::kQuery) {
        size_t shard = router.Of(request.keys[0]);
        ns = Time([&] { (void)views[shard]->Query(request.keys[0]); });
        (cold ? query_cold_ns_ : query_warm_ns_).Add(static_cast<double>(ns));
      } else {
        for (size_t s = 0; s < views.size(); ++s) {
          if (groups[s].empty()) continue;
          ns += Time([&] { (void)views[s]->QueryBatch(groups[s]); });
        }
      }
      Record(request.id, kView, ns);
    }
    MetricSink& m = result_.metrics;
    m.Set("view.fp_answered_frac",
          keys ? static_cast<double>(fp_answered) / static_cast<double>(keys)
               : 0.0,
          "ratio", keys);
    m.Set("view.decodes_per_kquery",
          queries ? static_cast<double>(decodes) * 1000.0 /
                        static_cast<double>(queries)
                  : 0.0,
          "count", queries, "decodes per 1000 kQuery/kQueryBatch requests");
  }

  // The ifp rung of a cold read: the Fermat peel the view is about to run,
  // timed on an identical copy of the shard's sketch.
  void DecodeAtIfp(uint64_t id, const DaVinciSketch& sketch) {
    const davinci::DaVinciConfig& config = sketch.config();
    davinci::InfrequentPart::DecodeOptions options;
    options.num_threads = config.decode_threads;
    options.min_buckets_per_worker = config.decode_min_buckets_per_worker;
    const davinci::InfrequentPart& ifp = sketch.infrequent_part();
    davinci::obs::IfpHealth before, after;
    ifp.CollectStats(&before);
    int64_t ns = Time([&] {
      (void)ifp.Decode(
          config.decode_cross_validation ? &sketch.element_filter() : nullptr,
          options);
    });
    ifp.CollectStats(&after);
    decode_ns_.Add(static_cast<double>(ns));
    decoded_flows_ += after.decoded_flows - before.decoded_flows;
    rejected_ += after.decode_rejected_by_filter -
                 before.decode_rejected_by_filter;
    ifp_ns_[id] += ns;
  }

  // ---- sketch: DaVinciSketch per shard (inserts without publication;
  // reads on the views' frozen sketches) ----
  void ReplaySketch() {
    // Insert kernel: one standalone sketch per shard, fed the shard groups
    // the engine would build, never snapshotted (so no CoW clones).
    std::vector<std::vector<std::unique_ptr<DaVinciSketch>>> shards;
    for (const Fleet::TenantSpec& spec : fleet_.tenants) {
      std::vector<std::unique_ptr<DaVinciSketch>> row;
      for (uint32_t s = 0; s < spec.shards; ++s) {
        row.push_back(std::make_unique<DaVinciSketch>(
            std::max<uint64_t>(8 * 1024, spec.bytes / spec.shards), spec.seed));
      }
      shards.push_back(std::move(row));
    }
    auto tenants = MakeTenants();
    uint64_t insert_keys = 0;
    int64_t insert_ns = 0;
    for (const Request& request : result_.log) {
      ShardRouter router(fleet_.tenants[request.tenant]);
      Tenant& tenant = *tenants[request.tenant];
      if (request.op == Op::kInsertBatch) {
        tenant.engine().InsertBatch(Keys(request), Ones(request.batch_len));
        std::vector<std::vector<uint32_t>> groups(router.shards);
        for (uint32_t key : Keys(request)) groups[router.Of(key)].push_back(key);
        int64_t ns = Time([&] {
          for (size_t s = 0; s < groups.size(); ++s) {
            if (!groups[s].empty()) shards[request.tenant][s]->InsertBatch(groups[s]);
          }
        });
        insert_ns += ns;
        insert_keys += request.batch_len;
        Record(request.id, kSketch, ns);
        continue;
      }
      if (request.op == Op::kImportMerge) {
        Import(tenant.engine(), request, nullptr);
        continue;
      }
      if (request.op != Op::kQuery && request.op != Op::kQueryBatch) continue;
      std::vector<std::shared_ptr<const SketchView>> views =
          tenant.engine().SnapshotAll();
      int64_t ns = 0;
      if (request.op == Op::kQuery) {
        const DaVinciSketch& sketch = views[router.Of(request.keys[0])]->sketch();
        ns = Time([&] { (void)sketch.Query(request.keys[0]); });
      } else {
        std::vector<std::vector<uint32_t>> groups(views.size());
        for (uint32_t key : request.keys) groups[router.Of(key)].push_back(key);
        for (size_t s = 0; s < views.size(); ++s) {
          if (groups[s].empty()) continue;
          ns += Time([&] { (void)views[s]->sketch().QueryBatch(groups[s]); });
        }
      }
      Record(request.id, kSketch, ns);
    }
    MetricSink& m = result_.metrics;
    m.Set("sketch.insert_batch_mkeys_s",
          insert_ns > 0 ? static_cast<double>(insert_keys) * 1e3 /
                              static_cast<double>(insert_ns)
                        : 0.0,
          "Mkeys/s", insert_keys);
    davinci::obs::HealthSnapshot health;
    for (const auto& row : shards) {
      for (const auto& sketch : row) {
        davinci::obs::HealthSnapshot one;
        sketch->CollectStats(&one);
        health.Accumulate(one);
      }
    }
    m.Set("fp.hit_frac",
          health.fp.inserts ? static_cast<double>(health.fp.hits) /
                                  static_cast<double>(health.fp.inserts)
                            : 0.0,
          "ratio");
    m.Set("ef.promotions_per_mkey",
          health.inserts ? static_cast<double>(health.ef.promotions) * 1e6 /
                               static_cast<double>(health.inserts)
                         : 0.0,
          "count");
  }

  // ---- per-layer metrics and the self-time table ----
  void Report() {
    for (const auto& [id, ns] : ifp_ns_) Record(id, kIfp, ns);
    // span[rung][id]
    std::vector<std::map<uint64_t, int64_t>> span(kRungs);
    for (const Span& s : spans_) span[s.rung][s.id] = s.ns;
    std::map<uint64_t, Op> op_of;
    for (const Request& request : result_.log) op_of[request.id] = request.op;

    MetricSink& m = result_.metrics;
    auto median_us = [](const Samples& s) { return s.Median() * 1e-3; };
    auto median_ms = [](const Samples& s) { return s.Median() * 1e-6; };

    m.Set("server.ingest_self_us", 0.0, "us", 0, "n/a: no traced insert");
    m.Set("server.query_self_us", 0.0, "us", 0, "n/a: no traced kQuery");
    // Self times along each path's chain, for ids traced at the server.
    // Self times along a chain for the server-traced ids `match` selects:
    // one line of per-rung medians, their sum and the remainder.
    auto self_table = [&](const std::string& label,
                          const std::vector<Rung>& chain, auto match,
                          std::vector<Samples>* self) {
      self->assign(chain.size(), Samples());
      Samples e2e;
      for (const auto& [id, server_ns] : span[kServer]) {
        if (!match(op_of[id])) continue;
        e2e.Add(static_cast<double>(server_ns));
        for (size_t i = 0; i < chain.size(); ++i) {
          auto it = span[chain[i]].find(id);
          int64_t mine = it == span[chain[i]].end() ? 0 : it->second;
          int64_t below = 0;
          if (i + 1 < chain.size()) {
            auto next = span[chain[i + 1]].find(id);
            below = next == span[chain[i + 1]].end() ? 0 : next->second;
          }
          (*self)[i].Add(static_cast<double>(mine - below));
        }
      }
      if (e2e.empty()) return std::make_pair(0.0, size_t{0});
      double sum = 0.0;
      std::string table;
      for (size_t i = 0; i < chain.size(); ++i) {
        double us = median_us((*self)[i]);
        sum += us;
        char cell[96];
        std::snprintf(cell, sizeof(cell), "%s=%.2f ", kRungNames[chain[i]], us);
        table += cell;
      }
      double remainder = median_us(e2e) - sum;
      char summary[256];
      std::snprintf(summary, sizeof(summary),
                    "e2e_median_us=%.2f sum_of_self_medians_us=%.2f "
                    "remainder_us=%.2f n=%zu",
                    median_us(e2e), sum, remainder, e2e.size());
      ladder_lines_.push_back(label + ": " + table + "| " + summary);
      return std::make_pair(remainder, e2e.size());
    };
    for (const std::string path : {"ingest", "query", "query_batch", "analytic"}) {
      std::vector<Samples> self;
      auto [remainder, n] = self_table(
          path, Chain(path), [&](Op op) { return PathOf(op) == path; }, &self);
      if (n == 0) {
        m.Set("ladder." + path + "_remainder_us", 0.0, "us", 0,
              "n/a: no traced request on this path");
        continue;
      }
      m.Set("ladder." + path + "_remainder_us", remainder, "us", n,
            "end-to-end median minus the sum of per-rung self-time medians");
      if (path == "ingest") {
        m.Set("server.ingest_self_us", median_us(self[0]), "us", self[0].size());
      } else if (path == "query") {
        m.Set("server.query_self_us", median_us(self[0]), "us", self[0].size());
      }
    }
    // The analytic path mixes ops of very different cost; one line per op.
    std::set<Op> analytic_ops;
    for (const auto& [id, op] : op_of) {
      if (PathOf(op) == "analytic") analytic_ops.insert(op);
    }
    for (Op op : analytic_ops) {
      std::vector<Samples> self;
      self_table(std::string("analytic/") + OpName(op), Chain("analytic"),
                 [op](Op other) { return other == op; }, &self);
    }

    auto span_median = [&](Rung rung, Op op) {
      Samples s;
      for (const auto& [id, ns] : span[rung]) {
        if (op_of[id] == op) s.Add(static_cast<double>(ns));
      }
      return s;
    };
    Samples d_insert = span_median(kDispatcher, Op::kInsertBatch);
    Samples d_query = span_median(kDispatcher, Op::kQuery);
    Samples d_batch = span_median(kDispatcher, Op::kQueryBatch);
    m.Set("dispatcher.insert_batch_us", median_us(d_insert), "us", d_insert.size());
    m.Set("dispatcher.query_us", median_us(d_query), "us", d_query.size());
    m.Set("dispatcher.query_batch_us", median_us(d_batch), "us", d_batch.size());
    Samples c_insert = span_median(kConcurrent, Op::kInsertBatch);
    m.Set("concurrent.insert_batch_us", median_us(c_insert), "us", c_insert.size());
    m.Set("concurrent.query_us", median_us(concurrent_query_ns_), "us",
          concurrent_query_ns_.size());
    m.Set("concurrent.query_batch_us", median_us(concurrent_batch_ns_), "us",
          concurrent_batch_ns_.size());
    m.Set("view.query_warm_us", median_us(query_warm_ns_), "us",
          query_warm_ns_.size(), query_warm_ns_.empty() ? kNotRun : "");
    m.Set("view.query_cold_us", median_us(query_cold_ns_), "us",
          query_cold_ns_.size(),
          query_cold_ns_.empty() ? "n/a: no kQuery met a cold view" : "");
    m.Set("ifp.decode_ms", median_ms(decode_ns_), "ms", decode_ns_.size(),
          decode_ns_.empty() ? "n/a: no read met a cold view" : "");
    m.Set("ifp.decode_rejected_frac",
          decoded_flows_ + rejected_
              ? static_cast<double>(rejected_) /
                    static_cast<double>(decoded_flows_ + rejected_)
              : 0.0,
          "ratio", decoded_flows_ + rejected_,
          "rejected candidates / (decoded flows + rejected)");
    for (const char* op :
         {"heavy_hitters", "cardinality", "distribution", "entropy", "union",
          "inner_product", "heavy_changers", "difference",
          "window_heavy_changers", "export", "import_merge", "advance_epoch"}) {
      const Samples& s = op_ns_[std::string("dispatcher.") + op];
      m.Set(std::string("dispatcher.") + op + "_ms", median_ms(s), "ms",
            s.size(), s.empty() ? kNotRun : "");
    }
    for (const char* name :
         {"concurrent.snapshot_ms", "ifp.merged_decode_ms", "sketch.merge_ms",
          "sketch.distribution_ms", "sketch.entropy_ms",
          "sketch.heavy_hitters_ms", "sketch.inner_product_ms",
          "sketch.save_dvsz_ms", "sketch.load_dvsz_ms",
          "concurrent.merge_shard_images_ms", "epoch.advance_ms",
          "epoch.merged_window_ms"}) {
      const Samples& s = component_[name];
      m.Set(name, median_ms(s), "ms", s.size(), s.empty() ? kNotRun : "");
    }

    // Wire bytes per ingested key, from the logged insert frames.
    uint64_t bytes = 0, keys = 0;
    for (const Request& request : result_.log) {
      if (request.op == Op::kInsertBatch && request.ok) {
        bytes += request.wire_bytes;
        keys += request.batch_len;
      }
    }
    m.Set("server.wire_bytes_per_key",
          keys ? static_cast<double>(bytes) / static_cast<double>(keys) : 0.0,
          "B/key");

    // Tracing overhead: even request ids carry a server span, odd ids do
    // not; both ran in the same run against the same state.
    for (const std::string path : {"ingest", "query", "query_batch", "analytic"}) {
      Samples traced, untraced;
      for (const Request& request : result_.log) {
        if (PathOf(request.op) != path || !request.ok || request.setup) {
          continue;
        }
        int64_t from = request.due_ns ? request.due_ns : request.start_ns;
        (request.traced ? traced : untraced)
            .Add(static_cast<double>(request.end_ns - from));
      }
      if (traced.empty() || untraced.empty()) {
        m.Set("trace.overhead_" + path + "_us", 0.0, "us", 0,
              "n/a: no requests on this path");
        continue;
      }
      m.Set("trace.overhead_" + path + "_us",
            (traced.Median() - untraced.Median()) * 1e-3, "us", traced.size());
    }
  }

  void WriteSpans() {
    std::error_code ec;
    std::filesystem::create_directories(options_.out_dir, ec);
    std::string path = options_.out_dir + "/spans_" + options_.workload +
                       "_seed" + std::to_string(options_.seed) + ".tsv";
    std::ofstream out(path);
    out << "id\top\trung\tns\n";
    std::map<uint64_t, Op> op_of;
    for (const Request& request : result_.log) op_of[request.id] = request.op;
    for (const Span& s : spans_) {
      out << s.id << '\t' << OpName(op_of[s.id]) << '\t' << kRungNames[s.rung]
          << '\t' << s.ns << '\n';
    }
    result_.params["spans_file"] = path;
    for (size_t i = 0; i < ladder_lines_.size(); ++i) {
      char key[32];
      std::snprintf(key, sizeof(key), "ladder_%03zu", i);
      result_.params[key] = ladder_lines_[i];
    }
  }

  const Options& options_;
  RunResult& result_;
  const Fleet& fleet_;
  std::vector<Span> spans_;
  std::vector<int64_t> ones_;
  std::map<std::string, Samples> op_ns_;
  std::map<std::string, Samples> component_;
  std::map<uint64_t, int64_t> ifp_ns_;
  Samples concurrent_query_ns_, concurrent_batch_ns_;
  Samples query_warm_ns_, query_cold_ns_, decode_ns_;
  uint64_t decoded_flows_ = 0, rejected_ = 0;
  std::vector<std::string> ladder_lines_;
};

}  // namespace

void RunLadder(const Options& options, RunResult& result) {
  Ladder ladder(options, result);
  ladder.Run();
}

}  // namespace perfbench
