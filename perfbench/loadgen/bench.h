#ifndef PERFBENCH_LOADGEN_BENCH_H_
#define PERFBENCH_LOADGEN_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/protocol.h"

// Shared types of the repository benchmark's load generator (README.md in
// this directory): raw latency samples, the request record every wire
// request leaves behind, the metric sink, and the entry points of the
// workloads and the layer ladder.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Raw samples; percentiles are exact order statistics of what was stored
// (nearest rank), never histogram buckets. A failed operation is stored as
// +infinity, so it misses every latency limit.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    dirty_ = true;
  }
  void AddFailure();
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Nearest-rank percentile, q in [0, 1].
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  // The highest percentile with at least ten samples beyond it, capped at
  // 0.99 (so a run with 1000 or more samples reports p99).
  double TailQuantile() const;
  double Tail() const { return Percentile(TailQuantile()); }

 private:
  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool dirty_ = true;
};

// One named metric of the run's output.
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;   // 0 for counts and ratios
  std::string detail;   // e.g. "p99.0 of 4213 samples", "n/a on this workload"
};

class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, const std::string& detail = "");
  // p50 and tail of `samples` (scaled by `scale`) as <prefix>_p50_<unit>
  // and <prefix>_p99_<unit>.
  void Latency(const std::string& prefix, const Samples& samples,
               double scale, const std::string& unit);
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

// One request as the load generator sent it. Insert batches point into the
// workload's trace; query keys are owned.
struct Request {
  uint64_t id = 0;
  davinci::server::Op op = davinci::server::Op::kPing;
  uint32_t tenant = 0;
  uint32_t tenant_b = 0;
  const uint32_t* batch = nullptr;  // kInsertBatch keys
  uint32_t batch_len = 0;
  std::vector<uint32_t> keys;       // kQuery / kQueryBatch / kDifferenceQuery
  int64_t arg = 0;                  // threshold / delta / export format
  // kImportMerge: the exported images folded in, in order.
  std::shared_ptr<const std::vector<std::string>> images;
  // Filled by the sender.
  int64_t start_ns = 0;  // send time
  int64_t due_ns = 0;    // open-loop writer: when it was due to be sent
  int64_t end_ns = 0;    // reply read
  bool ok = false;
  bool traced = false;
  bool scored = false;  // its answers count toward freq_are
  bool setup = false;   // sent while the fleet was being set up
  uint64_t wire_bytes = 0;  // request + response frames
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;  // path of davinci_serverd
  std::string out_dir = ".bench_out";
};

// The tenants a workload creates, by index.
struct Fleet {
  struct TenantSpec {
    std::string name;
    uint32_t shards = 4;
    uint64_t bytes = 1 << 20;
    uint64_t seed = 1;
    uint32_t window_epochs = 0;
  };
  std::vector<TenantSpec> tenants;
};

// What a workload hands back: its metrics, the success tallies, and (for
// the ladder) the fleet layout plus every request in send order.
struct RunResult {
  MetricSink metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  Fleet fleet;
  std::vector<Request> log;  // traced runs only
  std::map<std::string, std::string> params;
  // Owns the trace the logged insert batches point into.
  std::shared_ptr<const void> inputs;
};

// Whether request `id` of a traced run carries a server span: a hash of
// the id, so the traced and untraced halves share the same op mix.
inline bool TracedId(uint64_t id) {
  return ((id + 1) * 0x9E3779B97F4A7C15ull) >> 63;
}

// Builds the wire body of `request` (without the length prefix).
std::string RequestBody(const Fleet& fleet, const Request& request);

RunResult RunWorkload(const Options& options);

// Replays `result.log` in process, one rung at a time, and adds the
// per-layer metrics to `result.metrics`. Writes the spans to
// `options.out_dir`.
void RunLadder(const Options& options, RunResult& result);

// Stable string key for an op, as used in metric names.
const char* OpName(davinci::server::Op op);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_BENCH_H_
