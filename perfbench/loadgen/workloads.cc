// The three wire workloads (README.md §Workloads). Each one starts the
// daemon as a child process, builds its fleet, drives its load, then runs
// one serial verification pass whose answers are compared bit for bit with
// an in-process reference fed the same per-tenant streams and scored
// against exact ground truth.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_set>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "core/davinci_sketch.h"
#include "server/client.h"
#include "server/tenant.h"
#include "workload/trace.h"

namespace perfbench {

using davinci::DaVinciSketch;
using davinci::SketchFormat;
using davinci::server::Client;
using davinci::server::Op;
using davinci::server::StatusCode;
using davinci::server::Tenant;
using davinci::server::TenantOptions;
using davinci::server::WireWriter;

namespace {

constexpr uint64_t kSketchSeed = 0x5eed;
// An untraced run is split into this many segments, each on its own fresh
// daemon and fleet; every metric is the median over the segments.
constexpr int kSegments = 5;

// ---------------------------------------------------------------------------
// The daemon child process.

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns `path --port 0 --workers 3` and waits for its LISTENING line.
  bool Start(const std::string& path) {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      // The daemon must not outlive a load generator that crashes or is
      // killed on a timeout.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execl(path.c_str(), path.c_str(), "--port", "0", "--workers", "3",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    std::string line;
    int64_t deadline = NowNs() + int64_t{30} * 1000000000;
    while (line.find('\n') == std::string::npos) {
      pollfd pfd{out_fd_, POLLIN, 0};
      int left_ms = static_cast<int>((deadline - NowNs()) / 1000000);
      if (left_ms <= 0 || ::poll(&pfd, 1, left_ms) <= 0) return false;
      char buf[128];
      ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      line.append(buf, static_cast<size_t>(n));
    }
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "LISTENING %u", &port) != 1) return false;
    port_ = static_cast<uint16_t>(port);
    return port_ != 0;
  }

  // The daemon's peak resident set (VmHWM), in MiB.
  double PeakRssMib() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      long long kb = 0;
      if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kb) == 1) {
        return static_cast<double>(kb) / 1024.0;
      }
    }
    return 0.0;
  }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      int64_t deadline = NowNs() + int64_t{10} * 1000000000;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowNs() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Reply checks: a non-kOk status, a transport error or a short reply all
// count as a failed operation.

bool ReplyOk(const Request& request, const std::string& reply) {
  if (reply.empty() || reply[0] != static_cast<char>(StatusCode::kOk)) {
    return false;
  }
  switch (request.op) {
    case Op::kQuery:
    case Op::kCardinality:
    case Op::kEntropy:
    case Op::kUnionCardinality:
    case Op::kInnerProduct:
    case Op::kAdvanceEpoch:
      return reply.size() == 9;
    case Op::kQueryBatch:
    case Op::kDifferenceQuery:
      return reply.size() == 5 + 8 * request.keys.size();
    case Op::kHeavyHitters:
    case Op::kHeavyChangers:
    case Op::kWindowHeavyChangers:
    case Op::kDistribution:
    case Op::kImportMerge:
      return reply.size() >= 5;
    case Op::kExportSketch:
      return reply.size() >= 9;
    default:
      return reply.size() == 1;
  }
}

// ---------------------------------------------------------------------------
// Per-tenant streams. Every tenant is written by exactly one connection, so
// the server applies its writes in the order they are recorded here, and
// the reference replays them in the same order.

struct Event {
  enum Kind : uint8_t { kBatch, kAdvance, kImport } kind = kBatch;
  const uint32_t* keys = nullptr;
  uint32_t len = 0;
  std::shared_ptr<const std::vector<std::string>> images;
};

struct Stream {
  size_t begin = 0;   // first trace offset (prefill starts here)
  size_t cursor = 0;  // next trace offset
  std::vector<Event> events;
};

// The workload's trace plus exact per-flow bookkeeping.
struct Input {
  davinci::Trace trace;
  std::vector<uint32_t> flow_of;                      // trace position -> flow
  std::vector<std::pair<uint32_t, uint32_t>> flows;   // sorted (key, flow)
  std::vector<uint32_t> flow_key;                     // flow -> key
  std::vector<uint32_t> head;                         // top flows' keys

  // Builds the trace once; later segments of the run reuse it.
  void Build(size_t packets, size_t num_flows, double skew, uint64_t seed) {
    if (!trace.keys.empty()) return;
    trace = davinci::BuildSkewedTrace("perfbench", packets, num_flows, skew,
                                      seed);
    std::vector<uint32_t> keys = trace.keys;
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    flow_key = keys;
    flows.resize(keys.size());
    for (uint32_t i = 0; i < keys.size(); ++i) flows[i] = {keys[i], i};
    flow_of.resize(trace.keys.size());
    std::vector<uint32_t> count(keys.size(), 0);
    for (size_t i = 0; i < trace.keys.size(); ++i) {
      flow_of[i] = FlowOf(trace.keys[i]);
      ++count[flow_of[i]];
    }
    std::vector<uint32_t> order(keys.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    size_t top = std::min<size_t>(1024, order.size());
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(top),
                      order.end(), [&](uint32_t a, uint32_t b) {
                        return count[a] != count[b] ? count[a] > count[b]
                                                    : a < b;
                      });
    for (size_t i = 0; i < top; ++i) head.push_back(flow_key[order[i]]);
  }

  uint32_t FlowOf(uint32_t key) const {
    auto it = std::lower_bound(
        flows.begin(), flows.end(), std::make_pair(key, uint32_t{0}));
    return it->second;
  }
  bool Known(uint32_t key) const {
    auto it = std::lower_bound(
        flows.begin(), flows.end(), std::make_pair(key, uint32_t{0}));
    return it != flows.end() && it->first == key;
  }

  // Next `len` keys of `stream`, wrapping at the end of the trace (the
  // trace length is a multiple of every batch size used).
  Event Take(Stream& stream, uint32_t len) const {
    if (stream.cursor + len > trace.keys.size()) stream.cursor = 0;
    Event event;
    event.keys = trace.keys.data() + stream.cursor;
    event.len = len;
    stream.cursor += len;
    return event;
  }

  // Exact per-flow counts of everything applied to `stream`.
  std::vector<int64_t> Truth(const Stream& stream) const {
    std::vector<int64_t> truth(flow_key.size(), 0);
    for (const Event& event : stream.events) {
      if (event.kind != Event::kBatch) continue;
      size_t pos = static_cast<size_t>(event.keys - trace.keys.data());
      for (uint32_t i = 0; i < event.len; ++i) ++truth[flow_of[pos + i]];
    }
    return truth;
  }
};

// ---------------------------------------------------------------------------
// The shared state of one workload run.

struct Context {
  const Options& options;
  RunResult& result;
  std::shared_ptr<Input> input_owner;  // shared by a run's segments
  Input& input;
  bool in_setup = false;  // set only while no load thread runs
  std::vector<Stream> streams;  // one per tenant
  Daemon daemon;
  std::mutex mu;  // guards result tallies and the log while threads run
  std::atomic<uint64_t> next_id{0};

  Context(const Options& opts, RunResult& res, std::shared_ptr<Input> in)
      : options(opts), result(res), input_owner(std::move(in)),
        input(*input_owner) {
    result.inputs = input_owner;
  }

  bool Traced(uint64_t id) const {
    return options.trace && !in_setup && TracedId(id);
  }

  const Fleet& fleet() const { return result.fleet; }

  void Tally(uint64_t attempted, uint64_t failed) {
    std::lock_guard<std::mutex> lock(mu);
    result.attempted += attempted;
    result.failed += failed;
  }

  void MergeLog(std::vector<Request>& log) {
    std::lock_guard<std::mutex> lock(mu);
    for (Request& request : log) result.log.push_back(std::move(request));
    log.clear();
  }

  void Error(const std::string& message) {
    std::lock_guard<std::mutex> lock(mu);
    result.correct = false;
    if (result.errors.size() < 20) result.errors.push_back(message);
  }
};

double Seconds(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

bool Connect(Context& ctx, Client& client) {
  if (client.Connect(ctx.daemon.port())) return true;
  ctx.Error("connect failed");
  return false;
}

// One blocking round trip; fills the request's timing, status and bytes.
void Call(Context& ctx, Client& client, Request& request,
          std::string* reply) {
  request.id = ctx.next_id.fetch_add(1, std::memory_order_relaxed);
  request.traced = ctx.Traced(request.id);
  request.setup = ctx.in_setup;
  std::string body = RequestBody(ctx.fleet(), request);
  if (request.start_ns == 0) request.start_ns = NowNs();
  bool sent = client.Call(body, reply);
  request.end_ns = NowNs();
  request.ok = sent && ReplyOk(request, *reply);
  request.wire_bytes = body.size() + reply->size() + 8;
}

// Pipelined kInsertBatch frames over one connection: keeps `window` frames
// in flight, round-robin over `tenants`, until each tenant has sent
// `batches_each` batches (0 = unbounded) or `deadline_ns` passes.
struct IngestTally {
  uint64_t keys = 0;
  int64_t first_send_ns = 0;
  int64_t last_ack_ns = 0;
  uint64_t wire_bytes = 0;
};

void PipelinedIngest(Context& ctx, const std::vector<uint32_t>& tenants,
                     uint32_t batch, size_t window, size_t batches_each,
                     int64_t deadline_ns, Samples* ack_ns, IngestTally* tally,
                     std::vector<Request>* log) {
  Client client;
  if (!Connect(ctx, client)) return;
  std::deque<Request> inflight;
  std::vector<size_t> sent(tenants.size(), 0);
  size_t turn = 0;
  uint64_t attempted = 0, failed = 0;
  tally->first_send_ns = NowNs();
  auto more = [&] {
    if (deadline_ns != 0 && NowNs() >= deadline_ns) return false;
    return batches_each == 0 || sent[turn % tenants.size()] < batches_each;
  };
  while (true) {
    while (inflight.size() < window && more()) {
      size_t slot = turn % tenants.size();
      uint32_t tenant = tenants[slot];
      ++turn;
      ++sent[slot];
      Event event = ctx.input.Take(ctx.streams[tenant], batch);
      Request request;
      request.op = Op::kInsertBatch;
      request.tenant = tenant;
      request.batch = event.keys;
      request.batch_len = event.len;
      request.id = ctx.next_id.fetch_add(1, std::memory_order_relaxed);
      request.traced = ctx.Traced(request.id);
      request.setup = ctx.in_setup;
      std::string body = RequestBody(ctx.fleet(), request);
      request.wire_bytes = body.size() + 4;
      request.start_ns = NowNs();
      if (!client.SendRequest(body)) {
        ++attempted;
        ++failed;
        if (ack_ns) ack_ns->AddFailure();
        continue;
      }
      inflight.push_back(std::move(request));
    }
    if (inflight.empty()) break;
    Request request = std::move(inflight.front());
    inflight.pop_front();
    std::string reply;
    bool got = client.ReadResponse(&reply);
    request.end_ns = NowNs();
    request.ok = got && ReplyOk(request, reply);
    request.wire_bytes += reply.size() + 4;
    ++attempted;
    if (request.ok) {
      ctx.streams[request.tenant].events.push_back(
          Event{Event::kBatch, request.batch, request.batch_len, nullptr});
      tally->keys += request.batch_len;
      tally->last_ack_ns = request.end_ns;
      tally->wire_bytes += request.wire_bytes;
      if (ack_ns) ack_ns->Add(static_cast<double>(request.end_ns -
                                                  request.start_ns));
    } else {
      ++failed;
      if (ack_ns) ack_ns->AddFailure();
      if (!got) {
        // The connection is gone; everything in flight failed with it.
        attempted += inflight.size();
        failed += inflight.size();
        for (size_t i = 0; i < inflight.size() && ack_ns; ++i) {
          ack_ns->AddFailure();
        }
        inflight.clear();
        ctx.Error("ingest connection lost");
        break;
      }
    }
    if (log != nullptr) log->push_back(std::move(request));
  }
  ctx.Tally(attempted, failed);
}

// Splits `tenants` over `connections` pipelined ingest threads.
IngestTally ParallelIngest(Context& ctx, const std::vector<uint32_t>& tenants,
                           size_t connections, uint32_t batch, size_t window,
                           size_t batches_each, int64_t deadline_ns,
                           Samples* ack_ns) {
  connections = std::min(connections, tenants.size());
  std::vector<std::vector<uint32_t>> split(connections);
  for (size_t i = 0; i < tenants.size(); ++i) {
    split[i % connections].push_back(tenants[i]);
  }
  std::vector<IngestTally> tallies(connections);
  std::vector<Samples> samples(connections);
  std::vector<std::vector<Request>> logs(connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      PipelinedIngest(ctx, split[c], batch, window, batches_each, deadline_ns,
                      &samples[c], &tallies[c],
                      ctx.options.trace ? &logs[c] : nullptr);
    });
  }
  for (std::thread& thread : threads) thread.join();
  IngestTally total;
  total.first_send_ns = tallies[0].first_send_ns;
  for (size_t c = 0; c < connections; ++c) {
    total.keys += tallies[c].keys;
    total.wire_bytes += tallies[c].wire_bytes;
    total.first_send_ns = std::min(total.first_send_ns,
                                   tallies[c].first_send_ns);
    total.last_ack_ns = std::max(total.last_ack_ns, tallies[c].last_ack_ns);
    if (ack_ns) ack_ns->Append(samples[c]);
    ctx.MergeLog(logs[c]);
  }
  return total;
}

// Starts the daemon and creates the fleet's tenants.
bool StartFleet(Context& ctx) {
  if (!ctx.daemon.Start(ctx.options.daemon)) {
    ctx.Error("daemon did not start: " + ctx.options.daemon);
    return false;
  }
  Client admin;
  if (!Connect(ctx, admin)) return false;
  for (const Fleet::TenantSpec& spec : ctx.fleet().tenants) {
    StatusCode status = admin.CreateTenant(spec.name, spec.shards, spec.bytes,
                                           spec.seed, spec.window_epochs);
    ctx.Tally(1, status == StatusCode::kOk ? 0 : 1);
    if (status != StatusCode::kOk) {
      ctx.Error("create tenant failed: " + spec.name);
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// The in-process reference: one server::Tenant (a ConcurrentDaVinci plus,
// when windowed, its EpochManager) per wire tenant, fed the same events.

using Reference = std::vector<std::unique_ptr<Tenant>>;

Reference BuildReference(const Context& ctx) {
  Reference ref;
  std::vector<int64_t> ones;
  for (size_t t = 0; t < ctx.fleet().tenants.size(); ++t) {
    const Fleet::TenantSpec& spec = ctx.fleet().tenants[t];
    TenantOptions options;
    options.shards = spec.shards;
    options.total_bytes = spec.bytes;
    options.seed = spec.seed;
    options.window_epochs = spec.window_epochs;
    auto tenant = std::make_unique<Tenant>(spec.name, options);
    for (const Event& event : ctx.streams[t].events) {
      switch (event.kind) {
        case Event::kBatch:
          if (ones.size() < event.len) ones.assign(event.len, 1);
          tenant->InsertBatch({event.keys, event.len}, {ones.data(), event.len});
          break;
        case Event::kAdvance:
          tenant->AdvanceEpoch();
          break;
        case Event::kImport: {
          std::vector<std::vector<DaVinciSketch>> staged;
          for (const std::string& image : *event.images) {
            std::istringstream in(image);
            std::vector<DaVinciSketch> shards;
            if (!tenant->engine().ParseShardImage(in, &shards)) break;
            staged.push_back(std::move(shards));
          }
          tenant->engine().MergeShardImages(std::move(staged));
          break;
        }
      }
    }
    ref.push_back(std::move(tenant));
  }
  return ref;
}

// The reply the dispatcher must produce for `request`, computed from the
// reference with the engine calls docs/SERVER.md specifies per opcode.
std::string ExpectedReply(Reference& ref, const Request& request) {
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  davinci::ConcurrentDaVinci& engine = ref[request.tenant]->engine();
  switch (request.op) {
    case Op::kQuery:
      writer.I64(engine.Query(request.keys.at(0)));
      break;
    case Op::kQueryBatch:
      writer.Counts(engine.QueryBatch(request.keys));
      break;
    case Op::kHeavyHitters:
      writer.Pairs(engine.HeavyHitters(request.arg));
      break;
    case Op::kCardinality:
      writer.F64(engine.EstimateCardinality());
      break;
    case Op::kDistribution: {
      std::map<int64_t, int64_t> dist = engine.Snapshot().Distribution();
      writer.U32(static_cast<uint32_t>(dist.size()));
      for (const auto& [size, flows] : dist) {
        writer.I64(size);
        writer.I64(flows);
      }
      break;
    }
    case Op::kEntropy:
      writer.F64(engine.Snapshot().EstimateEntropy());
      break;
    case Op::kWindowHeavyChangers:
      writer.Pairs(ref[request.tenant]->WindowHeavyChangers(request.arg));
      break;
    case Op::kUnionCardinality:
    case Op::kInnerProduct:
    case Op::kHeavyChangers:
    case Op::kDifferenceQuery: {
      DaVinciSketch a = engine.Snapshot();
      DaVinciSketch b = ref[request.tenant_b]->engine().Snapshot();
      if (request.op == Op::kUnionCardinality) {
        a.Merge(b);
        writer.F64(a.EstimateCardinality());
      } else if (request.op == Op::kInnerProduct) {
        writer.F64(DaVinciSketch::InnerProduct(a, b));
      } else if (request.op == Op::kHeavyChangers) {
        writer.Pairs(a.HeavyChangers(b, request.arg));
      } else {
        a.Subtract(b);
        writer.Counts(a.QueryBatch(request.keys));
      }
      break;
    }
    case Op::kExportSketch: {
      engine.FlushViews();
      std::ostringstream image;
      engine.SaveShards(image, static_cast<SketchFormat>(request.arg));
      writer.U32(0);
      writer.Blob(std::move(image).str());
      break;
    }
    default:
      return "";
  }
  return writer.Take();
}

// ---------------------------------------------------------------------------
// Verification pass: serial requests against the quiesced fleet. Every
// reply is kept, compared bit for bit with the reference afterwards, and
// scored against ground truth.

struct PassSpec {
  std::vector<uint32_t> tenants;  // tenants to query and score
  size_t point = 0;               // timed kQuery per tenant
  size_t batches = 0;             // timed 64-key kQueryBatch per tenant
  size_t analytic = 0;            // rounds of timed kHeavyHitters (and an
                                  // untimed kCardinality) per tenant
  double hh_fraction = 1e-4;      // heavy-hitter threshold / tenant total
};

struct PassOutput {
  Samples point_ns, batch_ns, analytic_ns;
  uint64_t queries = 0;
  int64_t begin_ns = 0, end_ns = 0;
  std::vector<std::pair<Request, std::string>> replies;
};

std::vector<uint32_t> QueryKeys(const Input& input, std::mt19937_64& rng,
                                size_t n) {
  // Even positions are the trace's heaviest flows (FP residents), odd ones
  // are flows drawn uniformly (mostly small: they miss the FP).
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = (i % 2 == 0)
                  ? input.head[rng() % input.head.size()]
                  : input.flow_key[rng() % input.flow_key.size()];
  }
  return keys;
}

// The serial pass over a quiesced fleet: an untimed warm-up batch per
// tenant (so every timed read sees warm views and the tails measure one
// population), the timed reads and heavy-hitter queries, then untimed
// kCardinality and one kQueryBatch sweep over every flow each tenant
// received, for the accuracy scores.
PassOutput VerificationPass(Context& ctx, const PassSpec& spec,
                            std::mt19937_64& rng) {
  constexpr size_t kSweepBatch = 4096;
  constexpr int64_t kThinkNs = 100'000;
  PassOutput out;
  Client client;
  if (!Connect(ctx, client)) return out;
  std::vector<Request> log;
  uint64_t attempted = 0, failed = 0;
  auto run = [&](Request request, Samples* samples) {
    // Timed reads pause like the point_reads_under_ingest readers, so
    // every request starts from the same idle server.
    if (samples != nullptr) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kThinkNs));
    }
    std::string reply;
    Call(ctx, client, request, &reply);
    ++attempted;
    if (!request.ok) ++failed;
    if (samples != nullptr) {
      if (request.ok) {
        samples->Add(static_cast<double>(request.end_ns - request.start_ns));
      } else {
        samples->AddFailure();
      }
      if (request.op == Op::kQuery || request.op == Op::kQueryBatch) {
        ++out.queries;
      }
    }
    out.replies.emplace_back(request, reply);
    if (ctx.options.trace && !request.scored) log.push_back(std::move(request));
  };
  auto threshold = [&](uint32_t tenant) {
    int64_t total = 0;
    for (const Event& event : ctx.streams[tenant].events) total += event.len;
    return std::max<int64_t>(
        1, static_cast<int64_t>(spec.hh_fraction * static_cast<double>(total)));
  };
  for (uint32_t tenant : spec.tenants) {
    Request warm;
    warm.op = Op::kQueryBatch;
    warm.tenant = tenant;
    warm.keys = QueryKeys(ctx.input, rng, 64);
    run(std::move(warm), nullptr);
  }
  out.begin_ns = NowNs();
  for (uint32_t tenant : spec.tenants) {
    for (size_t i = 0; i < spec.point; ++i) {
      Request request;
      request.op = Op::kQuery;
      request.tenant = tenant;
      request.keys = {QueryKeys(ctx.input, rng, 2)[i % 2]};
      run(std::move(request), &out.point_ns);
    }
    for (size_t i = 0; i < spec.batches; ++i) {
      Request request;
      request.op = Op::kQueryBatch;
      request.tenant = tenant;
      request.keys = QueryKeys(ctx.input, rng, 64);
      run(std::move(request), &out.batch_ns);
    }
  }
  for (size_t round = 0; round < spec.analytic; ++round) {
    for (uint32_t tenant : spec.tenants) {
      Request hh;
      hh.op = Op::kHeavyHitters;
      hh.tenant = tenant;
      hh.arg = threshold(tenant);
      run(std::move(hh), &out.analytic_ns);
    }
  }
  out.end_ns = NowNs();
  for (uint32_t tenant : spec.tenants) {
    Request card;
    card.op = Op::kCardinality;
    card.tenant = tenant;
    run(std::move(card), nullptr);
    std::vector<int64_t> truth = ctx.input.Truth(ctx.streams[tenant]);
    std::vector<uint32_t> keys;
    for (size_t f = 0; f < truth.size(); ++f) {
      if (truth[f] > 0) keys.push_back(ctx.input.flow_key[f]);
    }
    for (size_t i = 0; i < keys.size(); i += kSweepBatch) {
      Request sweep;
      sweep.op = Op::kQueryBatch;
      sweep.tenant = tenant;
      sweep.scored = true;
      sweep.keys.assign(keys.begin() + static_cast<long>(i),
                        keys.begin() + static_cast<long>(
                                           std::min(keys.size(), i + kSweepBatch)));
      run(std::move(sweep), nullptr);
    }
  }
  ctx.Tally(attempted, failed);
  ctx.MergeLog(log);
  return out;
}

// Compares every recorded reply with the reference, then scores the
// frequency, heavy-hitter and cardinality answers against ground truth.
void CheckAndScore(Context& ctx, Reference& ref,
                   const std::vector<std::pair<Request, std::string>>& replies,
                   const std::vector<uint32_t>& scored) {
  size_t mismatches = 0;
  for (const auto& [request, reply] : replies) {
    if (!request.ok) continue;  // already counted as failed
    std::string expected = ExpectedReply(ref, request);
    if (expected != reply) {
      ++mismatches;
      ctx.Error(std::string("wire answer differs from the in-process "
                            "reference: ") +
                OpName(request.op) + " on " +
                ctx.fleet().tenants[request.tenant].name);
    }
  }
  ctx.result.params["verified_replies"] = std::to_string(replies.size());

  std::unordered_set<uint32_t> scored_set(scored.begin(), scored.end());
  std::map<uint32_t, std::vector<int64_t>> truth;
  for (uint32_t tenant : scored) truth[tenant] = ctx.input.Truth(ctx.streams[tenant]);
  double are_sum = 0.0;
  size_t are_n = 0;
  double f1_sum = 0.0, card_sum = 0.0;
  size_t f1_n = 0, card_n = 0;
  for (const auto& [request, reply] : replies) {
    if (!request.ok || !scored_set.count(request.tenant)) continue;
    const std::vector<int64_t>& t = truth[request.tenant];
    davinci::server::WireReader reader(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(reply.data()) + 1, reply.size() - 1));
    auto score_key = [&](uint32_t key, int64_t estimate) {
      if (!ctx.input.Known(key)) return;
      int64_t exact = t[ctx.input.FlowOf(key)];
      if (exact <= 0) return;
      are_sum += std::fabs(static_cast<double>(estimate - exact)) /
                 static_cast<double>(exact);
      ++are_n;
    };
    if (request.op == Op::kQueryBatch && request.scored) {
      std::vector<int64_t> estimates;
      reader.Counts(&estimates);
      for (size_t i = 0; i < estimates.size(); ++i) {
        score_key(request.keys[i], estimates[i]);
      }
    } else if (request.op == Op::kHeavyHitters) {
      std::vector<std::pair<uint32_t, int64_t>> reported;
      reader.Pairs(&reported);
      std::unordered_set<uint32_t> exact_hh;
      for (size_t f = 0; f < t.size(); ++f) {
        if (t[f] > request.arg) exact_hh.insert(ctx.input.flow_key[f]);
      }
      size_t hits = 0;
      for (const auto& [key, count] : reported) hits += exact_hh.count(key);
      double precision = reported.empty() ? 1.0
                                          : static_cast<double>(hits) /
                                                static_cast<double>(reported.size());
      double recall = exact_hh.empty() ? 1.0
                                       : static_cast<double>(hits) /
                                             static_cast<double>(exact_hh.size());
      f1_sum += precision + recall > 0.0
                    ? 2.0 * precision * recall / (precision + recall)
                    : 0.0;
      ++f1_n;
    } else if (request.op == Op::kCardinality) {
      double estimate = 0.0;
      reader.F64(&estimate);
      double exact = static_cast<double>(
          std::count_if(t.begin(), t.end(), [](int64_t f) { return f > 0; }));
      card_sum += std::fabs(estimate - exact) / exact;
      ++card_n;
    }
  }
  auto mean = [](double sum, size_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  MetricSink& m = ctx.result.metrics;
  m.Set("freq_are", mean(are_sum, are_n), "ratio", are_n,
        "mean |est-true|/true over every flow received");
  m.Set("hh_f1", mean(f1_sum, f1_n), "ratio", f1_n,
        "mean F1 of kHeavyHitters replies");
  m.Set("card_rel_err", mean(card_sum, card_n), "ratio", card_n,
        "mean |est-true|/true of kCardinality replies");
  ctx.result.params["mismatched_replies"] = std::to_string(mismatches);
}

// Starts a fresh daemon, creates the fleet and prefills it; setup_s is the
// time all of that took.
bool Setup(Context& ctx, const std::function<bool()>& prefill) {
  for (Stream& stream : ctx.streams) stream.cursor = stream.begin;
  int64_t begin = NowNs();
  ctx.in_setup = true;
  if (!StartFleet(ctx) || !prefill()) return false;
  ctx.in_setup = false;
  ctx.result.metrics.Set("setup_s", Seconds(begin, NowNs()), "s", 1,
                         "daemon start + tenants + prefill");
  return true;
}

void AddIngestMetrics(Context& ctx, const IngestTally& tally,
                      const Samples& ack_ns) {
  MetricSink& m = ctx.result.metrics;
  double seconds = static_cast<double>(tally.last_ack_ns - tally.first_send_ns) * 1e-9;
  m.Set("ingest_mkeys_s", seconds > 0 ? tally.keys / seconds * 1e-6 : 0.0,
        "Mkeys/s", ack_ns.size());
  m.Latency("ingest_ack", ack_ns, 1e-6, "ms");
  if (tally.keys > 0) {
    m.Set("server.wire_bytes_per_key",
          static_cast<double>(tally.wire_bytes) / static_cast<double>(tally.keys),
          "B/key");
  }
}

void AddQueryMetrics(Context& ctx, const Samples& point_ns,
                     const Samples& batch_ns, const Samples& analytic_ns,
                     double qps) {
  MetricSink& m = ctx.result.metrics;
  m.Latency("point_query", point_ns, 1e-3, "us");
  m.Latency("batch_query", batch_ns, 1e-3, "us");
  m.Latency("analytic_query", analytic_ns, 1e-6, "ms");
  m.Set("query_qps", qps, "1/s");
}

// Run-phase length of one segment: an untraced run splits --seconds over
// kSegments; a traced run (one segment) measures as long as one segment,
// at least one second, so its in-process replay fits the same time budget.
int64_t RunPhaseNs(const Options& options) {
  double seconds = options.seconds / kSegments;
  if (options.trace) seconds = std::max(1.0, seconds);
  return static_cast<int64_t>(seconds * 1e9);
}

// ---------------------------------------------------------------------------
// ingest_zipf: two pipelined connections, 8 tenants, Zipf-1.1.

void IngestZipf(Context& ctx) {
  constexpr uint32_t kBatch = 4096;
  constexpr size_t kTenants = 8, kWindow = 4, kPrefillBatches = 64;
  // Wire ingest rate of this workload on the 4-core reference host.
  constexpr double kReferenceKeysPerSecond = 2.8e6;
  ctx.input.Build(size_t{kBatch} * 1000, 400'000, 1.1, ctx.options.seed);
  for (size_t t = 0; t < kTenants; ++t) {
    ctx.result.fleet.tenants.push_back(
        {"zipf" + std::to_string(t), 4, 1 << 20, kSketchSeed, 0});
    Stream stream;
    stream.begin = t * (ctx.input.trace.keys.size() / kTenants);
    ctx.streams.push_back(stream);
  }
  std::vector<uint32_t> all(kTenants);
  for (uint32_t t = 0; t < kTenants; ++t) all[t] = t;
  auto& params = ctx.result.params;
  params["tenants"] = "8 x (4 shards, 1 MiB)";
  params["trace"] = "4096000 keys, 400000 flows, zipf 1.1";
  params["batch_keys"] = "4096";
  params["connections"] = "2";
  params["frames_in_flight_per_connection"] = "4";

  if (!Setup(ctx, [&] {
        ParallelIngest(ctx, all, 2, kBatch, kWindow, kPrefillBatches, 0,
                       nullptr);
        return ctx.result.correct;
      })) {
    return;
  }
  // A fixed volume, not a deadline: the sketches' final state (and so every
  // accuracy score) then depends on the seed alone, never on how fast this
  // run happened to ingest. At the reference rate the phase lasts one
  // segment's share of --seconds; a faster build simply finishes sooner.
  const double phase_s = static_cast<double>(RunPhaseNs(ctx.options)) * 1e-9;
  const size_t batches_each = std::max<size_t>(
      1, static_cast<size_t>(phase_s * kReferenceKeysPerSecond /
                             (kTenants * kBatch)));
  params["run_batches_per_tenant"] = std::to_string(batches_each);
  Samples ack_ns;
  IngestTally tally = ParallelIngest(ctx, all, 2, kBatch, kWindow,
                                     batches_each, 0, &ack_ns);
  AddIngestMetrics(ctx, tally, ack_ns);

  std::mt19937_64 rng(ctx.options.seed * 7919 + 1);
  PassSpec spec{all, 500, 125, 25, 1e-4};
  PassOutput pass = VerificationPass(ctx, spec, rng);
  AddQueryMetrics(ctx, pass.point_ns, pass.batch_ns, pass.analytic_ns,
                  static_cast<double>(pass.queries) /
                      Seconds(pass.begin_ns, pass.end_ns));
  ctx.result.metrics.Set("server_peak_rss_mib", ctx.daemon.PeakRssMib(), "MiB");
  Reference ref = BuildReference(ctx);
  CheckAndScore(ctx, ref, pass.replies, all);
}

// ---------------------------------------------------------------------------
// point_reads_under_ingest: an open-loop writer beside two closed-loop
// readers on a fleet whose IFP is heavily loaded.

struct OpenLoopTally {
  uint64_t offered = 0;
  uint64_t ok = 0;
  int64_t last_ack_ns = 0;
};

// Open-loop sender on its own connection: request i is due at start + i *
// period and is sent at its due time, or right after the previous reply
// when that came late. Latency counts from the due time, so a stall shows
// in every request it delays; requests due before `end` but not sent by
// then are offered and never achieved.
template <typename Make, typename OnOk>
void OpenLoop(Context& ctx, int64_t start, int64_t end, int64_t period,
              Make make, OnOk on_ok, Samples* latency_ns, Samples* lag_ns,
              std::vector<Request>* log, OpenLoopTally* tally) {
  Client client;
  if (!Connect(ctx, client)) return;
  uint64_t attempted = 0, failed = 0;
  for (uint64_t i = 0;; ++i) {
    int64_t due = start + static_cast<int64_t>(i) * period;
    if (due >= end) break;
    ++tally->offered;
    if (NowNs() >= end) continue;
    // Sleep to within 300 us of the due time, then spin: a sleeping thread
    // wakes late by up to a few hundred microseconds, and that lateness
    // would count in every latency measured from the due time.
    while (NowNs() < due) {
      int64_t left = due - NowNs();
      if (left > 300'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 300'000));
      }
    }
    Request request = make(i);
    request.due_ns = due;
    std::string reply;
    Call(ctx, client, request, &reply);
    ++attempted;
    if (lag_ns != nullptr) lag_ns->Add(static_cast<double>(request.start_ns - due));
    if (request.ok) {
      on_ok(request);
      ++tally->ok;
      tally->last_ack_ns = request.end_ns;
      latency_ns->Add(static_cast<double>(request.end_ns - due));
    } else {
      ++failed;
      latency_ns->AddFailure();
    }
    if (log != nullptr) log->push_back(std::move(request));
  }
  ctx.Tally(attempted, failed);
}

void PointReads(Context& ctx) {
  constexpr uint32_t kPrefillBatch = 4096, kWriteBatch = 256;
  constexpr size_t kTenants = 1, kPrefillBatches = 500;
  // One open-loop write every 10 ms (25.6K keys/s); each republishes all
  // four shard views. The readers pause between requests (see below).
  constexpr int64_t kWritePeriodNs = 10'000'000;
  constexpr int64_t kPointThinkNs = 400'000;
  constexpr int64_t kBatchThinkNs = 1'500'000;
  ctx.input.Build(size_t{kPrefillBatch} * 1000, 1'000'000, 1.05,
                  ctx.options.seed);
  for (size_t t = 0; t < kTenants; ++t) {
    ctx.result.fleet.tenants.push_back(
        {"reads" + std::to_string(t), 4, 1 << 20, kSketchSeed, 0});
    Stream stream;
    stream.begin = t * (ctx.input.trace.keys.size() / kTenants);
    ctx.streams.push_back(stream);
  }
  std::vector<uint32_t> all{0};
  auto& params = ctx.result.params;
  params["tenants"] = "1 x (4 shards, 1 MiB)";
  params["trace"] = "4096000 keys, 1000000 flows, zipf 1.05";
  params["prefill_keys_per_tenant"] = std::to_string(kPrefillBatches * kPrefillBatch);
  params["writer"] = "open loop, 256 keys every 10 ms";
  params["readers"] = "closed loop with think time: kQuery + 400 us, "
                      "64-key kQueryBatch + 1.5 ms";

  if (!Setup(ctx, [&] {
        ParallelIngest(ctx, all, 2, kPrefillBatch, 4, kPrefillBatches, 0,
                       nullptr);
        return ctx.result.correct;
      })) {
    return;
  }

  const int64_t start = NowNs() + 2'000'000;
  const int64_t end = start + RunPhaseNs(ctx.options);
  Samples ack_ns, lag_ns, point_ns, batch_ns;
  OpenLoopTally writes, points, batches;
  uint64_t writer_keys = 0;
  std::vector<std::vector<Request>> logs(3);
  auto log = [&](size_t i) { return ctx.options.trace ? &logs[i] : nullptr; };
  std::thread writer([&] {
    OpenLoop(ctx, start, end, kWritePeriodNs,
             [&](uint64_t i) {
               uint32_t tenant = static_cast<uint32_t>(i % kTenants);
               Event event = ctx.input.Take(ctx.streams[tenant], kWriteBatch);
               Request request;
               request.op = Op::kInsertBatch;
               request.tenant = tenant;
               request.batch = event.keys;
               request.batch_len = event.len;
               return request;
             },
             [&](const Request& request) {
               ctx.streams[request.tenant].events.push_back(Event{
                   Event::kBatch, request.batch, request.batch_len, nullptr});
               writer_keys += request.batch_len;
             },
             &ack_ns, &lag_ns, log(0), &writes);
  });
  // Closed-loop readers with think time: each sends its next request only
  // after the previous reply and a pause, so about one read in six meets a
  // view republished since its last visit and the readers stay far from
  // saturation: the tails measure the decode, not a queue.
  auto reader = [&](Op op, size_t keys_per_request, int64_t think_ns,
                    Samples* samples, std::vector<Request>* requests,
                    OpenLoopTally* tally, uint64_t seed) {
    Client client;
    if (!Connect(ctx, client)) return;
    std::mt19937_64 rng(seed);
    uint64_t attempted = 0, failed = 0;
    while (NowNs() < start) std::this_thread::yield();
    for (uint64_t i = 0; NowNs() < end; ++i) {
      Request request;
      request.op = op;
      request.tenant = static_cast<uint32_t>(i % kTenants);
      // Single-key requests alternate a head and a tail key.
      request.keys =
          keys_per_request == 1
              ? std::vector<uint32_t>{QueryKeys(ctx.input, rng, 2)[i % 2]}
              : QueryKeys(ctx.input, rng, keys_per_request);
      std::string reply;
      Call(ctx, client, request, &reply);
      ++attempted;
      if (request.ok) {
        ++tally->ok;
        tally->last_ack_ns = request.end_ns;
        samples->Add(static_cast<double>(request.end_ns - request.start_ns));
      } else {
        ++failed;
        samples->AddFailure();
      }
      if (requests != nullptr) requests->push_back(std::move(request));
      std::this_thread::sleep_for(std::chrono::nanoseconds(think_ns));
    }
    ctx.Tally(attempted, failed);
  };
  std::thread point_reader(reader, Op::kQuery, 1, kPointThinkNs, &point_ns,
                           log(1), &points, ctx.options.seed * 31 + 1);
  std::thread batch_reader(reader, Op::kQueryBatch, 64, kBatchThinkNs,
                           &batch_ns, log(2), &batches,
                           ctx.options.seed * 31 + 2);
  writer.join();
  point_reader.join();
  batch_reader.join();
  for (std::vector<Request>& requests : logs) ctx.MergeLog(requests);

  double run_s = Seconds(start, end);
  // Achieved: acked keys over the time from the first due request to the
  // last ack (a writer that falls behind stretches the denominator).
  double achieved =
      static_cast<double>(writer_keys) /
      Seconds(start, std::max(writes.last_ack_ns, start + 1)) * 1e-6;
  MetricSink& m = ctx.result.metrics;
  m.Set("ingest_mkeys_s", achieved, "Mkeys/s", ack_ns.size(),
        "achieved writer key rate");
  m.Latency("ingest_ack", ack_ns, 1e-6, "ms");
  m.Set("loadgen.writer_lag_p99_ms", lag_ns.Tail() * 1e-6, "ms", lag_ns.size());
  m.Set("loadgen.offered_mkeys_s",
        static_cast<double>(writes.offered * kWriteBatch) / run_s * 1e-6,
        "Mkeys/s");
  m.Set("loadgen.achieved_mkeys_s", achieved, "Mkeys/s");

  std::mt19937_64 rng(ctx.options.seed * 7919 + 3);
  PassSpec spec{all, 0, 0, 100, 1e-4};
  PassOutput pass = VerificationPass(ctx, spec, rng);
  AddQueryMetrics(ctx, point_ns, batch_ns, pass.analytic_ns,
                  static_cast<double>(points.ok + batches.ok) /
                      Seconds(start, std::max({points.last_ack_ns,
                                               batches.last_ack_ns, end})));
  m.Set("server_peak_rss_mib", ctx.daemon.PeakRssMib(), "MiB");
  Reference ref = BuildReference(ctx);
  CheckAndScore(ctx, ref, pass.replies, all);
}

// ---------------------------------------------------------------------------
// fleet_analytics: one connection cycling the merged-snapshot tasks, a DVSZ
// export/import fan-in and epoch advances over a quiesced fleet.

void FleetAnalytics(Context& ctx) {
  constexpr uint32_t kBatch = 4096;
  constexpr size_t kLeaves = 4, kLeafBatches = 128, kWindowBatches = 32;
  constexpr uint32_t kWindow = kLeaves, kAgg = kLeaves + 1;
  // Ten ops per cycle; the window advances every second cycle.
  constexpr size_t kAdvanceEvery = 20;
  ctx.input.Build(size_t{kBatch} * 1000, 200'000, 1.1, ctx.options.seed);
  for (size_t t = 0; t < kLeaves; ++t) {
    ctx.result.fleet.tenants.push_back(
        {"leaf" + std::to_string(t), 4, 1 << 20, kSketchSeed, 0});
  }
  ctx.result.fleet.tenants.push_back({"window", 4, 1 << 20, kSketchSeed, 4});
  ctx.result.fleet.tenants.push_back({"agg", 4, 1 << 20, kSketchSeed, 0});
  for (size_t t = 0; t < ctx.fleet().tenants.size(); ++t) {
    Stream stream;
    stream.begin = t * (ctx.input.trace.keys.size() / 8);
    ctx.streams.push_back(stream);
  }
  std::vector<uint32_t> leaves{0, 1, 2, 3};
  auto& params = ctx.result.params;
  params["tenants"] = "4 leaves + 1 windowed (4 epochs) + 1 aggregator, "
                      "each 4 shards x 1 MiB";
  params["trace"] = "4096000 keys, 200000 flows, zipf 1.1";
  params["prefill_keys_per_leaf"] = std::to_string(kLeafBatches * kBatch);
  params["advance_epoch_every_ops"] = std::to_string(kAdvanceEvery);

  // The ingest metrics come from the leaf prefill.
  Samples prefill_ack_ns;
  IngestTally prefill;
  if (!Setup(ctx, [&] {
        IngestTally one = ParallelIngest(ctx, leaves, 2, kBatch, 4,
                                         kLeafBatches, 0, &prefill_ack_ns);
        prefill.keys += one.keys;
        prefill.wire_bytes += one.wire_bytes;
        prefill.last_ack_ns += one.last_ack_ns - one.first_send_ns;
        // The window tenant gets four sealed epochs of traffic.
        Client client;
        if (!Connect(ctx, client)) return false;
        for (size_t e = 0; e < 4; ++e) {
          for (size_t b = 0; b < kWindowBatches / 4; ++b) {
            Event event = ctx.input.Take(ctx.streams[kWindow], kBatch);
            Request request;
            request.op = Op::kInsertBatch;
            request.tenant = kWindow;
            request.batch = event.keys;
            request.batch_len = event.len;
            std::string reply;
            Call(ctx, client, request, &reply);
            ctx.Tally(1, request.ok ? 0 : 1);
            if (!request.ok) return false;
            ctx.streams[kWindow].events.push_back(event);
            if (ctx.options.trace) ctx.result.log.push_back(std::move(request));
          }
          Request advance;
          advance.op = Op::kAdvanceEpoch;
          advance.tenant = kWindow;
          std::string reply;
          Call(ctx, client, advance, &reply);
          ctx.Tally(1, advance.ok ? 0 : 1);
          if (!advance.ok) return false;
          ctx.streams[kWindow].events.push_back(Event{Event::kAdvance, nullptr, 0, nullptr});
          if (ctx.options.trace) ctx.result.log.push_back(std::move(advance));
        }
        return ctx.result.correct;
      })) {
    return;
  }
  AddIngestMetrics(ctx, prefill, prefill_ack_ns);

  Client client;
  if (!Connect(ctx, client)) return;
  std::mt19937_64 rng(ctx.options.seed * 7919 + 5);
  Samples analytic_ns;
  std::vector<std::pair<Request, std::string>> replies;
  uint64_t attempted = 0, failed = 0, ops = 0;
  const int64_t start = NowNs();
  const int64_t end = start + RunPhaseNs(ctx.options);
  auto run = [&](Request& request, std::string* reply) {
    Call(ctx, client, request, reply);
    ++attempted;
    if (!request.ok) ++failed;
    return request.ok;
  };
  auto sample = [&](Request request) {
    std::string reply;
    bool ok = run(request, &reply);
    if (ok) {
      analytic_ns.Add(static_cast<double>(request.end_ns - request.start_ns));
    } else {
      analytic_ns.AddFailure();
    }
    ++ops;
    // Keep the first answer of each (op, tenant) for the reference check.
    if (replies.size() < 64) replies.emplace_back(request, reply);
    if (ctx.options.trace) ctx.result.log.push_back(std::move(request));
  };
  size_t imports = 0;
  for (uint64_t cycle = 0; NowNs() < end; ++cycle) {
    uint32_t a = static_cast<uint32_t>(cycle % kLeaves);
    uint32_t b = static_cast<uint32_t>((cycle + 1) % kLeaves);
    int64_t total = static_cast<int64_t>(kLeafBatches * kBatch);
    auto single = [&](Op op, int64_t arg) {
      Request request;
      request.op = op;
      request.tenant = a;
      request.arg = arg;
      sample(std::move(request));
    };
    auto pair = [&](Op op, int64_t arg) {
      Request request;
      request.op = op;
      request.tenant = a;
      request.tenant_b = b;
      request.arg = arg;
      if (op == Op::kDifferenceQuery) request.keys = QueryKeys(ctx.input, rng, 64);
      sample(std::move(request));
    };
    single(Op::kHeavyHitters, total / 10000);
    single(Op::kCardinality, 0);
    single(Op::kDistribution, 0);
    single(Op::kEntropy, 0);
    pair(Op::kUnionCardinality, 0);
    pair(Op::kInnerProduct, 0);
    pair(Op::kHeavyChangers, total / 10000);
    pair(Op::kDifferenceQuery, 0);
    {
      Request request;
      request.op = Op::kWindowHeavyChangers;
      request.tenant = kWindow;
      request.arg = static_cast<int64_t>(kWindowBatches / 4 * kBatch / 10000);
      sample(std::move(request));
    }
    // Fan-in: export the four leaves as DVSZ and fold them into the
    // aggregator; timed as one composite operation.
    {
      int64_t fan_begin = NowNs();
      auto images = std::make_shared<std::vector<std::string>>();
      bool ok = true;
      for (uint32_t leaf : leaves) {
        Request request;
        request.op = Op::kExportSketch;
        request.tenant = leaf;
        request.arg = static_cast<int64_t>(SketchFormat::kCompressed);
        std::string reply;
        ok = run(request, &reply) && ok;
        if (request.ok) {
          davinci::server::WireReader reader(std::span<const uint8_t>(
              reinterpret_cast<const uint8_t*>(reply.data()) + 1,
              reply.size() - 1));
          uint32_t height = 0;
          std::string image;
          reader.U32(&height);
          reader.Blob(&image);
          images->push_back(std::move(image));
        }
        if (imports == 0) replies.emplace_back(request, reply);
        if (ctx.options.trace) ctx.result.log.push_back(std::move(request));
      }
      if (ok) {
        Request request;
        request.op = Op::kImportMerge;
        request.tenant = kAgg;
        request.images = images;
        std::string reply;
        ok = run(request, &reply);
        if (ok) {
          ctx.streams[kAgg].events.push_back(
              Event{Event::kImport, nullptr, 0, images});
          ++imports;
        }
        if (ctx.options.trace) ctx.result.log.push_back(std::move(request));
      }
      if (ok) {
        analytic_ns.Add(static_cast<double>(NowNs() - fan_begin));
      } else {
        analytic_ns.AddFailure();
      }
      ++ops;
    }
    if (cycle % 2 == 1) {
      // Every kAdvanceEvery ops: a fresh epoch of traffic for the window,
      // then the seal.
      Event event = ctx.input.Take(ctx.streams[kWindow], kBatch);
      Request insert;
      insert.op = Op::kInsertBatch;
      insert.tenant = kWindow;
      insert.batch = event.keys;
      insert.batch_len = event.len;
      std::string reply;
      if (run(insert, &reply)) ctx.streams[kWindow].events.push_back(event);
      if (ctx.options.trace) ctx.result.log.push_back(std::move(insert));
      Request advance;
      advance.op = Op::kAdvanceEpoch;
      advance.tenant = kWindow;
      if (run(advance, &reply)) {
        ctx.streams[kWindow].events.push_back(Event{Event::kAdvance, nullptr, 0, nullptr});
        analytic_ns.Add(static_cast<double>(advance.end_ns - advance.start_ns));
      } else {
        analytic_ns.AddFailure();
      }
      ++ops;
      if (ctx.options.trace) ctx.result.log.push_back(std::move(advance));
    }
  }
  const int64_t run_end = NowNs();
  ctx.Tally(attempted, failed);
  params["fan_in_imports"] = std::to_string(imports);

  // The run's own answers are checked against the reference after it, so
  // only answers the fleet's final state still yields qualify: single-tenant
  // and pair tasks over the static leaves, the window's after its last seal.
  std::vector<std::pair<Request, std::string>> checked;
  for (auto& entry : replies) {
    if (entry.first.tenant != kWindow) checked.push_back(std::move(entry));
  }
  PassSpec spec{leaves, 500, 250, 0, 1e-4};
  PassOutput pass = VerificationPass(ctx, spec, rng);
  {
    // Final answers of the window and the aggregator.
    Request whc;
    whc.op = Op::kWindowHeavyChangers;
    whc.tenant = kWindow;
    whc.arg = static_cast<int64_t>(kBatch / 100);
    std::string reply;
    Call(ctx, client, whc, &reply);
    ctx.Tally(1, whc.ok ? 0 : 1);
    pass.replies.emplace_back(whc, reply);
    for (Op op : {Op::kHeavyHitters, Op::kCardinality}) {
      Request request;
      request.op = op;
      request.tenant = kAgg;
      request.arg = static_cast<int64_t>(kLeafBatches * kBatch / 1000);
      Call(ctx, client, request, &reply);
      ctx.Tally(1, request.ok ? 0 : 1);
      pass.replies.emplace_back(request, reply);
    }
    // One accuracy round per leaf.
    for (uint32_t leaf : leaves) {
      for (Op op : {Op::kHeavyHitters, Op::kCardinality}) {
        Request request;
        request.op = op;
        request.tenant = leaf;
        request.arg = static_cast<int64_t>(kLeafBatches * kBatch / 10000);
        Call(ctx, client, request, &reply);
        ctx.Tally(1, request.ok ? 0 : 1);
        pass.replies.emplace_back(request, reply);
      }
    }
  }
  for (auto& entry : checked) pass.replies.push_back(std::move(entry));
  AddQueryMetrics(ctx, pass.point_ns, pass.batch_ns, analytic_ns,
                  static_cast<double>(ops) / Seconds(start, run_end));
  ctx.result.metrics.Set("server_peak_rss_mib", ctx.daemon.PeakRssMib(), "MiB");
  Reference ref = BuildReference(ctx);
  CheckAndScore(ctx, ref, pass.replies, leaves);
}

}  // namespace

namespace {

// One segment: a fresh daemon, set-up, load, verification.
RunResult RunSegment(const Options& options, std::shared_ptr<Input> input) {
  RunResult result;
  Context ctx(options, result, std::move(input));
  if (options.workload == "ingest_zipf") {
    IngestZipf(ctx);
  } else if (options.workload == "point_reads_under_ingest") {
    PointReads(ctx);
  } else if (options.workload == "fleet_analytics") {
    FleetAnalytics(ctx);
  } else {
    ctx.Error("unknown workload: " + options.workload);
  }
  ctx.daemon.Stop();
  for (const char* name : {"loadgen.writer_lag_p99_ms",
                           "loadgen.offered_mkeys_s",
                           "loadgen.achieved_mkeys_s"}) {
    if (result.metrics.metrics().count(name) == 0) {
      result.metrics.Set(name, 0.0, name[8] == 'w' ? "ms" : "Mkeys/s", 0,
                         "n/a: no open-loop writer in this workload");
    }
  }
  return result;
}

}  // namespace

RunResult RunWorkload(const Options& options) {
  auto input = std::make_shared<Input>();
  if (options.trace) {
    RunResult result = RunSegment(options, input);
    std::stable_sort(result.log.begin(), result.log.end(),
                     [](const Request& a, const Request& b) {
                       return a.start_ns < b.start_ns;
                     });
    return result;
  }
  std::vector<RunResult> segments;
  for (int k = 0; k < kSegments; ++k) {
    segments.push_back(RunSegment(options, input));
    if (!segments.back().correct) break;
  }
  // Every metric is the median over the segments (each an exact statistic
  // of its own raw samples); tallies add up.
  RunResult result;
  result.params = segments.back().params;
  result.params["segments"] = std::to_string(segments.size());
  for (const RunResult& segment : segments) {
    result.attempted += segment.attempted;
    result.failed += segment.failed;
    result.correct = result.correct && segment.correct;
    result.errors.insert(result.errors.end(), segment.errors.begin(),
                         segment.errors.end());
  }
  for (const auto& [name, first] : segments.front().metrics.metrics()) {
    std::vector<std::pair<double, const Metric*>> values;
    size_t samples = 0;
    for (const RunResult& segment : segments) {
      auto it = segment.metrics.metrics().find(name);
      if (it == segment.metrics.metrics().end()) continue;
      values.emplace_back(it->second.value, &it->second);
      samples += it->second.samples;
    }
    std::sort(values.begin(), values.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const Metric& mid = *values[values.size() / 2].second;
    result.metrics.Set(name, mid.value, mid.unit, samples,
                       "median of " + std::to_string(values.size()) +
                           " segments; " + mid.detail);
  }
  return result;
}

}  // namespace perfbench
