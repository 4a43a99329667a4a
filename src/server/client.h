#ifndef DAVINCI_SERVER_CLIENT_H_
#define DAVINCI_SERVER_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "server/protocol.h"

// Blocking client for the sketch server: one method per opcode, plus raw
// escape hatches (SendRaw / SendRequest / ReadResponse / fd()) that the
// conformance tests use to speak hostile bytes and the loadgen uses to
// pipeline. Every typed call returns the server's StatusCode, or
// kInternal when the transport itself failed (connection refused, short
// read, oversized reply). Not thread-safe: one Client per thread.

namespace davinci::server {

struct HealthReply {
  uint64_t shards = 0;
  uint64_t memory_bytes = 0;
  uint64_t inserts = 0;
  uint64_t queries = 0;
  uint64_t epoch = 0;
  bool windowed = false;
  // Merge-tree aggregation height (0 = pure raw-ingest leaf).
  uint32_t merge_height = 0;
  // Resize provenance (kResizeTenant; survives DVCK recovery).
  uint64_t resizes_applied = 0;
  uint64_t resizes_rejected = 0;
  uint64_t resize_bytes_before = 0;
  uint64_t resize_bytes_after = 0;
  uint32_t resize_last_trigger = 0;  // obs::ResizeHealth::Trigger
};

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects to 127.0.0.1:port (the server only binds loopback).
  bool Connect(uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }
  // The raw socket, for tests that bypass the framing entirely.
  int fd() const { return fd_; }

  // ---- raw layer ----
  bool SendRaw(const void* data, size_t size);
  // Frames and sends one request body without waiting for the reply
  // (pipelining: send N, then ReadResponse N times, in order).
  bool SendRequest(const std::string& body);
  // Reads one framed response body (blocking).
  bool ReadResponse(std::string* body);
  // SendRequest + ReadResponse.
  bool Call(const std::string& body, std::string* response);

  // ---- admin / lifecycle ----
  StatusCode Ping();
  StatusCode CreateTenant(const std::string& name, uint32_t shards,
                          uint64_t total_bytes, uint64_t seed,
                          uint32_t window_epochs = 0, uint64_t max_bytes = 0);
  // Rebuilds `name` onto a new byte budget (kResizeTenant). On success
  // `new_memory_bytes` (optional) reports the engine's post-resize
  // footprint; kQuotaExceeded when the tenant's quota caps it below the
  // request.
  StatusCode ResizeTenant(const std::string& name, uint64_t total_bytes,
                          uint64_t* new_memory_bytes = nullptr);
  StatusCode DropTenant(const std::string& name);
  StatusCode ListTenants(std::vector<std::string>* names);
  StatusCode AdvanceEpoch(const std::string& name, uint64_t* epoch);
  StatusCode Checkpoint(const std::string& name, bool* written);
  StatusCode Health(const std::string& name, HealthReply* out);
  // kOk / kNoSuchTenant only; the server has nothing to flush.
  StatusCode FlushViews(const std::string& name);

  // ---- merge-tree fan-in ----
  // One exported image with its aggregation height, as shipped on the wire.
  struct ExportedSketch {
    uint32_t height = 0;
    std::string image;
  };
  // Flushes + serializes `name`'s shard image server-side (format 0 = flat,
  // 1 = DVSZ compressed) and returns it with the tenant's merge height.
  StatusCode ExportSketch(const std::string& name, uint8_t format,
                          ExportedSketch* out);
  // Fan-in: folds `images` (in order) into tenant `name`; on success
  // `new_height` (optional) reports the tenant's post-import merge height.
  StatusCode ImportMerge(const std::string& name,
                         std::span<const ExportedSketch> images,
                         uint32_t* new_height = nullptr);

  // ---- ingest ----
  StatusCode Insert(const std::string& name, uint32_t key, int64_t count = 1);
  StatusCode InsertBatch(const std::string& name,
                         std::span<const uint32_t> keys,
                         std::span<const int64_t> counts);
  // Builds the kInsertBatch request body without sending it (pipelining).
  static std::string InsertBatchRequest(const std::string& name,
                                        std::span<const uint32_t> keys,
                                        std::span<const int64_t> counts);

  // ---- the nine query tasks ----
  StatusCode Query(const std::string& name, uint32_t key, int64_t* out);
  StatusCode QueryBatch(const std::string& name,
                        std::span<const uint32_t> keys,
                        std::vector<int64_t>* out);
  static std::string QueryRequest(const std::string& name, uint32_t key);
  StatusCode HeavyHitters(const std::string& name, int64_t threshold,
                          std::vector<std::pair<uint32_t, int64_t>>* out);
  StatusCode HeavyChangers(const std::string& a, const std::string& b,
                           int64_t delta,
                           std::vector<std::pair<uint32_t, int64_t>>* out);
  StatusCode Cardinality(const std::string& name, double* out);
  StatusCode Distribution(const std::string& name,
                          std::vector<std::pair<int64_t, int64_t>>* out);
  StatusCode Entropy(const std::string& name, double* out);
  StatusCode UnionCardinality(const std::string& a, const std::string& b,
                              double* out);
  StatusCode DifferenceQuery(const std::string& a, const std::string& b,
                             std::span<const uint32_t> keys,
                             std::vector<int64_t>* out);
  StatusCode InnerProduct(const std::string& a, const std::string& b,
                          double* out);
  StatusCode WindowHeavyChangers(
      const std::string& name, int64_t delta,
      std::vector<std::pair<uint32_t, int64_t>>* out);

  // Parses a response produced by a pipelined ReadResponse for an op with
  // a status-only payload.
  static StatusCode ParseStatus(const std::string& response);

 private:
  // Sends `body` and parses `u8 status`, leaving the reader positioned on
  // the payload for the caller. False on transport failure.
  bool RoundTrip(const std::string& body, std::string* response,
                 StatusCode* status);

  int fd_ = -1;
};

}  // namespace davinci::server

#endif  // DAVINCI_SERVER_CLIENT_H_
