#ifndef DAVINCI_SERVER_SERVER_H_
#define DAVINCI_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/worker_pool.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "server/tenant.h"

// SketchServer: the multi-tenant measurement daemon (docs/SERVER.md).
//
// Architecture: ONE event-loop thread owns every socket; request
// execution fans out through a WorkerPool. Each poll() iteration
//   1. accepts new connections and drains readable sockets into their
//      per-connection FrameAssembler (the length-prefix state machine
//      that rejects hostile prefixes before buffering);
//   2. collects the connections that completed >= 1 frame and runs ONE
//      WorkerPool::Run round over them — each worker claims a connection
//      and handles ALL of its frames in arrival order. A connection is
//      touched by exactly one worker per round, so responses stay in
//      request order and no per-connection locking exists at all;
//      tenant-level synchronization lives inside TenantRegistry/Tenant.
//   3. flushes response bytes, closing connections that hit a fatal
//      framing error (kTooLarge reply first) or EOF.
//
// Lifecycle: Start() binds (loopback only), recovers tenants from the
// newest valid checkpoints (warm restart), and launches the loop thread.
// Stop() wakes the loop via a self-pipe, joins, closes every socket, and
// — when persistent — checkpoints all tenants one final time.

namespace davinci::server {

struct ServerOptions {
  // 0 = ephemeral port; port() reports the bound one after Start().
  uint16_t port = 0;
  // Empty disables persistence (no recovery, no checkpoints).
  std::string checkpoint_dir;
  // Mutations per tenant between automatic seal-and-checkpoint triggers;
  // 0 leaves only explicit kCheckpoint/kAdvanceEpoch checkpoints.
  uint64_t checkpoint_every = 0;
  // Extra threads in the request-execution pool (0 = everything on the
  // event-loop thread).
  size_t workers = 3;
};

class SketchServer {
 public:
  explicit SketchServer(ServerOptions options);
  ~SketchServer();
  SketchServer(const SketchServer&) = delete;
  SketchServer& operator=(const SketchServer&) = delete;

  // Binds + recovers + launches the loop thread. False on bind failure.
  bool Start();
  // Idempotent. Joins the loop thread; final CheckpointAll when persistent.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  // The tenant map (tests reach in to compare wire answers against
  // in-process ones; the daemon main only touches it via the wire).
  TenantRegistry& registry() { return registry_; }

 private:
  struct Connection {
    int fd = -1;
    FrameAssembler assembler;
    // Complete request bodies gathered this iteration (drained by the
    // dispatch round).
    std::vector<std::vector<uint8_t>> inbox;
    // Framed responses; bytes before outbox_sent are already on the
    // socket. A send advances the cursor instead of erasing the prefix, so
    // a multi-MB reply written in socket-buffer-sized pieces costs linear
    // time, not a memmove of the remainder per piece.
    std::string outbox;
    size_t outbox_sent = 0;
    bool HasUnsent() const { return outbox_sent < outbox.size(); }
    // Sent after a fatal framing error, then close once outbox drains.
    bool close_after_flush = false;
    bool eof = false;
  };

  void Loop();
  void AcceptNew();
  // Reads everything available; queues kTooLarge + close on framing abuse.
  void DrainReadable(Connection& conn);
  // One WorkerPool round over every connection with a non-empty inbox.
  void DispatchRound();
  void FlushWritable(Connection& conn);

  const ServerOptions options_;
  TenantRegistry registry_;
  RequestDispatcher dispatcher_;
  WorkerPool pool_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread loop_thread_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace davinci::server

#endif  // DAVINCI_SERVER_SERVER_H_
