#ifndef DAVINCI_SERVER_DISPATCHER_H_
#define DAVINCI_SERVER_DISPATCHER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "server/protocol.h"
#include "server/tenant.h"

// RequestDispatcher: one request body in, one response body out. This is
// the server's entire opcode surface, factored away from the socket layer
// so tests/server_protocol_test.cc can exercise every handler in-process
// and the event loop stays a dumb byte pump.
//
// Contracts (asserted by the protocol conformance tests):
//   - NEVER aborts or throws on a hostile body: unknown opcodes answer
//     kUnknownOp, short/overlong/garbage payloads answer kMalformed, and
//     a cross-tenant query over mismatched sketch geometry answers
//     kBadArgument instead of tripping the core's DAVINCI_CHECK.
//   - Queries are answered exclusively from published SketchViews (the
//     engine's lock-free read path / SharedSnapshot()); a query never
//     takes a writer lock, so a slow reader cannot stall ingest.
//   - Answers are bit-identical to the in-process computation: doubles
//     travel as IEEE-754 bit patterns, pair lists in the core's order.
//
// When constructed over a persistent registry with checkpoint_every > 0,
// ingest handlers count mutations per tenant and — at the threshold —
// seal an epoch and checkpoint that tenant (the "periodic checkpoint at
// epoch-seal boundaries" lifecycle in docs/SERVER.md).

namespace davinci::server {

struct DispatcherOptions {
  // Mutations per tenant between automatic seal-and-checkpoint triggers;
  // 0 disables the trigger (explicit kCheckpoint still works).
  uint64_t checkpoint_every = 0;
};

class RequestDispatcher {
 public:
  explicit RequestDispatcher(TenantRegistry* registry,
                             DispatcherOptions options = {});

  // Handles one framed request body, returning the response body (the
  // caller frames it). Thread-compatible with itself: concurrent Handle
  // calls are safe — all shared state lives behind the registry's and
  // tenants' own synchronization.
  std::string Handle(std::span<const uint8_t> body);

 private:
  std::string Dispatch(Op op, WireReader& reader);

  // Admin / lifecycle.
  std::string CreateTenant(WireReader& reader);
  std::string DropTenant(WireReader& reader);
  std::string ListTenants(WireReader& reader);
  std::string AdvanceEpoch(WireReader& reader);
  std::string Checkpoint(WireReader& reader);
  std::string Health(WireReader& reader);
  std::string FlushViews(WireReader& reader);
  // Dynamic geometry (docs/SERVER.md §Resize).
  std::string ResizeTenant(WireReader& reader);
  // Merge-tree fan-in (docs/SERVER.md §Export / ImportMerge).
  std::string ExportSketch(WireReader& reader);
  std::string ImportMerge(WireReader& reader);
  // Ingest.
  std::string Insert(WireReader& reader);
  std::string InsertBatch(WireReader& reader);
  // Queries.
  std::string Query(WireReader& reader);
  std::string QueryBatch(WireReader& reader);
  std::string HeavyHitters(WireReader& reader);
  std::string HeavyChangers(WireReader& reader);
  std::string Cardinality(WireReader& reader);
  std::string Distribution(WireReader& reader);
  std::string Entropy(WireReader& reader);
  std::string UnionCardinality(WireReader& reader);
  std::string DifferenceQuery(WireReader& reader);
  std::string InnerProduct(WireReader& reader);
  std::string WindowHeavyChangers(WireReader& reader);

  // Seals + checkpoints `tenant` once its mutation tally since the last
  // checkpoint reaches options_.checkpoint_every.
  void MaybeCheckpoint(const std::shared_ptr<Tenant>& tenant,
                       uint64_t mutations);

  TenantRegistry* registry_;
  DispatcherOptions options_;
};

}  // namespace davinci::server

#endif  // DAVINCI_SERVER_DISPATCHER_H_
