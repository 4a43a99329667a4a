#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.h"

namespace perfbench {

using davinci::server::kProtocolVersion;
using davinci::server::Op;
using davinci::server::WireWriter;

void Samples::AddFailure() {
  values_.push_back(std::numeric_limits<double>::infinity());
  dirty_ = true;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  dirty_ = true;
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  if (dirty_ || sorted_.size() != values_.size()) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    dirty_ = false;
  }
  double rank = std::ceil(q * static_cast<double>(sorted_.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted_[std::min(index, sorted_.size() - 1)];
}

double Samples::TailQuantile() const {
  double n = static_cast<double>(values_.size());
  if (n <= 20.0) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / n);
}

void MetricSink::Set(const std::string& name, double value,
                     const std::string& unit, size_t samples,
                     const std::string& detail) {
  metrics_[name] = Metric{value, unit, samples, detail};
}

void MetricSink::Latency(const std::string& prefix, const Samples& samples,
                         double scale, const std::string& unit) {
  char detail[64];
  std::snprintf(detail, sizeof(detail), "p50 of %zu samples", samples.size());
  Set(prefix + "_p50_" + unit, samples.Median() * scale, unit, samples.size(),
      detail);
  std::snprintf(detail, sizeof(detail), "p%.1f of %zu samples",
                samples.TailQuantile() * 100.0, samples.size());
  Set(prefix + "_p99_" + unit, samples.Tail() * scale, unit, samples.size(),
      detail);
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kInsertBatch: return "insert_batch";
    case Op::kQuery: return "query";
    case Op::kQueryBatch: return "query_batch";
    case Op::kHeavyHitters: return "heavy_hitters";
    case Op::kHeavyChangers: return "heavy_changers";
    case Op::kCardinality: return "cardinality";
    case Op::kDistribution: return "distribution";
    case Op::kEntropy: return "entropy";
    case Op::kUnionCardinality: return "union";
    case Op::kDifferenceQuery: return "difference";
    case Op::kInnerProduct: return "inner_product";
    case Op::kWindowHeavyChangers: return "window_heavy_changers";
    case Op::kExportSketch: return "export";
    case Op::kImportMerge: return "import_merge";
    case Op::kAdvanceEpoch: return "advance_epoch";
    default: return "other";
  }
}

std::string RequestBody(const Fleet& fleet, const Request& request) {
  WireWriter writer;
  writer.U8(kProtocolVersion);
  writer.U8(static_cast<uint8_t>(request.op));
  writer.Str(fleet.tenants[request.tenant].name);
  switch (request.op) {
    case Op::kInsertBatch:
      writer.Keys({request.batch, request.batch_len});
      writer.U32(0);  // no counts: one per key
      break;
    case Op::kQuery:
      writer.U32(request.keys.at(0));
      break;
    case Op::kQueryBatch:
      writer.Keys(request.keys);
      break;
    case Op::kHeavyHitters:
    case Op::kWindowHeavyChangers:
      writer.I64(request.arg);
      break;
    case Op::kHeavyChangers:
      writer.Str(fleet.tenants[request.tenant_b].name);
      writer.I64(request.arg);
      break;
    case Op::kUnionCardinality:
    case Op::kInnerProduct:
      writer.Str(fleet.tenants[request.tenant_b].name);
      break;
    case Op::kDifferenceQuery:
      writer.Str(fleet.tenants[request.tenant_b].name);
      writer.Keys(request.keys);
      break;
    case Op::kExportSketch:
      writer.U8(static_cast<uint8_t>(request.arg));
      break;
    case Op::kImportMerge:
      writer.U32(static_cast<uint32_t>(request.images->size()));
      for (const std::string& image : *request.images) {
        writer.U32(0);  // every exported leaf is a raw-ingest leaf
        writer.Blob(image);
      }
      break;
    default:  // name-only bodies (cardinality, entropy, ...)
      break;
  }
  return writer.Take();
}

}  // namespace perfbench
