#ifndef DAVINCI_SERVER_PROTOCOL_H_
#define DAVINCI_SERVER_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

// Wire protocol of the multi-tenant sketch server (docs/SERVER.md).
//
// Everything on the wire is little-endian and length-prefixed, following
// the same conventions as common/serialize.h (flat PODs, length-prefixed
// vectors, hard caps on every hostile-controlled length BEFORE any
// allocation is sized from it):
//
//   frame    := u32 body_len | body          (1 <= body_len <= kMaxFrameBytes)
//   request  := u8 version | u8 opcode | payload
//   response := u8 status | payload
//
// Strings are u16 len + bytes (tenant names, capped at kMaxNameBytes);
// key/count vectors are u32 count + raw elements (capped at
// kMaxBatchKeys). Doubles travel as their IEEE-754 bit pattern, so a wire
// answer can be compared bit-for-bit against the in-process computation
// (tests/server_protocol_test.cc does exactly that for all nine tasks).
//
// The three layers in this header are deliberately separable so the fuzz
// harness can drive them without sockets:
//   - WireWriter / WireReader: bounds-checked encode/decode of one body;
//   - FrameAssembler: the streaming length-prefix state machine the event
//     loop feeds raw socket bytes into (and fuzz_protocol.cc feeds
//     mutated garbage into);
//   - opcode/status enums shared by client and dispatcher.

namespace davinci::server {

inline constexpr uint8_t kProtocolVersion = 1;

// Hard ceiling on one frame body. Large enough for a 4M-key batch
// response, small enough that a hostile length prefix cannot force a
// giant allocation (the assembler rejects bigger prefixes before
// buffering a byte).
inline constexpr uint32_t kMaxFrameBytes = uint32_t{1} << 26;  // 64 MiB

inline constexpr size_t kMaxNameBytes = 256;
inline constexpr size_t kMaxBatchKeys = size_t{1} << 22;  // 4M keys/frame
inline constexpr size_t kMaxTenants = 4096;
inline constexpr size_t kMaxShardsPerTenant = 1024;
// Fan-in bound of one kImportMerge frame: N sketch images fold into the
// target in one request; wider fan-ins compose as multiple requests (or a
// deeper tree via re-export).
inline constexpr size_t kMaxImportImages = 64;

enum class Op : uint8_t {
  // Admin / lifecycle.
  kPing = 1,
  kCreateTenant = 2,
  kDropTenant = 3,
  kListTenants = 4,
  kAdvanceEpoch = 5,
  kCheckpoint = 6,
  kHealth = 7,
  kFlushViews = 8,  // no-op kept for old clients: writes publish on reply
  // Ingest.
  kInsert = 10,
  kInsertBatch = 11,
  // The paper's nine query tasks (Algorithm 4 numbering in docs/SERVER.md).
  kQuery = 20,           // 1: frequency
  kHeavyHitters = 21,    // 2: heavy hitters
  kHeavyChangers = 22,   // 3: heavy changers (tenant A vs tenant B)
  kCardinality = 23,     // 4: cardinality
  kDistribution = 24,    // 5: flow-size distribution
  kEntropy = 25,         // 6: entropy
  kUnionCardinality = 26,  // 7: set union
  kDifferenceQuery = 27,   // 8: set difference (per-key signed delta)
  kInnerProduct = 28,      // 9: inner join
  // Batched / windowed extensions.
  kQueryBatch = 30,
  kWindowHeavyChangers = 31,
  // Distributed merge tree (docs/SERVER.md §Export / ImportMerge).
  kExportSketch = 40,  // ship a tenant's SaveShards image (flat or DVSZ)
  kImportMerge = 41,   // fan-in merge N exported images into a tenant
  // Dynamic geometry (docs/SERVER.md §ResizeTenant): live re-split of a
  // tenant's memory at the publish boundary, gated by the tenant's quota.
  kResizeTenant = 50,
};

enum class StatusCode : uint8_t {
  kOk = 0,
  kUnknownOp = 1,     // opcode outside the table; connection survives
  kMalformed = 2,     // payload failed the bounds-checked parse
  kBadVersion = 3,
  kNoSuchTenant = 4,
  kTenantExists = 5,
  kBadArgument = 6,   // e.g. cross-tenant query over mismatched geometry
  kTooLarge = 7,      // length prefix above kMaxFrameBytes (fatal per-conn)
  kInternal = 8,
  // Create/resize admission: the requested footprint exceeds the
  // per-tenant memory quota (docs/SERVER.md §Quotas).
  kQuotaExceeded = 9,
};

inline const char* StatusName(StatusCode status) {
  switch (status) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kUnknownOp: return "unknown-op";
    case StatusCode::kMalformed: return "malformed";
    case StatusCode::kBadVersion: return "bad-version";
    case StatusCode::kNoSuchTenant: return "no-such-tenant";
    case StatusCode::kTenantExists: return "tenant-exists";
    case StatusCode::kBadArgument: return "bad-argument";
    case StatusCode::kTooLarge: return "too-large";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kQuotaExceeded: return "quota-exceeded";
  }
  return "invalid-status";
}

// ---------------------------------------------------------------------------
// WireWriter: append-only body builder.

class WireWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  // IEEE-754 bit pattern: wire doubles compare bit-for-bit.
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U16(static_cast<uint16_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Keys(std::span<const uint32_t> keys) {
    U32(static_cast<uint32_t>(keys.size()));
    Raw(keys.data(), keys.size() * sizeof(uint32_t));
  }
  void Counts(std::span<const int64_t> counts) {
    U32(static_cast<uint32_t>(counts.size()));
    Raw(counts.data(), counts.size() * sizeof(int64_t));
  }
  void Pairs(const std::vector<std::pair<uint32_t, int64_t>>& pairs) {
    U32(static_cast<uint32_t>(pairs.size()));
    for (const auto& [key, count] : pairs) {
      U32(key);
      I64(count);
    }
  }
  // Opaque byte payload (serialized sketch images): u32 len + bytes.
  void Blob(const std::string& blob) {
    U32(static_cast<uint32_t>(blob.size()));
    Raw(blob.data(), blob.size());
  }

  const std::string& str() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  void Raw(const void* data, size_t n) {
    if (n == 0) return;  // append(nullptr, 0) is formally UB
    bytes_.append(static_cast<const char*>(data), n);
  }
  std::string bytes_;
};

// Prepends the u32 length prefix to a finished body.
inline std::string Frame(const std::string& body) {
  uint32_t len = static_cast<uint32_t>(body.size());
  std::string frame;
  frame.reserve(sizeof(len) + body.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(body);
  return frame;
}

// ---------------------------------------------------------------------------
// WireReader: bounds-checked cursor over one body. Every accessor returns
// false (and leaves the out-param untouched) on overrun; ok() goes false
// sticky, so a handler can parse a whole payload and check once. Nothing
// here sizes an allocation from a hostile length without capping it first.

class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  bool U8(uint8_t* v) { return Pod(v); }
  bool U16(uint16_t* v) { return Pod(v); }
  bool U32(uint32_t* v) { return Pod(v); }
  bool U64(uint64_t* v) { return Pod(v); }
  bool I64(int64_t* v) { return Pod(v); }
  bool F64(double* v) {
    uint64_t bits = 0;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool Str(std::string* s) {
    uint16_t len = 0;
    if (!U16(&len)) return false;
    if (len > kMaxNameBytes || !Have(len)) return Fail();
    s->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return true;
  }
  bool Keys(std::vector<uint32_t>* keys) {
    uint32_t n = 0;
    if (!U32(&n)) return false;
    if (n > kMaxBatchKeys || !Have(size_t{n} * sizeof(uint32_t))) {
      return Fail();
    }
    keys->resize(n);
    if (n > 0) {
      std::memcpy(keys->data(), bytes_.data() + pos_, n * sizeof(uint32_t));
    }
    pos_ += size_t{n} * sizeof(uint32_t);
    return true;
  }
  bool Counts(std::vector<int64_t>* counts) {
    uint32_t n = 0;
    if (!U32(&n)) return false;
    if (n > kMaxBatchKeys || !Have(size_t{n} * sizeof(int64_t))) {
      return Fail();
    }
    counts->resize(n);
    if (n > 0) {
      std::memcpy(counts->data(), bytes_.data() + pos_, n * sizeof(int64_t));
    }
    pos_ += size_t{n} * sizeof(int64_t);
    return true;
  }
  bool Pairs(std::vector<std::pair<uint32_t, int64_t>>* pairs) {
    uint32_t n = 0;
    if (!U32(&n)) return false;
    if (n > kMaxBatchKeys || !Have(size_t{n} * 12)) return Fail();
    pairs->clear();
    pairs->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t key = 0;
      int64_t count = 0;
      if (!U32(&key) || !I64(&count)) return false;
      pairs->emplace_back(key, count);
    }
    return true;
  }

  // Opaque byte payload (serialized sketch images). The length is capped
  // by the frame bound itself — a blob can never be declared larger than
  // the body that carries it, so no separate cap is needed before sizing
  // the copy.
  bool Blob(std::string* blob) {
    uint32_t len = 0;
    if (!U32(&len)) return false;
    if (len > kMaxFrameBytes || !Have(len)) return Fail();
    blob->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return true;
  }

  // True when the payload was consumed exactly: trailing garbage after a
  // well-formed prefix is rejected too, so every accepted request has one
  // canonical encoding.
  bool Done() const { return ok_ && pos_ == bytes_.size(); }
  bool ok() const { return ok_; }

 private:
  template <typename T>
  bool Pod(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Have(sizeof(T))) return Fail();
    std::memcpy(v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool Have(size_t n) const {
    return ok_ && n <= bytes_.size() - pos_;
  }
  bool Fail() {
    ok_ = false;
    return false;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// FrameAssembler: the streaming length-prefix state machine. The event
// loop (and the fuzz harness) feeds raw bytes in; complete bodies pop out.
// A length prefix above kMaxFrameBytes (or zero) is a fatal framing error:
// the stream cannot be resynchronized, so the connection must send one
// kTooLarge reply and close. State never grows past the declared body
// size, so a hostile prefix cannot balloon the buffer.

class FrameAssembler {
 public:
  // Appends raw bytes. Returns false on a fatal framing error (oversized
  // or zero length prefix); the assembler is then poisoned and Next() will
  // not produce further frames.
  bool Feed(const uint8_t* data, size_t size) {
    if (fatal_) return false;
    buffer_.insert(buffer_.end(), data, data + size);
    // Validate the earliest unvalidated prefix eagerly so oversized
    // declarations are rejected before more bytes accumulate.
    if (buffer_.size() >= sizeof(uint32_t)) {
      uint32_t len = PeekLen();
      if (len == 0 || len > kMaxFrameBytes) {
        fatal_ = true;
        return false;
      }
    }
    return true;
  }

  // Pops the next complete body, if any.
  bool Next(std::vector<uint8_t>* body) {
    if (fatal_ || buffer_.size() < sizeof(uint32_t)) return false;
    uint32_t len = PeekLen();
    if (len == 0 || len > kMaxFrameBytes) {
      fatal_ = true;
      return false;
    }
    if (buffer_.size() < sizeof(uint32_t) + len) return false;
    body->assign(buffer_.begin() + sizeof(uint32_t),
                 buffer_.begin() + sizeof(uint32_t) + len);
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + sizeof(uint32_t) + len);
    return true;
  }

  bool fatal() const { return fatal_; }
  size_t buffered() const { return buffer_.size(); }

 private:
  uint32_t PeekLen() const {
    uint32_t len = 0;
    std::memcpy(&len, buffer_.data(), sizeof(len));
    return len;
  }

  std::vector<uint8_t> buffer_;
  bool fatal_ = false;
};

// One-status response body (the common error shape).
inline std::string StatusBody(StatusCode status) {
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(status));
  return writer.Take();
}

}  // namespace davinci::server

#endif  // DAVINCI_SERVER_PROTOCOL_H_
