#include "core/config.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"
#include "common/serialize.h"

namespace davinci {

void DaVinciConfig::Validate() const {
  DAVINCI_CHECK_MSG(decode_threads >= 1 && decode_threads <= 64,
                    "decode_threads must be in [1, 64]");
  DAVINCI_CHECK_MSG(decode_min_buckets_per_worker >= 1,
                    "decode_min_buckets_per_worker must be >= 1");
}

bool DaVinciConfig::Valid() const {
  if (fp_buckets < 1 || fp_buckets > (uint64_t{1} << 24)) return false;
  if (fp_slots < 1 || fp_slots > 64) return false;
  if (evict_lambda < 1 || evict_lambda > (int64_t{1} << 20)) return false;
  if (ef_level_bits.empty() || ef_level_bits.size() > 8) return false;
  for (int bits : ef_level_bits) {
    if (bits < 1 || bits > 64) return false;
  }
  if (ef_bytes < 64 || ef_bytes > kMaxLoadedBytes) return false;
  if (promotion_threshold < 1 || promotion_threshold > kMaxLoadedCount) {
    return false;
  }
  if (ifp_rows < 1 || ifp_rows > 16) return false;
  if (ifp_buckets_per_row < 1 || ifp_buckets_per_row > (uint64_t{1} << 24)) {
    return false;
  }
  // With the per-field caps above, each term fits comfortably in 64 bits
  // (2^24 buckets × ≤ 518 B < 2^34), so this sum cannot overflow.
  uint64_t total = static_cast<uint64_t>(FpBytes()) + ef_bytes +
                   static_cast<uint64_t>(IfpBytes());
  return total <= kMaxLoadedBytes;
}

DaVinciConfig DaVinciConfig::FromMemory(size_t total_bytes, uint64_t seed) {
  return FromMemorySplit(total_bytes, 0.25, 0.50, seed);
}

DaVinciConfig DaVinciConfig::FromMemorySplit(size_t total_bytes,
                                             double fp_fraction,
                                             double ef_fraction,
                                             uint64_t seed) {
  DaVinciConfig config;
  config.seed = seed;

  size_t fp_bytes =
      static_cast<size_t>(static_cast<double>(total_bytes) * fp_fraction);
  size_t ef_bytes =
      static_cast<size_t>(static_cast<double>(total_bytes) * ef_fraction);
  size_t ifp_bytes = total_bytes - fp_bytes - ef_bytes;

  size_t bucket_bytes =
      config.fp_slots * kFpSlotBytes + kFpBucketOverheadBytes;
  config.fp_buckets = std::max<size_t>(1, fp_bytes / bucket_bytes);
  config.ef_bytes = std::max<size_t>(64, ef_bytes);
  config.ifp_buckets_per_row = std::max<size_t>(
      4, ifp_bytes / kIfpBucketBytes / config.ifp_rows);
  return config;
}

void DaVinciConfig::Save(std::ostream& out) const {
  WritePod(out, static_cast<uint64_t>(fp_buckets));
  WritePod(out, static_cast<uint64_t>(fp_slots));
  WritePod(out, evict_lambda);
  WriteVec(out, ef_level_bits);
  WritePod(out, static_cast<uint64_t>(ef_bytes));
  WritePod(out, promotion_threshold);
  WritePod(out, static_cast<uint64_t>(ifp_rows));
  WritePod(out, static_cast<uint64_t>(ifp_buckets_per_row));
  WritePod(out, static_cast<uint8_t>(use_sign_hash ? 1 : 0));
  WritePod(out, static_cast<uint8_t>(decode_cross_validation ? 1 : 0));
  WritePod(out, seed);
}

DaVinciConfig::GeometryRelation DaVinciConfig::GeometryCompatible(
    const DaVinciConfig& from, const DaVinciConfig& to) {
  if (!from.Valid() || !to.Valid()) return GeometryRelation::kIncompatible;
  // The serialized geometry (every field Save() writes).
  auto geometry = [](const DaVinciConfig& c) {
    return std::tie(c.seed, c.fp_buckets, c.fp_slots, c.evict_lambda,
                    c.ef_level_bits, c.ef_bytes, c.promotion_threshold,
                    c.ifp_rows, c.ifp_buckets_per_row, c.use_sign_hash,
                    c.decode_cross_validation);
  };
  if (geometry(from) == geometry(to)) return GeometryRelation::kIdentical;
  // The rebuild/replay path re-inserts surviving flows through the new
  // sketch's hash pipeline; a shared seed keeps the hash family (and the
  // EF cross-validation it feeds) continuous across the migration.
  if (from.seed != to.seed) return GeometryRelation::kIncompatible;
  return GeometryRelation::kResizable;
}

bool DaVinciConfig::Load(std::istream& in, DaVinciConfig* config) {
  uint64_t fp_buckets = 0;
  if (!ReadPod(in, &fp_buckets)) return false;
  return LoadTail(fp_buckets, in, config);
}

bool DaVinciConfig::LoadTail(uint64_t fp_buckets, std::istream& in,
                             DaVinciConfig* config) {
  uint64_t fp_slots = 0, ef_bytes = 0, ifp_rows = 0, ifp_buckets = 0;
  uint8_t signs = 0, validate = 0;
  if (!ReadPod(in, &fp_slots) ||
      !ReadPod(in, &config->evict_lambda) ||
      !ReadVec(in, &config->ef_level_bits) || !ReadPod(in, &ef_bytes) ||
      !ReadPod(in, &config->promotion_threshold) || !ReadPod(in, &ifp_rows) ||
      !ReadPod(in, &ifp_buckets) || !ReadPod(in, &signs) ||
      !ReadPod(in, &validate) || !ReadPod(in, &config->seed)) {
    return false;
  }
  config->fp_buckets = fp_buckets;
  config->fp_slots = fp_slots;
  config->ef_bytes = ef_bytes;
  config->ifp_rows = ifp_rows;
  config->ifp_buckets_per_row = ifp_buckets;
  config->use_sign_hash = signs != 0;
  config->decode_cross_validation = validate != 0;
  // Geometry gate: everything below came from the (possibly hostile)
  // stream; the caller is about to size allocations from it.
  return config->Valid();
}

}  // namespace davinci
