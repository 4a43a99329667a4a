#include "core/frequent_part.h"

#include <algorithm>
#include <cstdlib>

#include "common/prefetch.h"
#include "common/serialize.h"
#include "common/varint.h"
#include "obs/stats.h"

namespace davinci {

FrequentPart::FrequentPart(size_t buckets, size_t slots, int64_t evict_lambda,
                           uint64_t seed)
    : buckets_(std::max<size_t>(1, buckets)),
      slots_(std::max<size_t>(1, slots)),
      stride_(simd::PaddedSlots(std::max<size_t>(1, slots))),
      evict_lambda_(evict_lambda),
      hash_(seed * 21000277 + 17),
      store_(std::make_shared<Storage>()) {
  store_->keys.assign(buckets_ * stride_, 0);
  store_->counts.assign(buckets_ * stride_, 0);
  store_->tainted.assign(buckets_ * stride_, 0);
  store_->ecnt.assign(buckets_, 0);
  store_->flags.assign(buckets_, 0);
}

void FrequentPart::CloneStore() {
  store_ = std::make_shared<Storage>(*store_);
  obs::CowTally::RecordClone(store_->ByteSize());
}

void FrequentPart::PrefetchBucket(uint64_t base_hash) const {
  const Storage& s = *store_;
  size_t base = BucketOfBase(base_hash) * stride_;
  PrefetchWrite(&s.keys[base]);
  PrefetchWrite(&s.counts[base]);
  // A bucket's counts span stride_ × 8 bytes and may straddle a line.
  PrefetchWrite(&s.counts[base + stride_ - 1]);
}

void FrequentPart::PrefetchBucketRead(uint64_t base_hash) const {
  const Storage& s = *store_;
  size_t base = BucketOfBase(base_hash) * stride_;
  PrefetchRead(&s.keys[base]);
  PrefetchRead(&s.counts[base]);
  PrefetchRead(&s.counts[base + stride_ - 1]);
}

FrequentPart::InsertResult FrequentPart::InsertWithHash(uint32_t key,
                                                        uint64_t base_hash,
                                                        int64_t count) {
  stats_.inserts.Inc();
  Storage& st = Mut();
  size_t bucket = BucketOfBase(base_hash);
  size_t base = bucket * stride_;

  // Case 1 first: one vector compare over the bucket's key lane. The
  // access tally mirrors the pre-SIMD slot walk (hit at slot s = s + 1
  // probes, full miss = slots_ probes) so MemoryAccesses() stays
  // backend-independent. Liveness is count != 0 so that difference tables
  // (negative counts) keep working.
  size_t hit = simd::FindLiveKey(&st.keys[base], &st.counts[base], stride_, key);
  if (hit != SIZE_MAX) {
    accesses_ += hit + 1;
    size_t i = base + hit;
    st.counts[i] += count;
    if (i != base &&
        std::llabs(st.counts[i]) > std::llabs(st.counts[i - 1])) {
      // Move-to-front: hot flows bubble toward the bucket head so their
      // next hit costs fewer probes.
      std::swap(st.keys[i], st.keys[i - 1]);
      std::swap(st.counts[i], st.counts[i - 1]);
      std::swap(st.tainted[i], st.tainted[i - 1]);
    }
    stats_.hits.Inc();
    return {};
  }
  accesses_ += slots_;

  size_t empty = simd::FindZeroCount(&st.counts[base], stride_);
  if (empty < slots_) {  // case 2 (a padding slot does not count as free)
    size_t i = base + empty;
    st.keys[i] = key;
    st.counts[i] = count;
    st.tainted[i] = 0;
    stats_.fills.Inc();
    return {};
  }

  // Bucket full: scalar scan for the resident minimum |count|.
  size_t min_slot = base;
  bool min_seen = false;
  for (size_t i = base; i < base + slots_; ++i) {
    if (!min_seen ||
        std::llabs(st.counts[i]) < std::llabs(st.counts[min_slot])) {
      min_slot = i;
      min_seen = true;
    }
  }

  accesses_ += 2;  // ecnt + flag
  st.ecnt[bucket] += 1;
  // λ·|min| can exceed int64 for loaded extreme counts (λ up to 2^20,
  // |count| up to 2^60 pass Load validation); ecnt is 32-bit, so any
  // |min| ≥ 2^32 loses the vote without needing the product.
  int64_t min_abs = std::llabs(st.counts[min_slot]);
  if (min_abs <= (int64_t{1} << 32) &&
      static_cast<int64_t>(st.ecnt[bucket]) > evict_lambda_ * min_abs) {
    // Case 3: evict the resident minimum toward the element filter. The
    // newcomer had earlier rejections routed to the filter, so it is
    // tainted.
    InsertResult result;
    result.action = InsertResult::Action::kEvicted;
    result.overflow_key = st.keys[min_slot];
    result.overflow_count = st.counts[min_slot];
    st.keys[min_slot] = key;
    st.counts[min_slot] = count;
    st.tainted[min_slot] = 1;
    st.flags[bucket] = 1;
    st.ecnt[bucket] = 0;
    stats_.evictions.Inc();
    return result;
  }
  // Case 4: the incoming element is deemed infrequent.
  stats_.rejections.Inc();
  InsertResult result;
  result.action = InsertResult::Action::kRejected;
  result.overflow_key = key;
  result.overflow_count = count;
  return result;
}

bool FrequentPart::Contains(uint32_t key) const {
  bool tainted = false;
  return Query(key, &tainted) != 0;
}

std::vector<FrequentPart::Entry> FrequentPart::Entries() const {
  const Storage& st = *store_;
  std::vector<Entry> entries;
  for (size_t b = 0; b < buckets_; ++b) {
    size_t base = b * stride_;
    for (size_t s = 0; s < slots_; ++s) {
      size_t i = base + s;
      if (st.counts[i] != 0) {
        entries.push_back({st.keys[i], st.counts[i], st.tainted[i] != 0});
      }
    }
  }
  return entries;
}

// Serialization carries only the logical buckets_ × slots_ entries, in the
// pre-padding layout — the byte stream is identical for every SIMD backend
// (and to pre-stride builds; the pinned digest in serialization_fuzz_test
// enforces this).
void FrequentPart::SaveState(std::ostream& out) const {
  const Storage& st = *store_;
  std::vector<uint32_t> keys(buckets_ * slots_);
  std::vector<int64_t> counts(buckets_ * slots_);
  std::vector<uint8_t> tainted(buckets_ * slots_);
  for (size_t b = 0; b < buckets_; ++b) {
    for (size_t s = 0; s < slots_; ++s) {
      keys[b * slots_ + s] = st.keys[b * stride_ + s];
      counts[b * slots_ + s] = st.counts[b * stride_ + s];
      tainted[b * slots_ + s] = st.tainted[b * stride_ + s];
    }
  }
  WriteVec(out, keys);
  WriteVec(out, counts);
  WriteVec(out, tainted);
  WriteVec(out, st.ecnt);
  WriteVec(out, st.flags);
}

bool FrequentPart::LoadState(std::istream& in) {
  std::vector<uint32_t> keys;
  std::vector<int64_t> counts;
  std::vector<uint8_t> tainted;
  std::vector<uint32_t> ecnt;
  std::vector<uint8_t> flags;
  if (!ReadVec(in, &keys) || !ReadVec(in, &counts) || !ReadVec(in, &tainted) ||
      !ReadVec(in, &ecnt) || !ReadVec(in, &flags)) {
    return false;
  }
  if (keys.size() != buckets_ * slots_ || counts.size() != keys.size() ||
      tainted.size() != keys.size() || ecnt.size() != buckets_ ||
      flags.size() != buckets_) {
    return false;
  }
  // Range validation (tests/fuzz/fuzz_serialize.cc drives mutated images
  // through here): capping loaded counts keeps the λ-vote comparison
  // (λ·|min|) and ResolveQuery's three-part sum inside int64; llabs at
  // INT64_MIN is itself UB, so that value must never enter.
  for (int64_t count : counts) {
    if (count > kMaxLoadedCount || count < -kMaxLoadedCount) return false;
  }
  Storage& st = Mut();
  st.keys.assign(buckets_ * stride_, 0);
  st.counts.assign(buckets_ * stride_, 0);
  st.tainted.assign(buckets_ * stride_, 0);
  for (size_t b = 0; b < buckets_; ++b) {
    for (size_t s = 0; s < slots_; ++s) {
      st.keys[b * stride_ + s] = keys[b * slots_ + s];
      st.counts[b * stride_ + s] = counts[b * slots_ + s];
      st.tainted[b * stride_ + s] = tainted[b * slots_ + s];
    }
  }
  st.ecnt = std::move(ecnt);
  st.flags = std::move(flags);
  return true;
}

namespace {

// Bitmap packing for the taint / flag lanes: eight 0/1 bytes per output
// byte, LSB-first. The reader rejects set spare bits in the final partial
// byte — a canonical image never has them, so they flag corruption.
void WritePackedBits(std::ostream& out, const std::vector<uint8_t>& bits) {
  for (size_t i = 0; i < bits.size(); i += 8) {
    uint8_t byte = 0;
    for (size_t j = 0; j < 8 && i + j < bits.size(); ++j) {
      if (bits[i + j] != 0) byte = static_cast<uint8_t>(byte | (1u << j));
    }
    WritePod(out, byte);
  }
}

bool ReadPackedBits(std::istream& in, size_t count,
                    std::vector<uint8_t>* bits) {
  bits->assign(count, 0);
  for (size_t i = 0; i < count; i += 8) {
    uint8_t byte = 0;
    if (!ReadPod(in, &byte)) return false;
    size_t lanes = std::min<size_t>(8, count - i);
    if (lanes < 8 && (byte >> lanes) != 0) return false;
    for (size_t j = 0; j < lanes; ++j) {
      (*bits)[i + j] = (byte >> j) & 1;
    }
  }
  return true;
}

}  // namespace

void FrequentPart::SaveStateCompressed(std::ostream& out) const {
  const Storage& st = *store_;
  std::vector<uint32_t> keys(buckets_ * slots_);
  std::vector<uint8_t> tainted(buckets_ * slots_);
  for (size_t b = 0; b < buckets_; ++b) {
    for (size_t s = 0; s < slots_; ++s) {
      keys[b * slots_ + s] = st.keys[b * stride_ + s];
      tainted[b * slots_ + s] = st.tainted[b * stride_ + s];
    }
  }
  WriteVec(out, keys);
  for (size_t b = 0; b < buckets_; ++b) {
    for (size_t s = 0; s < slots_; ++s) {
      WriteVarI64(out, st.counts[b * stride_ + s]);
    }
  }
  WritePackedBits(out, tainted);
  for (size_t b = 0; b < buckets_; ++b) {
    WriteVarU64(out, st.ecnt[b]);
  }
  WritePackedBits(out, std::vector<uint8_t>(st.flags.begin(), st.flags.end()));
}

bool FrequentPart::LoadStateCompressed(std::istream& in) {
  std::vector<uint32_t> keys;
  if (!ReadVec(in, &keys) || keys.size() != buckets_ * slots_) return false;
  std::vector<int64_t> counts(buckets_ * slots_);
  for (size_t i = 0; i < counts.size(); ++i) {
    int64_t count = 0;
    if (!ReadVarI64(in, &count)) return false;
    // Same range gate as the flat loader: the λ-vote and ResolveQuery
    // arithmetic trusts loaded counts to sit within ±kMaxLoadedCount.
    if (count > kMaxLoadedCount || count < -kMaxLoadedCount) return false;
    counts[i] = count;
  }
  std::vector<uint8_t> tainted;
  if (!ReadPackedBits(in, buckets_ * slots_, &tainted)) return false;
  std::vector<uint32_t> ecnt(buckets_);
  for (size_t b = 0; b < buckets_; ++b) {
    uint64_t value = 0;
    if (!ReadVarU64(in, &value)) return false;
    if (value > UINT32_MAX) return false;
    ecnt[b] = static_cast<uint32_t>(value);
  }
  std::vector<uint8_t> flags;
  if (!ReadPackedBits(in, buckets_, &flags)) return false;
  Storage& st = Mut();
  st.keys.assign(buckets_ * stride_, 0);
  st.counts.assign(buckets_ * stride_, 0);
  st.tainted.assign(buckets_ * stride_, 0);
  for (size_t b = 0; b < buckets_; ++b) {
    for (size_t s = 0; s < slots_; ++s) {
      st.keys[b * stride_ + s] = keys[b * slots_ + s];
      st.counts[b * stride_ + s] = counts[b * slots_ + s];
      st.tainted[b * stride_ + s] = tainted[b * slots_ + s];
    }
  }
  st.ecnt = std::move(ecnt);
  st.flags = std::move(flags);
  return true;
}

void FrequentPart::CheckInvariants(InvariantMode mode) const {
  const Storage& st = *store_;
  DAVINCI_CHECK_EQ(stride_, simd::PaddedSlots(slots_));
  DAVINCI_CHECK_EQ(st.keys.size(), buckets_ * stride_);
  DAVINCI_CHECK_EQ(st.counts.size(), buckets_ * stride_);
  DAVINCI_CHECK_EQ(st.tainted.size(), buckets_ * stride_);
  DAVINCI_CHECK_EQ(st.ecnt.size(), buckets_);
  DAVINCI_CHECK_EQ(st.flags.size(), buckets_);
  for (size_t b = 0; b < buckets_; ++b) {
    const std::string where = "bucket " + std::to_string(b);
    DAVINCI_CHECK_MSG(st.flags[b] <= 1, where);
    size_t base = b * stride_;
    // Padding slots must stay permanently empty or the vector probe could
    // surface a phantom entry.
    for (size_t s = slots_; s < stride_; ++s) {
      DAVINCI_CHECK_MSG(st.keys[base + s] == 0 && st.counts[base + s] == 0 &&
                            st.tainted[base + s] == 0,
                        where + ": dirty padding slot " + std::to_string(s));
    }
    bool full = true;
    bool all_positive = true;
    int64_t min_abs = 0;
    bool min_seen = false;
    for (size_t s = 0; s < slots_; ++s) {
      size_t i = base + s;
      DAVINCI_CHECK_MSG(st.tainted[i] <= 1, where);
      if (st.counts[i] == 0) {
        full = false;
        continue;
      }
      DAVINCI_CHECK_MSG(BucketOf(st.keys[i]) == b,
                        where + ": resident key " +
                            std::to_string(st.keys[i]) + " hashes elsewhere");
      for (size_t t = s + 1; t < slots_; ++t) {
        DAVINCI_CHECK_MSG(
            st.counts[base + t] == 0 || st.keys[base + t] != st.keys[i],
            where + ": duplicate key " + std::to_string(st.keys[i]));
      }
      if (mode == InvariantMode::kAdditive) {
        DAVINCI_CHECK_MSG(st.counts[i] > 0, where + ": nonpositive count");
      }
      if (st.counts[i] < 0) all_positive = false;
      int64_t abs = std::llabs(st.counts[i]);
      if (!min_seen || abs < min_abs) {
        min_abs = abs;
        min_seen = true;
      }
    }
    if (mode == InvariantMode::kAdditive) {
      if (!full) {
        DAVINCI_CHECK_MSG(st.ecnt[b] == 0,
                          where + ": evict counter moved while a slot was "
                                  "free");
      } else if (all_positive && min_seen) {
        DAVINCI_CHECK_MSG(
            static_cast<int64_t>(st.ecnt[b]) <= evict_lambda_ * min_abs,
            where + ": ecnt " + std::to_string(st.ecnt[b]) +
                " exceeds lambda*min " +
                std::to_string(evict_lambda_ * min_abs));
      }
    }
  }
}

void FrequentPart::CollectStats(obs::FpHealth* out) const {
  const Storage& st = *store_;
  out->buckets = buckets_;
  out->slots = slots_;
  out->live_slots = 0;
  for (int64_t count : st.counts) {
    if (count != 0) ++out->live_slots;
  }
  out->flagged_buckets = 0;
  for (uint8_t flag : st.flags) {
    if (flag != 0) ++out->flagged_buckets;
  }
  out->ecnt_sum = 0;
  out->ecnt_max = 0;
  for (uint32_t ecnt : st.ecnt) {
    out->ecnt_sum += ecnt;
    if (ecnt > out->ecnt_max) out->ecnt_max = ecnt;
  }
  out->inserts = stats_.inserts.value();
  out->hits = stats_.hits.value();
  out->fills = stats_.fills.value();
  out->evictions = stats_.evictions.value();
  out->rejections = stats_.rejections.value();
}

void FrequentPart::OverwriteBucket(size_t bucket,
                                   const std::vector<Entry>& entries,
                                   bool flag) {
  DAVINCI_DCHECK_LT(bucket, buckets_);
  DAVINCI_DCHECK_LE(entries.size(), slots_);
  Storage& st = Mut();
  size_t base = bucket * stride_;
  for (size_t s = 0; s < slots_; ++s) {
    if (s < entries.size()) {
      st.keys[base + s] = entries[s].key;
      st.counts[base + s] = entries[s].count;
      st.tainted[base + s] = entries[s].tainted ? 1 : 0;
    } else {
      st.keys[base + s] = 0;
      st.counts[base + s] = 0;
      st.tainted[base + s] = 0;
    }
  }
  st.flags[bucket] = flag ? 1 : 0;
  st.ecnt[bucket] = 0;
}

}  // namespace davinci
