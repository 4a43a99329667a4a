#include "core/davinci_sketch.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_set>

#include "common/serialize.h"

#include "estimators/em_distribution.h"
#include "estimators/entropy.h"
#include "estimators/linear_counting.h"

namespace davinci {

namespace {

// The linear ops read the second operand's FP/EF/IFP arrays by the first
// operand's geometry, so anything short of kIdentical would read out of
// bounds. The server answers kBadArgument before a request gets here.
void CheckIdenticalGeometry(const DaVinciConfig& a, const DaVinciConfig& b) {
  DAVINCI_CHECK_MSG(DaVinciConfig::GeometryCompatible(a, b) ==
                        DaVinciConfig::GeometryRelation::kIdentical,
                    "linear op over sketches of different geometry");
}

}  // namespace

DaVinciSketch::DaVinciSketch(const DaVinciConfig& config)
    : config_(config),
      fp_(config.fp_buckets, config.fp_slots, config.evict_lambda,
          config.seed),
      ef_(config.ef_bytes, config.ef_level_bits, config.promotion_threshold,
          config.seed),
      ifp_(config.ifp_rows, config.ifp_buckets_per_row, config.use_sign_hash,
           config.seed) {
  config_.Validate();
}

DaVinciSketch::DaVinciSketch(size_t bytes, uint64_t seed)
    : DaVinciSketch(DaVinciConfig::FromMemory(bytes, seed)) {}

size_t DaVinciSketch::MemoryBytes() const {
  return fp_.MemoryBytes() + ef_.MemoryBytes() + ifp_.MemoryBytes();
}

uint64_t DaVinciSketch::MemoryAccesses() const {
  return fp_.memory_accesses() + ef_.memory_accesses() +
         ifp_.memory_accesses();
}

void DaVinciSketch::RouteToFilter(uint32_t key, int64_t count) {
  RouteToFilterWithHash(key, HashFamily::BaseHash(key), count);
}

void DaVinciSketch::RouteToFilterWithHash(uint32_t key, uint64_t base_hash,
                                          int64_t count) {
  int64_t overflow = ef_.InsertSignedWithHash(base_hash, count);
  if (overflow != 0) {
    ifp_.InsertWithHash(key, base_hash, overflow);
  }
}

void DaVinciSketch::Insert(uint32_t key, int64_t count) {
  decode_.Reset();
  inserts_.Inc();
  uint64_t base_hash = HashFamily::BaseHash(key);
  FrequentPart::InsertResult result = fp_.InsertWithHash(key, base_hash, count);
  if (result.action != FrequentPart::InsertResult::Action::kAbsorbed) {
    // An eviction overflows the resident minimum, not the inserted key, so
    // its base hash must be derived afresh in that (rare) case.
    uint64_t overflow_hash = result.overflow_key == key
                                 ? base_hash
                                 : HashFamily::BaseHash(result.overflow_key);
    RouteToFilterWithHash(result.overflow_key, overflow_hash,
                          result.overflow_count);
  }
}

void DaVinciSketch::InsertBatch(std::span<const uint32_t> keys,
                                std::span<const int64_t> counts) {
  DAVINCI_DCHECK_EQ(keys.size(), counts.size());
  if (keys.empty()) return;
  decode_.Reset();
  inserts_.Inc(keys.size());

  // Double-buffered stage A state: while block k is applied (stages B/C),
  // block k+1's base hashes are already computed and its FP bucket lines
  // are in flight — the one-block-ahead prefetch invariant.
  uint64_t hash_buf[2][kInsertBlock];
  struct Overflow {
    uint32_t key;
    int64_t count;
    uint64_t base_hash;
  };
  Overflow overflow[kInsertBlock];

  const size_t n = keys.size();
  auto stage_a = [&](size_t start, uint64_t* hashes) {
    size_t len = std::min(kInsertBlock, n - start);
    for (size_t i = 0; i < len; ++i) {
      hashes[i] = HashFamily::BaseHash(keys[start + i]);
      fp_.PrefetchBucket(hashes[i]);
    }
  };

  stage_a(0, hash_buf[0]);
  for (size_t start = 0, parity = 0; start < n;
       start += kInsertBlock, parity ^= 1) {
    if (start + kInsertBlock < n) {
      stage_a(start + kInsertBlock, hash_buf[parity ^ 1]);
    }
    const uint64_t* hashes = hash_buf[parity];
    size_t len = std::min(kInsertBlock, n - start);

    // Stage B: FP inserts. Overflow (rejected newcomers and evicted
    // residents) is buffered instead of routed immediately; the FP and the
    // filter never read each other's state, so deferring the EF/IFP work to
    // the end of the block leaves every part bit-identical to the
    // one-key-at-a-time order.
    size_t num_overflow = 0;
    for (size_t i = 0; i < len; ++i) {
      uint32_t key = keys[start + i];
      FrequentPart::InsertResult result =
          fp_.InsertWithHash(key, hashes[i], counts[start + i]);
      if (result.action != FrequentPart::InsertResult::Action::kAbsorbed) {
        uint64_t overflow_hash =
            result.overflow_key == key
                ? hashes[i]
                : HashFamily::BaseHash(result.overflow_key);
        // Start the EF miss as soon as the overflow is known — the rest of
        // the block's FP work runs while the filter counters travel up the
        // cache hierarchy.
        ef_.Prefetch(overflow_hash);
        overflow[num_overflow++] = {result.overflow_key,
                                    result.overflow_count, overflow_hash};
      }
    }

    // Stage C: apply the buffered overflow through EF and (on filter
    // overflow) IFP. The EF counters were prefetched at discovery time in
    // stage B; the IFP (iID, icnt) cells are NOT prefetched — only the
    // small filter-crossing fraction of overflow keys reaches the IFP, and
    // measurements showed the 2·d speculative lines per key cost more in
    // memory bandwidth than the avoided demand misses returned.
    for (size_t i = 0; i < num_overflow; ++i) {
      RouteToFilterWithHash(overflow[i].key, overflow[i].base_hash,
                            overflow[i].count);
    }
  }
}

void DaVinciSketch::InsertBatch(std::span<const uint32_t> keys) {
  // A stack chunk of ones feeds the two-span pipeline in pieces large
  // enough (many blocks) that the one-block-ahead prefetch stays engaged.
  constexpr size_t kOnesChunk = 64 * kInsertBlock;
  int64_t ones[kOnesChunk];
  std::fill(std::begin(ones), std::end(ones), int64_t{1});
  for (size_t start = 0; start < keys.size(); start += kOnesChunk) {
    size_t len = std::min(kOnesChunk, keys.size() - start);
    InsertBatch(keys.subspan(start, len), std::span<const int64_t>(ones, len));
  }
}

template <typename Decode>
const DaVinciSketch::FlowMap& DaVinciSketch::DecodeCache::Get(
    Decode decode) const {
  if (!ready_.load(std::memory_order_acquire)) {
    MutexLock lock(&mu_);
    if (!filled_) {
      map_ = std::make_shared<const FlowMap>(decode());
      filled_ = true;
      ready_.store(true, std::memory_order_release);
    }
  }
  return *map_;
}

void DaVinciSketch::DecodeCache::Set(std::shared_ptr<const FlowMap> map) {
  MutexLock lock(&mu_);
  filled_ = map != nullptr;
  map_ = std::move(map);
  ready_.store(filled_, std::memory_order_release);
}

const std::unordered_map<uint32_t, int64_t>& DaVinciSketch::DecodedFlows()
    const {
  return decode_.Get([this] {
    InfrequentPart::DecodeOptions options;
    options.num_threads = config_.decode_threads;
    options.min_buckets_per_worker = config_.decode_min_buckets_per_worker;
    return ifp_.Decode(config_.decode_cross_validation ? &ef_ : nullptr,
                       options);
  });
}

int64_t DaVinciSketch::ResolveQuery(uint32_t key, uint64_t base_hash,
                                    int64_t fp_count, bool tainted) const {
  if (fp_count != 0 && !tainted) {
    return fp_count;  // exact: the flow never left the frequent part
  }

  int64_t ef_estimate = ef_.QuerySignedWithHash(base_hash);
  const auto& decoded = DecodedFlows();
  auto it = decoded.find(key);
  if (it != decoded.end()) {
    // Exact IFP share + the (≈T) share retained by the element filter.
    return fp_count + it->second + ef_estimate;
  }
  if (std::llabs(ef_estimate) >= config_.promotion_threshold) {
    // The flow crossed the filter but did not decode: fall back to the
    // unbiased count-sketch-style fast query of the infrequent part.
    return fp_count + ifp_.FastQueryWithBase(base_hash) + ef_estimate;
  }
  return fp_count + ef_estimate;
}

int64_t DaVinciSketch::Query(uint32_t key) const {
  queries_.Inc();
  uint64_t base_hash = HashFamily::BaseHash(key);
  bool tainted = false;
  int64_t fp_count = fp_.QueryWithBase(base_hash, key, &tainted);
  return ResolveQuery(key, base_hash, fp_count, tainted);
}

std::vector<int64_t> DaVinciSketch::QueryBatch(
    std::span<const uint32_t> keys) const {
  std::vector<int64_t> out(keys.size());
  if (keys.empty()) return out;
  queries_.Inc(keys.size());
  const size_t n = keys.size();

  // Pipeline shape. Every value answers identically (the pipeline only
  // reorders reads), so these move only the clock.
  //  - kMinKeys: shorter batches skip the pipeline, whose hash staging and
  //    prefetch issue cost more than the misses they hide.
  //  - kBlock: chunk width; bounds the stack scratch and keeps a chunk's
  //    staged hashes L1-resident while the probe pass consumes them.
  //  - kPrefetchDistance: keys ahead of the probe cursor whose FP bucket
  //    lines are read-prefetched.
  constexpr size_t kMinKeys = 32;
  constexpr size_t kBlock = 1024;
  constexpr size_t kPrefetchDistance = 16;

  if (n < kMinKeys) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t base_hash = HashFamily::BaseHash(keys[i]);
      bool tainted = false;
      int64_t fp_count = fp_.QueryWithBase(base_hash, keys[i], &tainted);
      out[i] = ResolveQuery(keys[i], base_hash, fp_count, tainted);
    }
    return out;
  }

  // Materialize the decode cache before the pipeline starts so no chunk
  // stalls on a full peel mid-flight.
  (void)DecodedFlows();

  // Chunked two-pass pipeline. Pass 1 stages a chunk's base hashes in one
  // tight loop (one multiply-mix per key, no interleaved bucket work);
  // pass 2 probes with the staged hashes, read-prefetching the FP bucket
  // lanes a fixed key distance ahead of the probe cursor. Keys the FP does
  // not settle are buffered and resolved at chunk end, their EF counters
  // prefetched the moment the probe misses — the rest of the chunk's FP
  // work hides the filter fetch.
  uint64_t hashes[kBlock];
  struct PendingKey {
    size_t index;
    uint64_t base_hash;
    int64_t fp_count;
  };
  PendingKey pending[kBlock];

  for (size_t start = 0; start < n; start += kBlock) {
    const size_t len = std::min(kBlock, n - start);
    for (size_t i = 0; i < len; ++i) {
      hashes[i] = HashFamily::BaseHash(keys[start + i]);
    }
    // Warm the first buckets so the probe loop's steady-state prefetch
    // distance holds from its first iteration.
    for (size_t i = 0; i < std::min(kPrefetchDistance, len); ++i) {
      fp_.PrefetchBucketRead(hashes[i]);
    }

    size_t num_pending = 0;
    for (size_t i = 0; i < len; ++i) {
      if (i + kPrefetchDistance < len) {
        fp_.PrefetchBucketRead(hashes[i + kPrefetchDistance]);
      }
      bool tainted = false;
      int64_t fp_count =
          fp_.QueryWithBase(hashes[i], keys[start + i], &tainted);
      if (fp_count != 0 && !tainted) {
        out[start + i] = fp_count;
        continue;
      }
      ef_.Prefetch(hashes[i]);
      pending[num_pending++] = {start + i, hashes[i], fp_count};
    }

    // Resolve the pending keys through EF / decoded map / IFP.
    for (size_t i = 0; i < num_pending; ++i) {
      const PendingKey& p = pending[i];
      out[p.index] =
          ResolveQuery(keys[p.index], p.base_hash, p.fp_count,
                       /*tainted=*/true);
    }
  }
  return out;
}

std::vector<std::pair<uint32_t, int64_t>> DaVinciSketch::HeavyHitters(
    int64_t threshold) const {
  const std::vector<FrequentPart::Entry> entries = fp_.Entries();
  const auto& decoded = DecodedFlows();
  // Every candidate comes from the FP entries or the decoded map, so sizing
  // both containers up front avoids any rehash/regrow churn below.
  std::vector<std::pair<uint32_t, int64_t>> out;
  out.reserve(entries.size());
  std::unordered_set<uint32_t> reported;
  reported.reserve(entries.size() + decoded.size());
  for (const FrequentPart::Entry& entry : entries) {
    // The entry IS the FP probe result — resolve the EF/IFP shares
    // directly instead of re-hashing and re-probing the bucket per
    // candidate.
    int64_t est = ResolveQuery(entry.key, HashFamily::BaseHash(entry.key),
                               entry.count, entry.tainted);
    if (est > threshold && reported.insert(entry.key).second) {
      out.emplace_back(entry.key, est);
    }
  }
  // Medium flows that stayed out of the FP can still cross the threshold.
  for (const auto& [key, count] : decoded) {
    (void)count;
    if (reported.count(key)) continue;
    int64_t est = Query(key);
    if (est > threshold && reported.insert(key).second) {
      out.emplace_back(key, est);
    }
  }
  return out;
}

double DaVinciSketch::EstimateCardinality() const {
  // Everything that ever left the FP passed through the element filter, so
  // linear counting over the filter's bottom level counts all non-resident
  // flows. Untainted residents never touched the filter and are added
  // exactly; tainted residents are assumed already counted by the filter.
  double card =
      LinearCountingEstimate(ef_.BottomWidth(), ef_.BottomZeroSlots());
  for (const FrequentPart::Entry& entry : fp_.Entries()) {
    if (!entry.tainted) card += 1.0;
  }
  return card;
}

std::map<int64_t, int64_t> DaVinciSketch::Distribution() const {
  std::map<int64_t, int64_t> histogram;

  // Exact sizes: FP residents and decoded medium flows. The entry already
  // carries the FP probe result, so only the EF/IFP shares are resolved.
  std::unordered_set<uint32_t> known;
  for (const FrequentPart::Entry& entry : fp_.Entries()) {
    ++histogram[std::llabs(ResolveQuery(entry.key,
                                        HashFamily::BaseHash(entry.key),
                                        entry.count, entry.tainted))];
    known.insert(entry.key);
  }
  for (const auto& [key, count] : DecodedFlows()) {
    (void)count;
    if (known.insert(key).second) {
      ++histogram[std::llabs(Query(key))];
    }
  }

  // Small flows: EM over the filter's bottom level, with the ≈T residue of
  // the known tainted flows removed so they are not double counted
  // (untainted FP residents never touched the filter).
  std::vector<int64_t> bottom = ef_.BottomValues();
  for (const FrequentPart::Entry& entry : fp_.Entries()) {
    if (!entry.tainted) continue;
    int64_t& c = bottom[ef_.BottomIndex(entry.key)];
    c -= std::min<int64_t>(c, config_.promotion_threshold);
  }
  for (const auto& [key, count] : DecodedFlows()) {
    (void)count;
    if (fp_.Contains(key)) continue;  // already handled above
    int64_t& c = bottom[ef_.BottomIndex(key)];
    c -= std::min<int64_t>(c, config_.promotion_threshold);
  }
  for (const auto& [size, n] : EmDistribution::Estimate(bottom)) {
    histogram[size] += n;
  }
  return histogram;
}

double DaVinciSketch::EstimateEntropy() const {
  return EntropyFromDistribution(Distribution());
}

void DaVinciSketch::Combine(const DaVinciSketch& other, bool subtract) {
  CheckIdenticalGeometry(config_, other.config_);
  decode_.Reset();

  // Phase 1 — FP merge (Algorithm 3), while both element filters are still
  // in their pre-merge state so taint can be decided per entry. Evictees
  // are deferred until the filters are combined.
  std::vector<FrequentPart::Entry> evictees;
  for (size_t b = 0; b < fp_.num_buckets(); ++b) {
    std::vector<FrequentPart::Entry> combined;
    for (size_t s = 0; s < fp_.num_slots(); ++s) {
      FrequentPart::Entry entry = fp_.EntryAt(b, s);
      if (entry.count == 0) continue;
      // The other sketch may hold part of this flow in its EF/IFP.
      entry.tainted = entry.tainted || other.ef_.Query(entry.key) != 0;
      combined.push_back(entry);
    }
    for (size_t s = 0; s < other.fp_.num_slots(); ++s) {
      FrequentPart::Entry entry = other.fp_.EntryAt(b, s);
      if (entry.count == 0) continue;
      if (subtract) entry.count = -entry.count;
      bool matched = false;
      for (FrequentPart::Entry& mine : combined) {
        if (mine.key == entry.key) {
          mine.count += entry.count;
          mine.tainted = mine.tainted || entry.tainted;
          matched = true;
          break;
        }
      }
      if (!matched) {
        entry.tainted = entry.tainted || ef_.Query(entry.key) != 0;
        combined.push_back(entry);
      }
    }
    // Exact zeros vanish (e.g. identical flows cancel in a difference).
    combined.erase(std::remove_if(combined.begin(), combined.end(),
                                  [](const FrequentPart::Entry& e) {
                                    return e.count == 0;
                                  }),
                   combined.end());
    std::sort(combined.begin(), combined.end(),
              [](const FrequentPart::Entry& lhs,
                 const FrequentPart::Entry& rhs) {
                return std::llabs(lhs.count) > std::llabs(rhs.count);
              });
    bool evicted_any = combined.size() > fp_.num_slots();
    for (size_t s = fp_.num_slots(); s < combined.size(); ++s) {
      evictees.push_back(combined[s]);
    }
    if (combined.size() > fp_.num_slots()) combined.resize(fp_.num_slots());
    bool flag =
        fp_.BucketFlag(b) || other.fp_.BucketFlag(b) || evicted_any;
    fp_.OverwriteBucket(b, combined, flag);
  }

  // Phase 2 — linear combine of the filter and infrequent parts.
  if (subtract) {
    ef_.Subtract(other.ef_);
    ifp_.Subtract(other.ifp_);
  } else {
    ef_.Merge(other.ef_);
    ifp_.Merge(other.ifp_);
  }

  // Phase 3 — route the FP evictees through the combined filter so the
  // "everything in the IFP crossed the filter" invariant (which decode
  // cross-validation relies on) still holds.
  for (const FrequentPart::Entry& entry : evictees) {
    RouteToFilter(entry.key, entry.count);
  }
}

void DaVinciSketch::Merge(const DaVinciSketch& other) {
  Combine(other, /*subtract=*/false);
}

void DaVinciSketch::Subtract(const DaVinciSketch& other) {
  Combine(other, /*subtract=*/true);
}

std::vector<std::pair<uint32_t, int64_t>> DaVinciSketch::HeavyChangers(
    const DaVinciSketch& other, int64_t delta) const {
  // One explicit working copy of this sketch, subtracted in place; nothing
  // else below copies sketch state.
  DaVinciSketch difference = *this;
  difference.Subtract(other);

  const std::vector<FrequentPart::Entry> mine = fp_.Entries();
  const std::vector<FrequentPart::Entry> theirs = other.fp_.Entries();
  const auto& decoded = difference.DecodedFlows();

  std::vector<std::pair<uint32_t, int64_t>> out;
  out.reserve(mine.size() + theirs.size());
  std::unordered_set<uint32_t> seen;
  seen.reserve(mine.size() + theirs.size() + decoded.size());
  auto report = [&](uint32_t key, int64_t change) {
    if (std::llabs(change) > delta) out.emplace_back(key, change);
  };
  // The difference FP's residents (every surviving combination of the two
  // windows' entries — the common case for a heavy changer) carry their
  // probe result already; resolve them without the redundant re-probe.
  for (const FrequentPart::Entry& entry : difference.fp_.Entries()) {
    if (!seen.insert(entry.key).second) continue;
    report(entry.key,
           difference.ResolveQuery(entry.key, HashFamily::BaseHash(entry.key),
                                   entry.count, entry.tainted));
  }
  auto consider = [&](uint32_t key) {
    if (!seen.insert(key).second) return;
    report(key, difference.Query(key));
  };
  for (const FrequentPart::Entry& entry : mine) consider(entry.key);
  for (const FrequentPart::Entry& entry : theirs) consider(entry.key);
  for (const auto& [key, count] : decoded) {
    (void)count;
    consider(key);
  }
  return out;
}

void DaVinciSketch::CheckInvariants(InvariantMode mode) const {
  DAVINCI_CHECK_EQ(fp_.num_buckets(), config_.fp_buckets);
  DAVINCI_CHECK_EQ(fp_.num_slots(), config_.fp_slots);
  DAVINCI_CHECK_EQ(ifp_.rows(), config_.ifp_rows);
  DAVINCI_CHECK_EQ(ifp_.width(), config_.ifp_buckets_per_row);
  DAVINCI_CHECK_EQ(ef_.threshold(), config_.promotion_threshold);
  fp_.CheckInvariants(mode);
  ef_.CheckInvariants(mode);
  ifp_.CheckInvariants(mode);
  if (const auto decoded = decode_.Published()) {
    for (const auto& [key, count] : *decoded) {
      DAVINCI_CHECK_MSG(count != 0,
                        "decode cache holds zero-count flow " +
                            std::to_string(key));
    }
  }
}

void DaVinciSketch::CollectStats(obs::HealthSnapshot* out) const {
  *out = obs::HealthSnapshot{};
  out->memory_bytes = MemoryBytes();
  out->inserts = inserts_.value();
  out->queries = queries_.value();
  fp_.CollectStats(&out->fp);
  ef_.CollectStats(&out->ef);
  ifp_.CollectStats(&out->ifp);
  // The IFP itself is decode-thread agnostic; the knob lives in the config.
  out->ifp.decode_threads = config_.decode_threads;
  out->tuning.decode_min_buckets_per_worker =
      config_.decode_min_buckets_per_worker;
}

void DaVinciSketch::Save(std::ostream& out) const {
  config_.Save(out);
  fp_.SaveState(out);
  ef_.SaveState(out);
  ifp_.SaveState(out);
}

void DaVinciSketch::Save(std::ostream& out, SketchFormat format) const {
  if (format == SketchFormat::kFlat) {
    Save(out);
    return;
  }
  WritePod(out, kDvszMagic);
  WritePod(out, kDvszVersion);
  config_.Save(out);
  fp_.SaveStateCompressed(out);
  ef_.SaveStateCompressed(out);
  ifp_.SaveStateCompressed(out);
  WritePod(out, kDvszTrailer);
}

bool DaVinciSketch::Load(std::istream& in, DaVinciSketch* sketch) {
  // Format sniff: the flat image leads with the config's fp_buckets u64,
  // which Valid() caps at 2^24 — so the DVSZ magic|version word (≈ 6.2e18)
  // unambiguously marks a compressed image even on non-seekable streams.
  uint64_t first_word = 0;
  if (!ReadPod(in, &first_word)) return false;
  const uint64_t dvsz_header =
      (uint64_t{kDvszVersion} << 32) | uint64_t{kDvszMagic};
  const bool compressed = first_word == dvsz_header;
  DaVinciConfig config;
  if (compressed) {
    if (!DaVinciConfig::Load(in, &config)) return false;
  } else {
    if (!DaVinciConfig::LoadTail(first_word, in, &config)) return false;
  }
  DaVinciSketch loaded(config);
  if (compressed) {
    if (!loaded.fp_.LoadStateCompressed(in) ||
        !loaded.ef_.LoadStateCompressed(in) ||
        !loaded.ifp_.LoadStateCompressed(in)) {
      return false;
    }
    uint32_t trailer = 0;
    if (!ReadPod(in, &trailer) || trailer != kDvszTrailer) return false;
  } else {
    if (!loaded.fp_.LoadState(in) || !loaded.ef_.LoadState(in) ||
        !loaded.ifp_.LoadState(in)) {
      return false;
    }
  }
  *sketch = std::move(loaded);
  return true;
}

std::vector<std::pair<uint32_t, int64_t>> DaVinciSketch::SurvivingFlows()
    const {
  std::vector<std::pair<uint32_t, int64_t>> flows;
  const std::vector<FrequentPart::Entry> entries = fp_.Entries();
  const auto& decoded = DecodedFlows();
  flows.reserve(entries.size() + decoded.size());
  for (const FrequentPart::Entry& entry : entries) {
    flows.emplace_back(entry.key, entry.count);
  }
  // unordered_map iteration order is not deterministic across layouts;
  // the replay order must be, so the decoded tail is sorted by key.
  std::vector<std::pair<uint32_t, int64_t>> tail(decoded.begin(),
                                                 decoded.end());
  std::sort(tail.begin(), tail.end());
  for (const auto& [key, count] : tail) {
    if (count != 0) flows.emplace_back(key, count);
  }
  return flows;
}

bool DaVinciSketch::EfCarriesOver(const DaVinciConfig& from,
                                  const DaVinciConfig& to) {
  return from.seed == to.seed && from.ef_bytes == to.ef_bytes &&
         from.ef_level_bits == to.ef_level_bits &&
         to.promotion_threshold >= from.promotion_threshold;
}

bool DaVinciSketch::Resize(const DaVinciConfig& new_config) {
  using Rel = DaVinciConfig::GeometryRelation;
  switch (DaVinciConfig::GeometryCompatible(config_, new_config)) {
    case Rel::kIncompatible:
      return false;
    case Rel::kIdentical:
      // Geometry (the serialized fields) is unchanged, so the pinned flat
      // digest is too; only the runtime tuning knobs move.
      config_ = new_config;
      config_.Validate();
      return true;
    case Rel::kResizable:
      break;
  }

  DaVinciSketch staged(new_config);
  const bool ef_carries = EfCarriesOver(config_, new_config);
  if (ef_carries) staged.ef_.Merge(ef_);
  for (const auto& [key, count] : SurvivingFlows()) {
    staged.Insert(key, count);
  }
  if (ef_carries) {
    // A replayed FP resident may have carried residue in the merged EF
    // that plain re-insertion cannot know about; re-derive its taint bit
    // the way Merge does, so the query tail adds the EF share back.
    for (size_t b = 0; b < staged.fp_.num_buckets(); ++b) {
      std::vector<FrequentPart::Entry> entries;
      bool changed = false;
      for (size_t s = 0; s < staged.fp_.num_slots(); ++s) {
        FrequentPart::Entry entry = staged.fp_.EntryAt(b, s);
        if (entry.count == 0) continue;
        if (!entry.tainted && staged.ef_.Query(entry.key) != 0) {
          entry.tainted = true;
          changed = true;
        }
        entries.push_back(entry);
      }
      if (changed) {
        staged.fp_.OverwriteBucket(b, entries, staged.fp_.BucketFlag(b));
      }
    }
  }
  // The replay is migration, not new traffic: carry the old tallies.
  staged.inserts_ = inserts_;
  staged.queries_ = queries_;
  *this = std::move(staged);
  return true;
}

std::shared_ptr<const SketchView> DaVinciSketch::Snapshot() const {
  // The DaVinciSketch copy here is O(parts), not O(counters): each part's
  // flat storage is CoW-shared, and so is a published decode map.
  return std::make_shared<const SketchView>(*this);
}

double DaVinciSketch::InnerProduct(const DaVinciSketch& a,
                                   const DaVinciSketch& b) {
  CheckIdenticalGeometry(a.config_, b.config_);
  const auto& decoded_a = a.DecodedFlows();
  const auto& decoded_b = b.DecodedFlows();

  auto ifp_share = [](const std::unordered_map<uint32_t, int64_t>& decoded,
                      uint32_t key) -> int64_t {
    auto it = decoded.find(key);
    return it == decoded.end() ? 0 : it->second;
  };

  double join = 0.0;

  // J_FF + J_FI + J_FE: frequent part of a against everything in b.
  for (const FrequentPart::Entry& entry : a.fp_.Entries()) {
    bool flag = false;
    double fa = static_cast<double>(entry.count);
    int64_t fb_fp = b.fp_.Query(entry.key, &flag);
    join += fa * static_cast<double>(fb_fp);                        // FF
    join += fa * static_cast<double>(ifp_share(decoded_b, entry.key));  // FI
    join += fa * static_cast<double>(b.ef_.QuerySigned(entry.key));     // FE
  }
  // J_IF + J_EF: frequent part of b against a's filter/infrequent shares.
  for (const FrequentPart::Entry& entry : b.fp_.Entries()) {
    double fb = static_cast<double>(entry.count);
    join += static_cast<double>(ifp_share(decoded_a, entry.key)) * fb;  // IF
    join += static_cast<double>(a.ef_.QuerySigned(entry.key)) * fb;     // EF
  }
  // J_IE + J_EI: decoded infrequent flows against the other filter.
  for (const auto& [key, count] : decoded_a) {
    join += static_cast<double>(count) *
            static_cast<double>(b.ef_.QuerySigned(key));  // IE
  }
  for (const auto& [key, count] : decoded_b) {
    join += static_cast<double>(a.ef_.QuerySigned(key)) *
            static_cast<double>(count);  // EI
  }
  // J_II: unbiased counter dot product of the two Fermat sketches.
  join += InfrequentPart::InnerProduct(a.ifp_, b.ifp_);
  // J_EE: bottom-level dot product with the count-min collision correction
  //   E[dot] = f⊙g + (Σf·Σg − f⊙g)/w  →  unbiased (dot − ΣΣ/w)/(1 − 1/w).
  const std::vector<int64_t> ea = a.ef_.BottomValues();
  const std::vector<int64_t> eb = b.ef_.BottomValues();
  double dot = 0.0, sum_a = 0.0, sum_b = 0.0;
  for (size_t j = 0; j < ea.size(); ++j) {
    dot += static_cast<double>(ea[j]) * static_cast<double>(eb[j]);
    sum_a += static_cast<double>(ea[j]);
    sum_b += static_cast<double>(eb[j]);
  }
  double w = static_cast<double>(ea.size());
  if (w > 1.0) {
    join += (dot - sum_a * sum_b / w) / (1.0 - 1.0 / w);
  } else {
    join += dot;
  }
  return join;
}

}  // namespace davinci
