#include "core/infrequent_part.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <thread>

#include "common/prefetch.h"
#include "common/serialize.h"
#include "common/varint.h"
#include "common/worker_pool.h"
#include "obs/stats.h"

namespace davinci {

InfrequentPart::InfrequentPart(size_t rows, size_t buckets_per_row,
                               bool use_signs, uint64_t seed)
    : rows_(std::max<size_t>(1, rows)),
      width_(std::max<size_t>(1, buckets_per_row)),
      use_signs_(use_signs),
      store_(std::make_shared<Storage>()) {
  hashes_.reserve(rows_);
  signs_.reserve(rows_);
  for (size_t i = 0; i < rows_; ++i) {
    hashes_.emplace_back(seed * 23000407 + i);
    signs_.emplace_back(seed * 23000407 + i + 424242);
  }
  store_->ids.assign(rows_ * width_, 0);
  store_->counts.assign(rows_ * width_, 0);
}

void InfrequentPart::CloneStore() {
  store_ = std::make_shared<Storage>(*store_);
  obs::CowTally::RecordClone(store_->ByteSize());
}

void InfrequentPart::InsertWithHash(uint32_t key, uint64_t base_hash,
                                    int64_t count) {
  stats_.inserts.Inc();
  Storage& st = Mut();
  uint64_t delta = MulMod(SignedMod(count, kFermatPrime), key, kFermatPrime);
  for (size_t i = 0; i < rows_; ++i) {
    ++accesses_;
    size_t j = BucketIndexBase(i, base_hash);
    st.ids[j] = AddMod(st.ids[j], delta, kFermatPrime);
    // Wrapping add: after merges/subtracts a cell is a *sum* of signed
    // counts and may legitimately pass through the int64 rim; the decode
    // algebra is self-inverse under mod-2^64 arithmetic.
    st.counts[j] = WrapAdd(st.counts[j], SignApply(SignBase(i, base_hash),
                                                   count));
  }
}

void InfrequentPart::Prefetch(uint64_t base_hash) const {
  const Storage& st = *store_;
  for (size_t i = 0; i < rows_; ++i) {
    size_t j = BucketIndexBase(i, base_hash);
    PrefetchWrite(&st.ids[j]);
    PrefetchWrite(&st.counts[j]);
  }
}

int64_t InfrequentPart::FastQueryWithBase(uint64_t base_hash) const {
  const Storage& st = *store_;
  std::vector<int64_t> estimates;
  estimates.reserve(rows_);
  for (size_t i = 0; i < rows_; ++i) {
    estimates.push_back(SignApply(SignBase(i, base_hash),
                                  st.counts[BucketIndexBase(i, base_hash)]));
  }
  std::nth_element(estimates.begin(), estimates.begin() + estimates.size() / 2,
                   estimates.end());
  return estimates[estimates.size() / 2];
}

std::unordered_map<uint32_t, int64_t> InfrequentPart::Decode(
    const ElementFilter* cross_filter, const DecodeOptions& options) const {
  stats_.decode_runs.Inc();
  // Full-decode latency lands in the process-wide registry so benches can
  // surface the 1-vs-N-thread speedup (see docs/OBSERVABILITY.md).
  obs::ScopedLatencyTimer decode_timer(
      &obs::StatsRegistry::Global().Histogram("ifp_decode"));

  std::vector<uint64_t> ids = store_->ids;
  std::vector<int64_t> counts = store_->counts;
  std::unordered_map<uint32_t, int64_t> flows;

  auto validate = [&](uint32_t key) {
    if (cross_filter == nullptr) return true;
    // The element reached the IFP only by crossing the filter threshold,
    // so its (signed, for differences) filter estimate must sit at ±T.
    if (std::llabs(cross_filter->QuerySigned(key)) >=
        cross_filter->threshold()) {
      return true;
    }
    // A pure-looking bucket produced a candidate the filter never saw: a
    // false decode caught by the paper's double verification.
    stats_.decode_rejected_by_filter.Inc();
    return false;
  };

  // Does `candidate` explain bucket `index` on its own? Pure function of
  // the working arrays — the scan workers call it concurrently between
  // peeling rounds, when nothing mutates.
  auto is_consistent = [&](size_t index, uint64_t candidate) -> bool {
    if (candidate == 0 || candidate > UINT32_MAX) return false;
    uint32_t key = static_cast<uint32_t>(candidate);
    uint64_t base_hash = HashFamily::BaseHash(key);
    size_t row = index / width_;
    if (BucketIndexBase(row, base_hash) != index) return false;
    // Sign-consistency: with icnt = ζ_row(key)·count, the id field must
    // equal count·key mod p. SignApply: a corrupted image can put
    // INT64_MIN in a cell, whose plain negation is UB.
    int64_t count = SignApply(SignBase(row, base_hash), counts[index]);
    uint64_t expected =
        MulMod(SignedMod(count, kFermatPrime), key, kFermatPrime);
    return expected == ids[index];
  };

  // Read-only purity probe for the scan phase. Validates both e and p − e
  // (Algorithm 5's two-sided check, needed for ζ = −1 rows and for
  // negative counts after set difference). No telemetry, no filter check —
  // those stay in the sequential phase.
  auto looks_pure = [&](size_t index) -> bool {
    if (ids[index] == 0 && counts[index] == 0) return false;
    uint64_t count_mod = SignedMod(counts[index], kFermatPrime);
    if (count_mod == 0) return false;
    uint64_t e = MulMod(ids[index], ModInverse(count_mod, kFermatPrime),
                        kFermatPrime);
    return is_consistent(index, e) || is_consistent(index, kFermatPrime - e);
  };

  // Buckets touched by peels this round, each recorded once (in touch
  // order, deduplicated by `pending`), to become the next round's work set.
  std::vector<size_t> touched;
  std::vector<uint8_t> pending(ids.size(), 0);

  // Tries to peel bucket `index` as the single element `candidate`.
  auto try_candidate = [&](size_t index, uint64_t candidate) -> bool {
    if (!is_consistent(index, candidate)) return false;
    uint32_t key = static_cast<uint32_t>(candidate);
    if (!validate(key)) return false;

    uint64_t base_hash = HashFamily::BaseHash(key);
    size_t row = index / width_;
    int64_t count = SignApply(SignBase(row, base_hash), counts[index]);
    flows[key] = WrapAdd(flows[key], count);
    uint64_t delta =
        MulMod(SignedMod(count, kFermatPrime), key, kFermatPrime);
    for (size_t r = 0; r < rows_; ++r) {
      size_t j = BucketIndexBase(r, base_hash);
      ids[j] = SubMod(ids[j], delta, kFermatPrime);
      counts[j] = WrapSub(counts[j], SignApply(SignBase(r, base_hash), count));
      if (!pending[j]) {
        pending[j] = 1;
        touched.push_back(j);
      }
    }
    return true;
  };

  auto try_peel = [&](size_t index) -> bool {
    if (ids[index] == 0 && counts[index] == 0) return false;
    uint64_t count_mod = SignedMod(counts[index], kFermatPrime);
    if (count_mod == 0) return false;
    uint64_t e = MulMod(ids[index], ModInverse(count_mod, kFermatPrime),
                        kFermatPrime);
    if (try_candidate(index, e)) return true;
    return try_candidate(index, kFermatPrime - e);
  };

  // Synchronized peeling rounds. Phase 1 scans the active buckets against
  // a start-of-round snapshot (read-only, shardable across workers) and
  // selects the pure-looking ones; phase 2 peels the selection
  // sequentially in row-major order, re-deriving each candidate from the
  // live arrays (an earlier peel in the same round may have changed — or
  // newly purified — a later bucket; both outcomes are deterministic).
  // Candidate selection depends only on the snapshot and application order
  // only on the selection, so the decoded map is bit-identical for every
  // `num_threads`. The `peels` valve stops pathological false-positive
  // cycles that can arise in overloaded sketches.
  size_t threads =
      std::max<size_t>(1, std::min<size_t>(options.num_threads, 64));
  if (options.clamp_to_hardware) {
    size_t hardware = std::thread::hardware_concurrency();
    if (hardware == 0) hardware = 1;
    threads = std::min(threads, hardware);
  }
  const size_t granularity =
      std::max<size_t>(1, options.min_buckets_per_worker);
  std::vector<size_t> active(ids.size());
  std::iota(active.begin(), active.end(), size_t{0});
  std::vector<size_t> promising;
  size_t peels = 0;
  const size_t max_peels = ids.size() * 4 + 64;

  // Workers stay parked between rounds; the pool is built once, on the
  // first round wide enough to split, and only then — a decode that never
  // crosses the granularity threshold never starts a thread.
  std::unique_ptr<WorkerPool> pool;

  while (!active.empty() && peels < max_peels) {
    // Phase 1 — purity scan. Row-major sharding: each worker filters one
    // contiguous range of `active`; concatenating per-worker results in
    // shard order reproduces the sequential scan order exactly. A round
    // splits only while every worker keeps >= granularity buckets.
    promising.clear();
    size_t workers = std::min(threads, active.size() / granularity);
    if (workers <= 1) {
      for (size_t index : active) {
        if (looks_pure(index)) promising.push_back(index);
      }
    } else {
      std::vector<std::vector<size_t>> found(workers);
      size_t chunk = (active.size() + workers - 1) / workers;
      auto scan_shard = [&](size_t w) {
        size_t begin = w * chunk;
        size_t end = std::min(begin + chunk, active.size());
        for (size_t i = begin; i < end; ++i) {
          if (looks_pure(active[i])) found[w].push_back(active[i]);
        }
      };
      if (pool == nullptr) pool = std::make_unique<WorkerPool>(threads - 1);
      pool->Run(workers, scan_shard);
      for (const std::vector<size_t>& shard : found) {
        promising.insert(promising.end(), shard.begin(), shard.end());
      }
    }
    if (promising.empty()) break;

    // Phase 2 — sequential peeling round.
    touched.clear();
    bool progress = false;
    for (size_t index : promising) {
      if (peels >= max_peels) break;
      if (try_peel(index)) {
        ++peels;
        progress = true;
      }
    }
    for (size_t index : touched) pending[index] = 0;
    std::sort(touched.begin(), touched.end());
    active.swap(touched);
    if (!progress) break;
  }
  for (auto it = flows.begin(); it != flows.end();) {
    if (it->second == 0) {
      it = flows.erase(it);
    } else {
      ++it;
    }
  }
  stats_.decoded_flows.Inc(flows.size());
  return flows;
}

void InfrequentPart::Merge(const InfrequentPart& other) {
  Storage& st = Mut();
  const Storage& src = *other.store_;
  for (size_t i = 0; i < st.ids.size(); ++i) {
    st.ids[i] = AddMod(st.ids[i], src.ids[i], kFermatPrime);
    st.counts[i] = WrapAdd(st.counts[i], src.counts[i]);
  }
}

void InfrequentPart::Subtract(const InfrequentPart& other) {
  Storage& st = Mut();
  const Storage& src = *other.store_;
  for (size_t i = 0; i < st.ids.size(); ++i) {
    st.ids[i] = SubMod(st.ids[i], src.ids[i], kFermatPrime);
    st.counts[i] = WrapSub(st.counts[i], src.counts[i]);
  }
}

double InfrequentPart::InnerProduct(const InfrequentPart& a,
                                    const InfrequentPart& b) {
  std::vector<double> row_dots;
  row_dots.reserve(a.rows_);
  for (size_t i = 0; i < a.rows_; ++i) {
    double dot = 0.0;
    for (size_t j = 0; j < a.width_; ++j) {
      dot += static_cast<double>(a.store_->counts[i * a.width_ + j]) *
             static_cast<double>(b.store_->counts[i * b.width_ + j]);
    }
    row_dots.push_back(dot);
  }
  std::nth_element(row_dots.begin(), row_dots.begin() + row_dots.size() / 2,
                   row_dots.end());
  return row_dots[row_dots.size() / 2];
}

void InfrequentPart::SaveState(std::ostream& out) const {
  WriteVec(out, store_->ids);
  WriteVec(out, store_->counts);
}

bool InfrequentPart::LoadState(std::istream& in) {
  std::vector<uint64_t> ids;
  std::vector<int64_t> counts;
  if (!ReadVec(in, &ids) || !ReadVec(in, &counts)) return false;
  if (ids.size() != rows_ * width_ || counts.size() != rows_ * width_) {
    return false;
  }
  // Field/range validation (tests/fuzz/fuzz_serialize.cc drives mutated
  // images through here): every iID must be a residue mod p, and icnt
  // cells are capped well below the int64 rim so downstream sums (the
  // ResolveQuery three-part total) can never overflow.
  for (uint64_t id : ids) {
    if (id >= kFermatPrime) return false;
  }
  for (int64_t count : counts) {
    if (count > kMaxLoadedCount || count < -kMaxLoadedCount) return false;
  }
  Storage& st = Mut();
  st.ids = std::move(ids);
  st.counts = std::move(counts);
  return true;
}

void InfrequentPart::SaveStateCompressed(std::ostream& out) const {
  const Storage& st = *store_;
  const size_t total = rows_ * width_;
  size_t live = 0;
  for (size_t i = 0; i < total; ++i) {
    if (st.ids[i] != 0 || st.counts[i] != 0) ++live;
  }
  if (live * 100 > total * kSparseDensityPercent) {
    WritePod(out, static_cast<uint8_t>(0));  // flat fallback
    SaveState(out);
    return;
  }
  WritePod(out, static_cast<uint8_t>(1));  // sparse
  WriteVarU64(out, live);
  uint64_t previous = 0;
  bool first = true;
  for (size_t i = 0; i < total; ++i) {
    if (st.ids[i] == 0 && st.counts[i] == 0) continue;
    WriteVarU64(out, first ? i : i - previous);
    WriteVarU64(out, st.ids[i]);
    WriteVarI64(out, st.counts[i]);
    previous = i;
    first = false;
  }
}

bool InfrequentPart::LoadStateCompressed(std::istream& in) {
  uint8_t mode = 0;
  if (!ReadPod(in, &mode)) return false;
  if (mode == 0) return LoadState(in);
  if (mode != 1) return false;
  const size_t total = rows_ * width_;
  uint64_t live = 0;
  if (!ReadVarU64(in, &live)) return false;
  if (live > total) return false;
  std::vector<uint64_t> ids(total, 0);
  std::vector<int64_t> counts(total, 0);
  uint64_t index = 0;
  for (uint64_t k = 0; k < live; ++k) {
    uint64_t gap = 0, id = 0;
    int64_t count = 0;
    if (!ReadVarU64(in, &gap) || !ReadVarU64(in, &id) ||
        !ReadVarI64(in, &count)) {
      return false;
    }
    // Strictly-ascending bounded indices: duplicates, descents and
    // wrap-around gaps all reject here (fuzz corpus seeds cover each).
    if (k == 0) {
      if (gap >= total) return false;
      index = gap;
    } else {
      if (gap == 0 || gap >= total - index) return false;
      index += gap;
    }
    // Same field/range gates as the flat loader.
    if (id >= kFermatPrime) return false;
    if (count > kMaxLoadedCount || count < -kMaxLoadedCount) return false;
    if (id == 0 && count == 0) return false;  // a live cell must be live
    ids[index] = id;
    counts[index] = count;
  }
  Storage& st = Mut();
  st.ids = std::move(ids);
  st.counts = std::move(counts);
  return true;
}

void InfrequentPart::CheckInvariants(InvariantMode mode) const {
  const Storage& st = *store_;
  DAVINCI_CHECK_EQ(st.ids.size(), rows_ * width_);
  DAVINCI_CHECK_EQ(st.counts.size(), rows_ * width_);
  DAVINCI_CHECK_EQ(hashes_.size(), rows_);
  DAVINCI_CHECK_EQ(signs_.size(), rows_);
  uint64_t row0_id_sum = 0;
  int64_t row0_count_sum = 0;
  for (size_t row = 0; row < rows_; ++row) {
    uint64_t id_sum = 0;
    int64_t count_sum = 0;
    for (size_t j = 0; j < width_; ++j) {
      size_t i = row * width_ + j;
      DAVINCI_CHECK_MSG(st.ids[i] < kFermatPrime,
                        "row " + std::to_string(row) + " bucket " +
                            std::to_string(j) + ": iID outside the field");
      id_sum = AddMod(id_sum, st.ids[i], kFermatPrime);
      count_sum += st.counts[i];
      if (mode == InvariantMode::kAdditive && !use_signs_) {
        DAVINCI_CHECK_MSG(st.counts[i] >= 0,
                          "row " + std::to_string(row) + " bucket " +
                              std::to_string(j) + ": negative icnt");
      }
    }
    if (row == 0) {
      row0_id_sum = id_sum;
      row0_count_sum = count_sum;
    } else {
      // Every row absorbs the full update stream, so Σ_j iID mod p (and,
      // without ζ signs, Σ_j icnt) must agree across rows.
      DAVINCI_CHECK_EQ(id_sum, row0_id_sum);
      if (!use_signs_) DAVINCI_CHECK_EQ(count_sum, row0_count_sum);
    }
  }
}

void InfrequentPart::CollectStats(obs::IfpHealth* out) const {
  out->rows = rows_;
  out->width = width_;
  out->empty_buckets = EmptyBuckets();
  out->inserts = stats_.inserts.value();
  out->decode_runs = stats_.decode_runs.value();
  out->decoded_flows = stats_.decoded_flows.value();
  out->decode_rejected_by_filter = stats_.decode_rejected_by_filter.value();
}

size_t InfrequentPart::EmptyBuckets() const {
  const Storage& st = *store_;
  size_t empty = 0;
  for (size_t i = 0; i < st.ids.size(); ++i) {
    if (st.ids[i] == 0 && st.counts[i] == 0) ++empty;
  }
  return empty;
}

}  // namespace davinci
