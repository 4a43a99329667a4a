#include "core/tower_sketch.h"

#include <algorithm>
#include <cstdlib>

#include "common/prefetch.h"
#include "common/serialize.h"
#include "common/varint.h"
#include "obs/stats.h"

namespace davinci {

TowerSketch::TowerSketch(size_t memory_bytes, uint64_t seed, Options options)
    : store_(std::make_shared<Storage>()) {
  size_t num_levels = options.level_bits.empty() ? 1 : options.level_bits.size();
  size_t bytes_per_level = std::max<size_t>(1, memory_bytes / num_levels);
  levels_.resize(num_levels);
  store_->counters.resize(num_levels);
  for (size_t i = 0; i < num_levels; ++i) {
    Level& level = levels_[i];
    // Clamp before shifting: a hostile/garbage config (bits <= 0 or > 64)
    // would otherwise make the cap shift UB and the width divide by zero.
    int bits = options.level_bits.empty() ? 32 : options.level_bits[i];
    level.bits = std::clamp(bits, 1, 64);
    level.cap = (level.bits >= 63) ? INT64_MAX
                                   : ((int64_t{1} << level.bits) - 1);
    level.width = std::max<size_t>(1, bytes_per_level * 8 /
                                          static_cast<size_t>(level.bits));
    store_->counters[i].assign(level.width, 0);
    level.hash = HashFamily(seed * 131 + i + 1);
  }
}

void TowerSketch::CloneStore() {
  store_ = std::make_shared<Storage>(*store_);
  obs::CowTally::RecordClone(store_->ByteSize());
}

size_t TowerSketch::MemoryBytes() const {
  size_t bits = 0;
  for (const Level& level : levels_) {
    bits += level.width * static_cast<size_t>(level.bits);
  }
  return (bits + 7) / 8;
}

void TowerSketch::Insert(uint32_t key, int64_t count) {
  uint64_t base_hash = HashFamily::BaseHash(key);
  Storage& st = Mut();
  for (size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    ++accesses_;
    int64_t& c = st.counters[i][IndexIn(level, base_hash)];
    c = std::min(c + count, level.cap);
  }
}

int64_t TowerSketch::Query(uint32_t key) const {
  return QueryWithHash(HashFamily::BaseHash(key));
}

int64_t TowerSketch::QueryWithHash(uint64_t base_hash) const {
  const Storage& st = *store_;
  int64_t best = 0;
  bool found = false;
  for (size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    int64_t c = st.counters[i][IndexIn(level, base_hash)];
    if (c < level.cap) {
      if (!found || c < best) best = c;
      found = true;
    }
  }
  if (!found && !levels_.empty()) best = levels_.back().cap;
  return best;
}

void TowerSketch::PrefetchCounters(uint64_t base_hash) const {
  const Storage& st = *store_;
  for (size_t i = 0; i < levels_.size(); ++i) {
    PrefetchWrite(&st.counters[i][IndexIn(levels_[i], base_hash)]);
  }
}

int64_t TowerSketch::InsertCappedWithHash(uint64_t base_hash, int64_t count,
                                          int64_t cap) {
  // Conservative update: raise the element's estimate from its current
  // value toward min(current + count, cap); the remainder overflows.
  int64_t current = QueryWithHash(base_hash);
  if (current >= cap) {
    accesses_ += levels_.size();  // the query above touched each level
    return count;
  }
  int64_t absorbed = std::min(count, cap - current);
  int64_t target = current + absorbed;
  Storage& st = Mut();
  for (size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    ++accesses_;
    int64_t& c = st.counters[i][IndexIn(level, base_hash)];
    c = std::min(std::max(c, target), level.cap);
  }
  return count - absorbed;
}

int64_t TowerSketch::InsertCappedDownWithHash(uint64_t base_hash,
                                              int64_t magnitude, int64_t cap) {
  int64_t current = QuerySignedWithHash(base_hash);
  if (current <= -cap) {
    accesses_ += levels_.size();
    return magnitude;
  }
  int64_t absorbed = std::min(magnitude, cap + current);
  int64_t target = current - absorbed;
  Storage& st = Mut();
  for (size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    ++accesses_;
    int64_t& c = st.counters[i][IndexIn(level, base_hash)];
    c = std::max(std::min(c, target), -level.cap);
  }
  return magnitude - absorbed;
}

int64_t TowerSketch::QuerySignedWithHash(uint64_t base_hash) const {
  const Storage& st = *store_;
  int64_t best = 0;
  bool found = false;
  for (size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    int64_t c = st.counters[i][IndexIn(level, base_hash)];
    if (c < level.cap && c > -level.cap) {
      if (!found || std::llabs(c) < std::llabs(best)) best = c;
      found = true;
    }
  }
  return found || levels_.empty() ? best : levels_.back().cap;
}

void TowerSketch::Merge(const TowerSketch& other) {
  Storage& st = Mut();
  for (size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    std::vector<int64_t>& dst = st.counters[i];
    const std::vector<int64_t>& src = other.store_->counters[i];
    for (size_t j = 0; j < dst.size(); ++j) {
      dst[j] = std::min(dst[j] + src[j], level.cap);
    }
  }
}

void TowerSketch::Subtract(const TowerSketch& other) {
  Storage& st = Mut();
  for (size_t i = 0; i < levels_.size(); ++i) {
    std::vector<int64_t>& dst = st.counters[i];
    const std::vector<int64_t>& src = other.store_->counters[i];
    for (size_t j = 0; j < dst.size(); ++j) {
      dst[j] -= src[j];
    }
  }
}

void TowerSketch::SaveState(std::ostream& out) const {
  const Storage& st = *store_;
  for (size_t i = 0; i < levels_.size(); ++i) {
    WriteVec(out, st.counters[i]);
  }
}

bool TowerSketch::LoadState(std::istream& in) {
  Storage& st = Mut();
  for (size_t i = 0; i < levels_.size(); ++i) {
    std::vector<int64_t> counters;
    if (!ReadVec(in, &counters) || counters.size() != levels_[i].width) {
      return false;
    }
    // Range validation (tests/fuzz/fuzz_serialize.cc drives mutated images
    // through here): the write paths saturate every cell to [-cap, cap],
    // so anything outside is a corrupt image — and letting it in would put
    // the arithmetic that trusts the cap (signed absorb/saturate math) on
    // UB-capable inputs.
    for (int64_t counter : counters) {
      if (counter > levels_[i].cap || counter < -levels_[i].cap) {
        return false;
      }
    }
    st.counters[i] = std::move(counters);
  }
  return true;
}

void TowerSketch::SaveStateCompressed(std::ostream& out) const {
  const Storage& st = *store_;
  for (size_t i = 0; i < levels_.size(); ++i) {
    const std::vector<int64_t>& counters = st.counters[i];
    size_t pos = 0;
    while (pos < counters.size()) {
      size_t zero_run = 0;
      while (pos + zero_run < counters.size() &&
             counters[pos + zero_run] == 0) {
        ++zero_run;
      }
      WriteVarU64(out, zero_run);
      pos += zero_run;
      if (pos == counters.size()) break;
      size_t literal_run = 0;
      while (pos + literal_run < counters.size() &&
             counters[pos + literal_run] != 0) {
        ++literal_run;
      }
      WriteVarU64(out, literal_run);
      for (size_t j = 0; j < literal_run; ++j) {
        WriteVarI64(out, counters[pos + j]);
      }
      pos += literal_run;
    }
  }
}

bool TowerSketch::LoadStateCompressed(std::istream& in) {
  std::vector<std::vector<int64_t>> staged(levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    const size_t width = levels_[i].width;
    const int64_t cap = levels_[i].cap;
    std::vector<int64_t> counters(width, 0);
    size_t pos = 0;
    // Run arithmetic validation: each run length is checked against the
    // remaining width BEFORE advancing, so a hostile run count can neither
    // overflow `pos` nor index out of the level.
    while (pos < width) {
      uint64_t zero_run = 0;
      if (!ReadVarU64(in, &zero_run)) return false;
      if (zero_run > width - pos) return false;
      pos += zero_run;
      if (pos == width) break;
      uint64_t literal_run = 0;
      if (!ReadVarU64(in, &literal_run)) return false;
      if (literal_run == 0 || literal_run > width - pos) return false;
      for (uint64_t j = 0; j < literal_run; ++j) {
        int64_t value = 0;
        if (!ReadVarI64(in, &value)) return false;
        // Same range gate as the flat loader: the saturate math trusts
        // every cell to sit within ±cap.
        if (value > cap || value < -cap) return false;
        counters[pos + j] = value;
      }
      pos += literal_run;
    }
    staged[i] = std::move(counters);
  }
  Storage& st = Mut();
  st.counters = std::move(staged);
  return true;
}

void TowerSketch::SealDeltaBase() { delta_base_ = store_; }

void TowerSketch::SaveDeltaState(std::ostream& out) const {
  const Storage& st = *store_;
  for (size_t i = 0; i < levels_.size(); ++i) {
    const std::vector<int64_t>& counters = st.counters[i];
    // An unsealed sketch diffs against the all-zero state, so a delta from
    // a fresh sketch degenerates to the sparse full image.
    const std::vector<int64_t>* base =
        delta_base_ != nullptr ? &delta_base_->counters[i] : nullptr;
    uint64_t changed = 0;
    for (size_t j = 0; j < counters.size(); ++j) {
      int64_t base_value = base != nullptr ? (*base)[j] : 0;
      if (counters[j] != base_value) ++changed;
    }
    WriteVarU64(out, changed);
    uint64_t previous = 0;
    bool first = true;
    for (size_t j = 0; j < counters.size(); ++j) {
      int64_t base_value = base != nullptr ? (*base)[j] : 0;
      if (counters[j] == base_value) continue;
      WriteVarU64(out, first ? j : j - previous);
      WriteVarI64(out, counters[j]);
      previous = j;
      first = false;
    }
  }
}

bool TowerSketch::ApplyDeltaState(std::istream& in) {
  Storage& st = Mut();
  for (size_t i = 0; i < levels_.size(); ++i) {
    const size_t width = levels_[i].width;
    const int64_t cap = levels_[i].cap;
    uint64_t changed = 0;
    if (!ReadVarU64(in, &changed)) return false;
    if (changed > width) return false;
    uint64_t index = 0;
    for (uint64_t k = 0; k < changed; ++k) {
      uint64_t gap = 0;
      int64_t value = 0;
      if (!ReadVarU64(in, &gap) || !ReadVarI64(in, &value)) return false;
      // First entry is an absolute index; the rest are strictly-positive
      // gaps, so duplicate or descending indices reject. Gaps are bounded
      // against the remaining width before the add so a hostile gap cannot
      // wrap `index` back into range.
      if (k == 0) {
        if (gap >= width) return false;
        index = gap;
      } else {
        if (gap == 0 || gap >= width - index) return false;
        index += gap;
      }
      if (value > cap || value < -cap) return false;
      st.counters[i][index] = value;
    }
  }
  return true;
}

void TowerSketch::CheckInvariants(InvariantMode mode) const {
  DAVINCI_CHECK(!levels_.empty());
  const Storage& st = *store_;
  DAVINCI_CHECK_EQ(st.counters.size(), levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    const std::vector<int64_t>& counters = st.counters[i];
    DAVINCI_CHECK_MSG(level.bits > 0 && level.bits <= 64,
                      "level " + std::to_string(i));
    DAVINCI_CHECK_MSG(level.cap > 0, "level " + std::to_string(i));
    DAVINCI_CHECK_MSG(!counters.empty(), "level " + std::to_string(i));
    DAVINCI_CHECK_EQ(counters.size(), level.width);
    if (i > 0) {
      // Tower shape: going up, counters get wider (larger saturation cap)
      // and scarcer. Queries depend on this — a level saturating before
      // the one above it is what makes "smallest unsaturated" sound.
      DAVINCI_CHECK_LE(levels_[i - 1].cap, level.cap);
      DAVINCI_CHECK_LE(level.width, levels_[i - 1].width);
    }
    if (mode == InvariantMode::kAdditive) {
      for (size_t j = 0; j < counters.size(); ++j) {
        DAVINCI_CHECK_MSG(
            counters[j] >= 0 && counters[j] <= level.cap,
            "level " + std::to_string(i) + " counter " + std::to_string(j) +
                " = " + std::to_string(counters[j]));
      }
    }
  }
}

size_t TowerSketch::SaturatedSlots(size_t level) const {
  size_t saturated = 0;
  for (int64_t c : store_->counters[level]) {
    if (c >= levels_[level].cap) ++saturated;
  }
  return saturated;
}

size_t TowerSketch::ZeroSlots(size_t level) const {
  size_t zeros = 0;
  for (int64_t c : store_->counters[level]) {
    if (c == 0) ++zeros;
  }
  return zeros;
}

}  // namespace davinci
