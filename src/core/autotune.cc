#include "core/autotune.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "core/davinci_sketch.h"

namespace davinci {
namespace {

double SampleAre(const std::vector<uint32_t>& keys,
                 const DaVinciConfig& config) {
  DaVinciSketch sketch(config);
  std::unordered_map<uint32_t, int64_t> truth;
  truth.reserve(keys.size() / 4 + 16);
  for (uint32_t key : keys) {
    sketch.Insert(key, 1);
    ++truth[key];
  }
  double sum = 0.0;
  for (const auto& [key, f] : truth) {
    sum += static_cast<double>(std::llabs(sketch.Query(key) - f)) /
           static_cast<double>(f);
  }
  return truth.empty() ? 0.0 : sum / static_cast<double>(truth.size());
}

}  // namespace

AutotuneController::Pressures AutotuneController::ComputePressures(
    const obs::HealthSnapshot& health) {
  Pressures p;
  // FP: slot occupancy, sharpened by how much of the table has already
  // been forced to evict (flagged buckets). Both are structural scans.
  double occupancy = health.fp.Occupancy();
  double flagged =
      health.fp.buckets == 0
          ? 0.0
          : static_cast<double>(health.fp.flagged_buckets) /
                static_cast<double>(health.fp.buckets);
  p.fp = std::min(1.0, 0.6 * occupancy + 0.4 * flagged);
  // EF: the worst tower level's saturation — a pinned counter lies about
  // every flow mapped onto it, so the worst level bounds filter fidelity.
  for (const obs::EfLevelHealth& level : health.ef.levels) {
    p.ef = std::max(p.ef, level.SaturationFraction());
  }
  // IFP: bucket load. Peeling needs pure buckets; decode failure risk
  // (and fast-query noise) climbs directly with load.
  p.ifp = std::min(1.0, health.ifp.Load());
  return p;
}

AutotuneController::AutotuneController(const DaVinciConfig& initial,
                                       size_t total_bytes,
                                       const AutotuneControllerOptions& options)
    : options_(options), current_(initial), total_bytes_(total_bytes) {
  double total = static_cast<double>(initial.TotalBytes());
  fp_fraction_ = total == 0.0
                     ? 0.25
                     : static_cast<double>(initial.FpBytes()) / total;
  ef_fraction_ = total == 0.0
                     ? 0.50
                     : static_cast<double>(initial.ef_bytes) / total;
}

DaVinciConfig AutotuneController::WithSplit(double fp_fraction,
                                            double ef_fraction,
                                            int64_t threshold) const {
  // Re-derive sizes directly (not via FromMemorySplit) so every
  // non-fraction field — slots, rows, level bits, tuning knobs, seed —
  // carries over from the current geometry.
  DaVinciConfig config = current_;
  auto fp_bytes = static_cast<size_t>(
      static_cast<double>(total_bytes_) * fp_fraction);
  auto ef_bytes = static_cast<size_t>(
      static_cast<double>(total_bytes_) * ef_fraction);
  size_t ifp_bytes =
      total_bytes_ > fp_bytes + ef_bytes ? total_bytes_ - fp_bytes - ef_bytes
                                         : 0;
  size_t bucket_bytes = config.fp_slots * DaVinciConfig::kFpSlotBytes +
                        DaVinciConfig::kFpBucketOverheadBytes;
  config.fp_buckets = std::max<size_t>(1, fp_bytes / bucket_bytes);
  config.ef_bytes = std::max<size_t>(64, ef_bytes);
  config.ifp_buckets_per_row = std::max<size_t>(
      4, ifp_bytes / DaVinciConfig::kIfpBucketBytes / config.ifp_rows);
  config.promotion_threshold = threshold;
  return config;
}

std::optional<DaVinciConfig> AutotuneController::Observe(
    const obs::HealthSnapshot& health) {
  if (cooldown_ > 0) {
    --cooldown_;
    return std::nullopt;
  }
  Pressures p = ComputePressures(health);

  // Threshold recalibration rides along with (and uses the same cooldown
  // as) the re-split: a loaded IFP wants a higher T so more mass stays in
  // the filter; a saturated EF with a quiet IFP wants a lower T so mass
  // stops piling into pinned counters.
  int64_t threshold = current_.promotion_threshold;
  if (p.ifp > 0.5 && threshold * 2 <= options_.threshold_max) {
    threshold *= 2;
  } else if (p.ef > 0.5 && p.ifp < 0.25 &&
             threshold / 2 >= options_.threshold_min) {
    threshold /= 2;
  }

  // Byte re-split: move budget from the least-pressured part toward the
  // most-pressured one, step-bounded and clamped.
  double fractions[3] = {fp_fraction_, ef_fraction_,
                         1.0 - fp_fraction_ - ef_fraction_};
  double pressures[3] = {p.fp, p.ef, p.ifp};
  int hi = 0, lo = 0;
  for (int i = 1; i < 3; ++i) {
    if (pressures[i] > pressures[hi]) hi = i;
    if (pressures[i] < pressures[lo]) lo = i;
  }
  double imbalance = pressures[hi] - pressures[lo];
  bool rebalance = imbalance > options_.hysteresis &&
                   fractions[hi] < options_.max_fraction &&
                   fractions[lo] > options_.min_fraction;
  if (!rebalance && threshold == current_.promotion_threshold) {
    return std::nullopt;
  }
  if (rebalance) {
    double step = std::min(options_.max_step, options_.max_step * imbalance +
                                                  options_.max_step * 0.5);
    step = std::min(step, fractions[lo] - options_.min_fraction);
    step = std::min(step, options_.max_fraction - fractions[hi]);
    fractions[hi] += step;
    fractions[lo] -= step;
  }
  DaVinciConfig proposed = WithSplit(fractions[0], fractions[1], threshold);
  if (DaVinciConfig::GeometryCompatible(proposed, current_) ==
      DaVinciConfig::GeometryRelation::kIdentical) {
    return std::nullopt;
  }
  fp_fraction_ = fractions[0];
  ef_fraction_ = fractions[1];
  current_ = proposed;
  cooldown_ = options_.cooldown_epochs;
  ++proposals_;
  return proposed;
}

void AutotuneController::RevertTo(const DaVinciConfig& live) {
  current_ = live;
  double total = static_cast<double>(live.TotalBytes());
  if (total > 0.0) {
    fp_fraction_ = static_cast<double>(live.FpBytes()) / total;
    ef_fraction_ = static_cast<double>(live.ef_bytes) / total;
  }
}

AutotuneResult AutotuneConfig(const std::vector<uint32_t>& sample_keys,
                              size_t total_bytes, uint64_t seed) {
  struct Split {
    double fp, ef;
  };
  // The grid spans the regimes the ablation bench identifies: FP-starved,
  // balanced, FP-heavy, and IFP-heavy.
  const Split splits[] = {
      {0.10, 0.60}, {0.25, 0.50}, {0.40, 0.40}, {0.50, 0.25}};
  const int64_t thresholds[] = {8, 16, 32};

  AutotuneResult best;
  bool first = true;
  for (const Split& split : splits) {
    for (int64_t threshold : thresholds) {
      DaVinciConfig config =
          DaVinciConfig::FromMemorySplit(total_bytes, split.fp, split.ef,
                                         seed);
      config.promotion_threshold = threshold;
      double are = SampleAre(sample_keys, config);
      if (first || are < best.sample_are) {
        best.config = config;
        best.sample_are = are;
        first = false;
      }
    }
  }
  return best;
}

}  // namespace davinci
