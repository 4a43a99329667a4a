#include "core/extended_queries.h"

#include <algorithm>
#include <cstdlib>

namespace davinci {

double EstimateIntersectionCardinality(const DaVinciSketch& a,
                                       const DaVinciSketch& b) {
  DaVinciSketch merged = a;
  merged.Merge(b);
  double intersection = a.EstimateCardinality() + b.EstimateCardinality() -
                        merged.EstimateCardinality();
  return std::max(0.0, intersection);
}

double EstimateJaccard(const DaVinciSketch& a, const DaVinciSketch& b) {
  DaVinciSketch merged = a;
  merged.Merge(b);
  double union_card = merged.EstimateCardinality();
  if (union_card <= 0.0) return 0.0;
  double intersection = a.EstimateCardinality() + b.EstimateCardinality() -
                        union_card;
  return std::clamp(intersection / union_card, 0.0, 1.0);
}

std::vector<std::pair<uint32_t, int64_t>> TopK(const DaVinciSketch& sketch,
                                               size_t k) {
  // Threshold 0 enumerates every candidate the sketch can name: all FP
  // residents and all decoded medium flows.
  std::vector<std::pair<uint32_t, int64_t>> candidates =
      sketch.HeavyHitters(0);
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& x, const auto& y) {
              if (x.second != y.second) return x.second > y.second;
              return x.first < y.first;
            });
  if (candidates.size() > k) candidates.resize(k);
  return candidates;
}

int64_t FlowSizeQuantile(const DaVinciSketch& sketch, double q) {
  q = std::clamp(q, 0.0, 1.0);
  auto histogram = sketch.Distribution();
  double total = 0;
  for (const auto& [size, n] : histogram) {
    (void)size;
    total += static_cast<double>(n);
  }
  if (total <= 0) return 0;
  double cumulative = 0;
  int64_t last_size = 0;
  for (const auto& [size, n] : histogram) {
    cumulative += static_cast<double>(n);
    last_size = size;
    if (cumulative / total >= q) return size;
  }
  return last_size;
}

double EstimateSecondMoment(const DaVinciSketch& sketch) {
  return DaVinciSketch::InnerProduct(sketch, sketch);
}

}  // namespace davinci
