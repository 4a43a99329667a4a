#ifndef DAVINCI_CORE_EXTENDED_QUERIES_H_
#define DAVINCI_CORE_EXTENDED_QUERIES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/davinci_sketch.h"

// Queries beyond the paper's nine tasks, derived from the same structure —
// the paper notes that "if new operations can be transformed into this
// framework, additional queries may be supported": these are the natural
// ones downstream users ask for.

namespace davinci {

// |A ∩ B| for distinct elements, by inclusion–exclusion over the linear
// union: |A∩B| = |A| + |B| − |A∪B|. Requires identical configs/seeds.
double EstimateIntersectionCardinality(const DaVinciSketch& a,
                                       const DaVinciSketch& b);

// Jaccard similarity |A∩B| / |A∪B| of the two key sets.
double EstimateJaccard(const DaVinciSketch& a, const DaVinciSketch& b);

// The k largest flows, sorted by estimated frequency (descending). The
// candidates are the frequent-part residents plus decoded medium flows,
// which by design contain every possible top-k member.
std::vector<std::pair<uint32_t, int64_t>> TopK(const DaVinciSketch& sketch,
                                               size_t k);

// The q-quantile (q in [0,1]) of the flow-size distribution: the smallest
// size s such that at least q of all flows have size ≤ s.
int64_t FlowSizeQuantile(const DaVinciSketch& sketch, double q);

// Second frequency moment F₂ = Σ f² (self-join size).
double EstimateSecondMoment(const DaVinciSketch& sketch);

}  // namespace davinci

#endif  // DAVINCI_CORE_EXTENDED_QUERIES_H_
