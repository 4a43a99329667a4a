#ifndef DAVINCI_CORE_SKETCH_INTERFACE_H_
#define DAVINCI_CORE_SKETCH_INTERFACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

// Uniform interfaces implemented by DaVinciSketch, its TowerSketch element
// filter substrate and every comparator sketch in baselines/, so the bench
// harness can sweep algorithms generically. Concrete sketches implement the
// capability interfaces that match the tasks the paper evaluates them on.
// They live in core/ because the core implements them; the comparators
// depend on the core, never the other way round.

namespace davinci {

// Base capability: streaming insertion of keyed counts plus point queries.
class FrequencySketch {
 public:
  virtual ~FrequencySketch() = default;

  virtual std::string Name() const = 0;

  // Bytes of sketch state under the design's counter widths (the number
  // the paper's memory axes refer to), not the process RSS.
  virtual size_t MemoryBytes() const = 0;

  virtual void Insert(uint32_t key, int64_t count) = 0;

  virtual int64_t Query(uint32_t key) const = 0;

  // Counter/bucket touches performed so far by Insert (for the paper's
  // Average Memory Access metric). Sketches that do not participate in the
  // AMA experiment may keep the default.
  virtual uint64_t MemoryAccesses() const { return 0; }
};

// Sketches that can enumerate candidate heavy hitters without an external
// key list (HashPipe, Elastic, Coco, CountHeap, UnivMon, FCM, DaVinci).
class HeavyHitterSketch {
 public:
  virtual ~HeavyHitterSketch() = default;

  // All elements whose estimated frequency exceeds `threshold`.
  virtual std::vector<std::pair<uint32_t, int64_t>> HeavyHitters(
      int64_t threshold) const = 0;
};

}  // namespace davinci

#endif  // DAVINCI_CORE_SKETCH_INTERFACE_H_
