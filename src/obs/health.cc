#include "obs/health.h"

#include <algorithm>
#include <ostream>

namespace davinci::obs {

void HealthSnapshot::Accumulate(const HealthSnapshot& other) {
  stats_enabled = stats_enabled && other.stats_enabled;
  shards += other.shards;
  memory_bytes += other.memory_bytes;
  inserts += other.inserts;
  queries += other.queries;
  snapshot_merges += other.snapshot_merges;
  snapshot_reuse_hits += other.snapshot_reuse_hits;

  fp.buckets += other.fp.buckets;
  fp.slots = std::max(fp.slots, other.fp.slots);
  fp.live_slots += other.fp.live_slots;
  fp.flagged_buckets += other.fp.flagged_buckets;
  fp.ecnt_sum += other.fp.ecnt_sum;
  fp.ecnt_max = std::max(fp.ecnt_max, other.fp.ecnt_max);
  fp.inserts += other.fp.inserts;
  fp.hits += other.fp.hits;
  fp.fills += other.fp.fills;
  fp.evictions += other.fp.evictions;
  fp.rejections += other.fp.rejections;

  ef.threshold = std::max(ef.threshold, other.ef.threshold);
  if (ef.levels.size() < other.ef.levels.size()) {
    ef.levels.resize(other.ef.levels.size());
  }
  for (size_t i = 0; i < other.ef.levels.size(); ++i) {
    EfLevelHealth& mine = ef.levels[i];
    const EfLevelHealth& theirs = other.ef.levels[i];
    mine.width += theirs.width;
    mine.bits = std::max(mine.bits, theirs.bits);
    mine.cap = std::max(mine.cap, theirs.cap);
    mine.saturated += theirs.saturated;
    mine.zeros += theirs.zeros;
  }
  ef.inserts += other.ef.inserts;
  ef.promotions += other.ef.promotions;
  ef.promoted_units += other.ef.promoted_units;

  ifp.rows = std::max(ifp.rows, other.ifp.rows);
  ifp.width += other.ifp.width;
  ifp.empty_buckets += other.ifp.empty_buckets;
  ifp.decode_threads = std::max(ifp.decode_threads, other.ifp.decode_threads);
  ifp.inserts += other.ifp.inserts;
  ifp.decode_runs += other.ifp.decode_runs;
  ifp.decoded_flows += other.ifp.decoded_flows;
  ifp.decode_rejected_by_filter += other.ifp.decode_rejected_by_filter;

  epoch.window_epochs = std::max(epoch.window_epochs, other.epoch.window_epochs);
  epoch.epochs_in_window += other.epoch.epochs_in_window;
  epoch.rotations += other.epoch.rotations;
  epoch.window_merge_hits += other.epoch.window_merge_hits;
  epoch.window_rebuild_merges += other.epoch.window_rebuild_merges;
  epoch.cow_clones = std::max(epoch.cow_clones, other.epoch.cow_clones);
  epoch.cow_clone_bytes =
      std::max(epoch.cow_clone_bytes, other.epoch.cow_clone_bytes);

  tuning.decode_min_buckets_per_worker =
      std::max(tuning.decode_min_buckets_per_worker,
               other.tuning.decode_min_buckets_per_worker);
}

void HealthSnapshot::WriteJson(std::ostream& out) const {
  out << "{\"stats_enabled\":" << (stats_enabled ? "true" : "false")
      << ",\"shards\":" << shards << ",\"memory_bytes\":" << memory_bytes
      << ",\"inserts\":" << inserts << ",\"queries\":" << queries
      << ",\"snapshot_merges\":" << snapshot_merges
      << ",\"snapshot_reuse_hits\":" << snapshot_reuse_hits;

  out << ",\"fp\":{\"buckets\":" << fp.buckets << ",\"slots\":" << fp.slots
      << ",\"live_slots\":" << fp.live_slots << ",\"occupancy\":"
      << fp.Occupancy() << ",\"flagged_buckets\":" << fp.flagged_buckets
      << ",\"ecnt_sum\":" << fp.ecnt_sum << ",\"ecnt_max\":" << fp.ecnt_max
      << ",\"inserts\":" << fp.inserts << ",\"hits\":" << fp.hits
      << ",\"fills\":" << fp.fills << ",\"evictions\":" << fp.evictions
      << ",\"rejections\":" << fp.rejections << "}";

  out << ",\"ef\":{\"threshold\":" << ef.threshold << ",\"levels\":[";
  for (size_t i = 0; i < ef.levels.size(); ++i) {
    const EfLevelHealth& level = ef.levels[i];
    if (i > 0) out << ",";
    out << "{\"width\":" << level.width << ",\"bits\":" << level.bits
        << ",\"cap\":" << level.cap << ",\"saturated\":" << level.saturated
        << ",\"saturation\":" << level.SaturationFraction()
        << ",\"zeros\":" << level.zeros << "}";
  }
  out << "],\"inserts\":" << ef.inserts << ",\"promotions\":" << ef.promotions
      << ",\"promoted_units\":" << ef.promoted_units << "}";

  out << ",\"ifp\":{\"rows\":" << ifp.rows << ",\"width\":" << ifp.width
      << ",\"empty_buckets\":" << ifp.empty_buckets << ",\"load\":"
      << ifp.Load() << ",\"decode_threads\":" << ifp.decode_threads
      << ",\"inserts\":" << ifp.inserts << ",\"decode_runs\":"
      << ifp.decode_runs << ",\"decoded_flows\":" << ifp.decoded_flows
      << ",\"decode_rejected_by_filter\":" << ifp.decode_rejected_by_filter
      << "}";

  out << ",\"epoch\":{\"window_epochs\":" << epoch.window_epochs
      << ",\"epochs_in_window\":" << epoch.epochs_in_window
      << ",\"rotations\":" << epoch.rotations << ",\"window_merge_hits\":"
      << epoch.window_merge_hits << ",\"window_rebuild_merges\":"
      << epoch.window_rebuild_merges << ",\"cow_clones\":" << epoch.cow_clones
      << ",\"cow_clone_bytes\":" << epoch.cow_clone_bytes << "}";

  out << ",\"tuning\":{\"decode_min_buckets_per_worker\":"
      << tuning.decode_min_buckets_per_worker << "}";

  out << ",\"merge_tree\":{\"height\":" << merge_tree.height
      << ",\"import_requests\":" << merge_tree.import_requests
      << ",\"imported_images\":" << merge_tree.imported_images
      << ",\"imported_bytes\":" << merge_tree.imported_bytes
      << ",\"images_per_level\":[";
  for (size_t i = 0; i < merge_tree.images_per_level.size(); ++i) {
    if (i > 0) out << ",";
    out << merge_tree.images_per_level[i];
  }
  out << "]}";

  out << ",\"resize\":{\"applied\":" << resize.applied
      << ",\"rejected\":" << resize.rejected
      << ",\"bytes_before\":" << resize.bytes_before
      << ",\"bytes_after\":" << resize.bytes_after
      << ",\"last_trigger\":" << resize.last_trigger << "}";

  out << "}";
}

}  // namespace davinci::obs
