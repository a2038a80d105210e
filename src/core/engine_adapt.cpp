// Online-adaptation half of UpAnnsEngine: apply_copy_adjustments(), the
// minor-drift path of paper Sec 4.1.2. The drift controller's replica-count
// deltas are re-placed by core::adjust_replicas and shipped incrementally —
// new replica images load into reused MRAM regions, retired replicas release
// theirs to the free list — so a copy adjustment moves a small fraction of
// the full image where a relocate() would reload everything. Like a patch,
// the pass is planned, priced by pim::TransferEngine::scatter, then written.
// Replication changes placement, never results: every (query, cluster) pair
// still scans exactly one replica of the same byte-identical image, so
// neighbors match the unadapted run bit for bit.
#include <algorithm>
#include <cassert>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "pim/transfer.hpp"

namespace upanns::core {

UpAnnsEngine::AdaptStats UpAnnsEngine::apply_copy_adjustments(
    const std::vector<CopyAdjustment>& adjustments,
    const std::vector<double>& frequencies) {
  AdaptStats stats;
  if (adjustments.empty()) return stats;

  const std::vector<std::size_t> sizes = index_.list_sizes();
  const std::vector<CopyDelta> deltas = adjust_replicas(
      placement_, index_, adjustments, sizes, frequencies,
      options_.placement, workload_model_);
  if (deltas.empty()) return stats;

  // New replicas are built from the shared encodings; pending mutations for
  // the touched clusters must land there first. Their *other* replicas stay
  // stale until the next patch_dpus() (loaded_gen_ is untouched here), which
  // then finds the freshly loaded copy byte-identical and skips it.
  if (updatable()) {
    for (const CopyDelta& d : deltas) {
      if (d.add) refresh_encoding(d.cluster);
    }
  }

  // One image per added cluster, shared by every DPU that gains a copy;
  // the planned runs point into it until the commit.
  std::vector<std::int32_t> image_of(index_.n_clusters(), -1);
  std::vector<std::uint32_t> added;
  for (const CopyDelta& d : deltas) {
    if (d.add && image_of[d.cluster] < 0) {
      image_of[d.cluster] = static_cast<std::int32_t>(added.size());
      added.push_back(d.cluster);
    }
  }
  std::vector<ClusterImage> images(added.size());
  common::ThreadPool::global().parallel_for(
      0, added.size(),
      [&](std::size_t i) { build_cluster_image(added[i], images[i]); }, 1);

  std::vector<std::vector<CopyDelta>> per_dpu_deltas(options_.n_dpus);
  for (const CopyDelta& d : deltas) per_dpu_deltas[d.dpu].push_back(d);

  std::vector<std::vector<MramRun>> runs(options_.n_dpus);
  std::vector<std::size_t> dpu_added(options_.n_dpus, 0);
  std::vector<std::size_t> dpu_retired(options_.n_dpus, 0);

  // Plan: retire and place replicas, collecting the adds' writes. Nothing
  // is written yet.
  common::ThreadPool::global().parallel_for(
      0, options_.n_dpus,
      [&](std::size_t d) {
        const std::vector<CopyDelta>& ops = per_dpu_deltas[d];
        if (ops.empty()) return;
        PerDpu& pd = per_dpu_[d];
        pim::Dpu& dpu = system_->dpu(d);
        // Per-batch scratch lives past the static mark; drop it so released
        // regions and fresh loads can take the space (same as patch_dpus).
        dpu.mram_rewind(pd.static_mark);

        for (const CopyDelta& op : ops) {
          if (!op.add) {
            // Retire: release the replica's regions to the MRAM free list
            // and drop its descriptor (swap-remove keeps slots dense; the
            // kernel resolves cluster_slot per batch, so renumbering between
            // batches is safe).
            const std::int32_t slot = pd.cluster_slot[op.cluster];
            assert(slot >= 0);
            release_replica(dpu,
                            pd.layout.clusters[static_cast<std::size_t>(slot)]);
            const std::size_t last = pd.layout.clusters.size() - 1;
            if (static_cast<std::size_t>(slot) != last) {
              pd.layout.clusters[static_cast<std::size_t>(slot)] =
                  pd.layout.clusters[last];
              pd.cluster_slot[pd.layout.clusters[static_cast<std::size_t>(
                                  slot)].cluster_id] = slot;
            }
            pd.layout.clusters.pop_back();
            pd.cluster_slot[op.cluster] = -1;
            ++dpu_retired[d];
            continue;
          }

          // Add: place the replica image in reused regions, with the same
          // slack policy as a full load so later streaming inserts patch it
          // in place.
          pd.cluster_slot[op.cluster] =
              static_cast<std::int32_t>(pd.layout.clusters.size());
          pd.layout.clusters.push_back(load_replica(
              dpu, op.cluster,
              images[static_cast<std::size_t>(image_of[op.cluster])], runs[d]));
          ++dpu_added[d];
        }
        pd.static_mark = dpu.mram_mark();
      },
      1);

  // Price the planned runs, then commit them. A pure-retire pass ships
  // nothing and costs nothing — the regions just return to the free list.
  RunLengths lengths(options_.n_dpus);
  for (std::size_t d = 0; d < options_.n_dpus; ++d) {
    for (const MramRun& r : runs[d]) {
      lengths[d].push_back(r.len);
      stats.bytes_written += r.len;
    }
    stats.replicas_added += dpu_added[d];
    stats.replicas_retired += dpu_retired[d];
  }
  const pim::TransferStats xfer = scatter_charge(lengths);
  stats.seconds = xfer.seconds;
  stats.apply_seconds = xfer.apply_seconds;
  common::ThreadPool::global().parallel_for(
      0, options_.n_dpus,
      [&](std::size_t d) { write_runs(system_->dpu(d), runs[d]); }, 1);

  if (metrics_) {
    metrics_->counter("adapt.patches").add(1);
    metrics_->counter("adapt.patch_bytes").add(stats.bytes_written);
    metrics_->counter("adapt.replicas_added").add(stats.replicas_added);
    metrics_->counter("adapt.replicas_retired").add(stats.replicas_retired);
    metrics_->histogram("adapt.patch.seconds").observe(stats.seconds);
    if (stats.bytes_written > 0) {
      pim::TransferEngine::record(obs::MetricsSink(metrics_), "adapt", xfer);
    }
  }
  common::log_debug("adapt-patch: +", stats.replicas_added, " replicas, -",
                    stats.replicas_retired, " replicas, ",
                    stats.bytes_written, " bytes, ", stats.seconds, " s");
  return stats;
}

}  // namespace upanns::core
