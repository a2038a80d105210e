// Streaming-update half of UpAnnsEngine: the mutation surface (upsert /
// remove / compact, delegating to the mutable IvfIndex) and patch_dpus(),
// the incremental MRAM delta-sync that replaces a full load_dpus() between
// serving batches. Only lists whose generation drifted since the last sync
// are touched, and within a list only the byte ranges that actually changed
// are pushed — appends write the tail, tombstones write a sentinel run. The
// whole delta is planned first, priced by pim::TransferEngine::scatter, then
// written.
#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "pim/transfer.hpp"

namespace upanns::core {

namespace {

/// Diff granularity for in-place patches. Coarse enough that a dirty run is
/// one host_write per contiguous edit, fine enough that a single tombstone
/// in a big list does not re-push the whole id array.
constexpr std::size_t kPatchGranule = 256;

/// Plan writing `data` over the DPU bytes at [off, off+size): append the
/// granule runs that differ to `runs`.
void diff_region(const pim::Dpu& dpu, std::size_t off, const std::uint8_t* data,
                 std::size_t size, std::vector<UpAnnsEngine::MramRun>& runs) {
  std::size_t pos = 0;
  while (pos < size) {
    const std::size_t len = std::min(kPatchGranule, size - pos);
    if (std::memcmp(dpu.mram_data(off + pos), data + pos, len) == 0) {
      pos += len;
      continue;
    }
    // Extend across consecutive dirty granules so one edit = one write.
    std::size_t end = pos + len;
    while (end < size) {
      const std::size_t next = std::min(kPatchGranule, size - end);
      if (std::memcmp(dpu.mram_data(off + end), data + end, next) == 0) break;
      end += next;
    }
    runs.push_back({off + pos, data + pos, end - pos});
    pos = end;
  }
}

}  // namespace

void UpAnnsEngine::upsert(std::span<const std::uint32_t> ids,
                          std::span<const float> vectors) {
  if (!mutable_index_) {
    throw std::logic_error("UpAnnsEngine::upsert: read-only engine");
  }
  // Upsert = tombstone any live previous version, then insert the new one.
  for (std::uint32_t id : ids) mutable_index_->remove(id);
  mutable_index_->insert(ids, vectors);
  if (metrics_) metrics_->counter("mutate.upserts").add(ids.size());
}

std::size_t UpAnnsEngine::remove(std::span<const std::uint32_t> ids) {
  if (!mutable_index_) {
    throw std::logic_error("UpAnnsEngine::remove: read-only engine");
  }
  std::size_t removed = 0;
  for (std::uint32_t id : ids) removed += mutable_index_->remove(id) ? 1 : 0;
  if (metrics_) metrics_->counter("mutate.removes").add(removed);
  return removed;
}

std::size_t UpAnnsEngine::compact(double min_tombstone_ratio) {
  if (!mutable_index_) {
    throw std::logic_error("UpAnnsEngine::compact: read-only engine");
  }
  const std::size_t n = mutable_index_->compact(min_tombstone_ratio);
  if (metrics_) metrics_->counter("mutate.compactions").add(n);
  return n;
}

bool UpAnnsEngine::needs_patch() const {
  return mutable_index_ != nullptr &&
         mutable_index_->mutation_epoch() != loaded_epoch_;
}

UpAnnsEngine::PatchStats UpAnnsEngine::patch_dpus() {
  PatchStats stats;
  if (!needs_patch()) return stats;

  // Dirty set: every list whose generation drifted since the last sync.
  std::vector<std::uint32_t> dirty;
  for (std::size_t c = 0; c < index_.n_clusters(); ++c) {
    if (index_.list(c).generation != loaded_gen_[c]) {
      dirty.push_back(static_cast<std::uint32_t>(c));
    }
  }

  // Refresh the shared encodings once; replicas on different DPUs reuse
  // them. Compactions force a re-encode, pure appends extend the stream.
  for (std::uint32_t c : dirty) refresh_encoding(c);

  if (metrics_) {
    obs::Histogram& ratios = metrics_->histogram(
        "mutate.tombstone_ratio", {0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0});
    for (std::uint32_t c : dirty) {
      ratios.observe(index_.list(c).tombstone_ratio());
    }
  }

  // One image per dirty resident list: its replicas all diff against it,
  // and the planned runs point into it until the commit.
  std::vector<ClusterImage> images(dirty.size());
  common::ThreadPool::global().parallel_for(
      0, dirty.size(),
      [&](std::size_t i) {
        if (!placement_.cluster_dpus[dirty[i]].empty()) {
          build_cluster_image(dirty[i], images[i]);
        }
      },
      1);

  std::vector<std::vector<MramRun>> runs(options_.n_dpus);
  std::vector<std::size_t> dpu_lists(options_.n_dpus, 0);
  std::vector<std::size_t> dpu_moved(options_.n_dpus, 0);

  // Plan: diff each dirty replica, relocating regions that outgrew their
  // slack, and update the descriptors. Nothing is written yet.
  common::ThreadPool::global().parallel_for(
      0, options_.n_dpus,
      [&](std::size_t d) {
        PerDpu& pd = per_dpu_[d];
        bool any = false;
        for (std::uint32_t c : dirty) {
          if (pd.cluster_slot[c] >= 0) {
            any = true;
            break;
          }
        }
        if (!any) return;

        pim::Dpu& dpu = system_->dpu(d);
        // Per-batch scratch (queries/results) lives past the static mark;
        // drop it so a relocated region can take the space. The next batch
        // re-pushes its scratch against the updated mark.
        dpu.mram_rewind(pd.static_mark);

        // Relocate-or-diff one region; `off`/`cap` update in place.
        auto sync_region = [&](std::size_t& off, std::size_t& cap,
                               const std::uint8_t* data, std::size_t size,
                               const char* tag) {
          if (size == 0) return;  // keep any reserved region for later
          if (size <= cap) return diff_region(dpu, off, data, size, runs[d]);
          if (cap > 0) dpu.mram_release(off, cap);
          cap = slack_bytes(size);
          off = dpu.mram_alloc_reuse(cap, tag);
          runs[d].push_back({off, data, size});
          ++dpu_moved[d];
        };

        for (std::size_t i = 0; i < dirty.size(); ++i) {
          const std::int32_t slot = pd.cluster_slot[dirty[i]];
          if (slot < 0) continue;
          const ClusterImage& img = images[i];
          DpuClusterData& cd = pd.layout.clusters[static_cast<std::size_t>(slot)];

          sync_region(cd.ids_off, cd.ids_cap,
                      reinterpret_cast<const std::uint8_t*>(img.ids.data()),
                      img.ids.size() * sizeof(std::uint32_t), "ids");
          sync_region(cd.stream_off, cd.stream_cap, img.stream.data(),
                      img.stream.size(),
                      mode_ == KernelMode::kNaiveRaw ? "codes" : "tokens");
          sync_region(
              cd.chunk_index_off, cd.chunk_cap,
              reinterpret_cast<const std::uint8_t*>(img.chunk_index.data()),
              img.chunk_index.size() * sizeof(std::uint32_t), "chunk-index");
          sync_region(cd.combos_off, cd.combos_cap, img.combos.data(),
                      img.combos.size(), "combos");

          // Length/tombstone table update — the host-side mirror of the
          // per-cluster descriptor block a real deployment would push.
          cd.n_records = img.n_records;
          cd.n_tombstones = img.n_tombstones;
          cd.stream_len = img.stream_elems;
          cd.n_chunks = static_cast<std::uint32_t>(img.chunk_index.size());
          cd.n_combos = static_cast<std::uint32_t>(img.combos.size() / 4);
          ++dpu_lists[d];
        }
        pd.static_mark = dpu.mram_mark();
      },
      1);

  // Price the planned runs, then commit them.
  RunLengths lengths(options_.n_dpus);
  for (std::size_t d = 0; d < options_.n_dpus; ++d) {
    for (const MramRun& r : runs[d]) {
      lengths[d].push_back(r.len);
      stats.bytes_written += r.len;
    }
    stats.lists_patched += dpu_lists[d];
    stats.regions_moved += dpu_moved[d];
  }
  const pim::TransferStats xfer = scatter_charge(lengths);
  stats.seconds = xfer.seconds;
  stats.apply_seconds = xfer.apply_seconds;
  common::ThreadPool::global().parallel_for(
      0, options_.n_dpus,
      [&](std::size_t d) { write_runs(system_->dpu(d), runs[d]); }, 1);

  patch_bytes_total_ += stats.bytes_written;
  snapshot_loaded_state();

  if (metrics_) {
    metrics_->counter("mutate.patches").add(1);
    metrics_->counter("mutate.patch_bytes").add(stats.bytes_written);
    metrics_->counter("mutate.patched_lists").add(stats.lists_patched);
    metrics_->counter("mutate.regions_moved").add(stats.regions_moved);
    metrics_->histogram("mutate.patch.seconds").observe(stats.seconds);
    pim::TransferEngine::record(obs::MetricsSink(metrics_), "patch", xfer);
  }
  common::log_debug("mram-patch: ", stats.lists_patched, " lists, ",
                    stats.bytes_written, " bytes, ", stats.regions_moved,
                    " regions moved, ", stats.seconds, " s");
  return stats;
}

}  // namespace upanns::core
