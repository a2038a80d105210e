// Test helper: the write runs a patch, copy adjustment or relocation must
// price, re-derived from the engine's replica layouts and MRAM bytes, and
// the pim::TransferEngine::scatter charge they imply.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "pim/transfer.hpp"

namespace upanns::core::test_support {

using RunLengths = std::vector<std::vector<std::size_t>>;

/// Every DPU's replica descriptors and static MRAM bytes.
struct MramSnapshot {
  std::vector<std::vector<DpuClusterData>> clusters;
  std::vector<std::vector<std::uint8_t>> bytes;
};

inline MramSnapshot snapshot(UpAnnsEngine& engine) {
  MramSnapshot s;
  QueryPipeline pl(engine);
  for (std::size_t d = 0; d < engine.options().n_dpus; ++d) {
    const UpAnnsEngine::PerDpu& pd = pl.per_dpu(d);
    s.clusters.push_back(pd.layout.clusters);
    const std::uint8_t* m = engine.system().dpu(d).mram_data(0);
    s.bytes.emplace_back(m, m + pd.static_mark);
  }
  return s;
}

/// One replica region: offset, capacity and the bytes the image fills.
struct Region {
  std::size_t off, cap, size;
};

/// The ids, record stream, chunk index and combo regions of a replica.
inline std::array<Region, 4> regions(const UpAnnsEngine& engine,
                                     const DpuClusterData& cd) {
  const std::size_t elem =
      kernel_mode_of(engine.options()) == KernelMode::kNaiveRaw ? 1 : 2;
  return {{{cd.ids_off, cd.ids_cap, cd.n_records * sizeof(std::uint32_t)},
           {cd.stream_off, cd.stream_cap, cd.stream_len * elem},
           {cd.chunk_index_off, cd.chunk_cap,
            cd.n_chunks * sizeof(std::uint32_t)},
           {cd.combos_off, cd.combos_cap, std::size_t{cd.n_combos} * 4}}};
}

inline const DpuClusterData* find_replica(
    const std::vector<DpuClusterData>& clusters, std::uint32_t c) {
  for (const DpuClusterData& cd : clusters) {
    if (cd.cluster_id == c) return &cd;
  }
  return nullptr;
}

/// A patch's runs: a region that moved ships whole; one patched in place
/// ships each maximal stretch of 256 B granules whose bytes changed.
inline RunLengths patch_runs(UpAnnsEngine& engine, const MramSnapshot& before) {
  constexpr std::size_t kGranule = 256;
  const MramSnapshot after = snapshot(engine);
  RunLengths runs(after.clusters.size());
  for (std::size_t d = 0; d < after.clusters.size(); ++d) {
    for (const DpuClusterData& cd : after.clusters[d]) {
      const DpuClusterData* old = find_replica(before.clusters[d], cd.cluster_id);
      EXPECT_NE(old, nullptr) << "DPU " << d << " cluster " << cd.cluster_id;
      if (old == nullptr) continue;
      const std::array<Region, 4> now = regions(engine, cd);
      const std::array<Region, 4> was = regions(engine, *old);
      for (std::size_t r = 0; r < now.size(); ++r) {
        const Region& g = now[r];
        if (g.size == 0) continue;
        if (g.off != was[r].off || g.cap != was[r].cap) {
          runs[d].push_back(g.size);
          continue;
        }
        std::size_t run = 0;
        for (std::size_t pos = 0; pos < g.size; pos += kGranule) {
          const std::size_t len = std::min(kGranule, g.size - pos);
          if (std::memcmp(&before.bytes[d][g.off + pos],
                          &after.bytes[d][g.off + pos], len) != 0) {
            run += len;
            continue;
          }
          if (run > 0) runs[d].push_back(run);
          run = 0;
        }
        if (run > 0) runs[d].push_back(run);
      }
    }
  }
  return runs;
}

/// The runs of every replica present now but not in `before` (all of them
/// for a relocation, with an empty `before`): each non-empty region whole.
inline RunLengths load_runs(UpAnnsEngine& engine, const MramSnapshot& before) {
  const MramSnapshot after = snapshot(engine);
  RunLengths runs(after.clusters.size());
  for (std::size_t d = 0; d < after.clusters.size(); ++d) {
    for (const DpuClusterData& cd : after.clusters[d]) {
      if (d < before.clusters.size() &&
          find_replica(before.clusters[d], cd.cluster_id) != nullptr) {
        continue;
      }
      for (const Region& g : regions(engine, cd)) {
        if (g.size > 0) runs[d].push_back(g.size);
      }
    }
  }
  return runs;
}

/// The planner's charge for `runs`, staging above each DPU's static mark.
inline pim::TransferStats scatter_charge(UpAnnsEngine& engine,
                                         const RunLengths& runs) {
  QueryPipeline pl(engine);
  std::vector<std::size_t> free_bytes;
  for (std::size_t d = 0; d < engine.options().n_dpus; ++d) {
    free_bytes.push_back(hw::kMramBytes - pl.per_dpu(d).static_mark);
  }
  return pim::TransferEngine::scatter(runs, free_bytes,
                                      engine.options().n_tasklets);
}

/// The direct batch() charge of the same runs.
inline pim::TransferStats direct_charge(const RunLengths& runs) {
  std::vector<std::size_t> totals;
  for (const std::vector<std::size_t>& r : runs) {
    std::size_t t = 0;
    for (std::size_t len : r) t += len;
    totals.push_back(t);
  }
  return pim::TransferEngine::batch(totals);
}

}  // namespace upanns::core::test_support
