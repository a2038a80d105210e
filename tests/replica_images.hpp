// Test helper: the MRAM bytes of every resident replica of an engine, keyed
// by cluster, for comparing a mutated, adapted or relocated engine against
// a fresh load.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/engine.hpp"
#include "core/pipeline.hpp"

namespace upanns::core::test_support {

/// Per cluster: its record count, tombstone count, then the id array, the
/// record stream (norm terms in its headers), the chunk index and the combo
/// table, as the DPU holds them. Checks that all replicas of a cluster on
/// this engine are byte-identical.
inline std::map<std::uint32_t, std::vector<std::uint8_t>> replica_images(
    UpAnnsEngine& engine) {
  std::map<std::uint32_t, std::vector<std::uint8_t>> out;
  QueryPipeline pl(engine);
  const std::size_t elem =
      kernel_mode_of(engine.options()) == KernelMode::kNaiveRaw ? 1 : 2;
  for (std::size_t d = 0; d < engine.options().n_dpus; ++d) {
    const pim::Dpu& dpu = engine.system().dpu(d);
    for (const DpuClusterData& cd : pl.per_dpu(d).layout.clusters) {
      std::vector<std::uint8_t> image;
      const auto append = [&](const void* p, std::size_t n) {
        const auto* b = static_cast<const std::uint8_t*>(p);
        image.insert(image.end(), b, b + n);
      };
      append(&cd.n_records, sizeof(cd.n_records));
      append(&cd.n_tombstones, sizeof(cd.n_tombstones));
      append(dpu.mram_data(cd.ids_off), cd.n_records * sizeof(std::uint32_t));
      append(dpu.mram_data(cd.stream_off), cd.stream_len * elem);
      append(dpu.mram_data(cd.chunk_index_off),
             cd.n_chunks * sizeof(std::uint32_t));
      append(dpu.mram_data(cd.combos_off), cd.n_combos * 4);
      const auto [it, fresh] = out.emplace(cd.cluster_id, image);
      EXPECT_TRUE(fresh || it->second == image) << "cluster " << cd.cluster_id;
    }
  }
  return out;
}

}  // namespace upanns::core::test_support
