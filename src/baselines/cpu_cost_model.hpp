// Roofline cost model of Faiss-style IVFPQ on the Table 1 CPU platform
// (2x Xeon Silver 4110, 85.3 GB/s). Each stage is charged
// max(compute-bound, memory-bound) time; the batch parallelizes across all
// cores so aggregate flop and bandwidth figures apply directly.
//
// The model reproduces the paper's two headline CPU observations without any
// per-figure tuning: at million scale the LUT-construction stage dominates
// (compute-bound), while at billion scale the distance-calculation stage is
// memory-bandwidth-bound and takes ~99.5% of query time (Fig 1, Fig 19).
#pragma once

#include "baselines/stage_times.hpp"

namespace upanns::baselines {

class CpuCostModel {
 public:
  static StageTimes stage_times(const QueryWorkProfile& p);

  /// One precomputed IVF-PQ query table per query (-2<q_s, y_sj> for every
  /// subspace s and codeword j): 256 x dim multiply-adds, written as
  /// m x 256 floats. Unlike stage (b) this is per query, not per probe.
  static double query_table_seconds(const QueryWorkProfile& p);

  /// Bytes streamed from memory during the distance-calculation stage:
  /// every scanned candidate reads its m code bytes plus its id.
  static std::size_t scan_bytes(const QueryWorkProfile& p);
};

}  // namespace upanns::baselines
