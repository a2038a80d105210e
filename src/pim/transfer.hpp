// Host <-> DPU transfer timing. UPMEM's host library transfers buffers to
// every DPU *concurrently* only when all buffers have identical sizes;
// otherwise it degrades to sequential per-DPU copies (paper Sec 2.2). UpANNS
// therefore pads per-DPU query/schedule buffers to a uniform size — this
// engine charges the correct cost either way so that design decision is
// visible in the numbers. Writes into the static MRAM regions (patches,
// copy adjustments, reloads) may instead stage through a padded uniform push
// and a DPU-side copy; scatter() charges whichever plan is cheaper.
#pragma once

#include <cstddef>
#include <vector>

#include "common/hw_specs.hpp"
#include "obs/metrics.hpp"

namespace upanns::pim {

struct TransferStats {
  double seconds = 0;
  std::size_t bytes = 0;
  bool parallel = false;
  /// scatter() only: the DPU-side copy of the staged plan plus its launch,
  /// already included in `seconds`; 0 whenever the direct push is charged.
  double apply_seconds = 0;
};

class TransferEngine {
 public:
  /// Time to push (or gather) the given per-DPU buffer sizes in one batch.
  /// Zero-sized entries are allowed (DPU skipped); uniformity is judged over
  /// the non-zero entries.
  static TransferStats batch(const std::vector<std::size_t>& per_dpu_bytes);

  /// Uniform-size fast path: n_dpus buffers of `bytes` each.
  static TransferStats uniform(std::size_t n_dpus, std::size_t bytes);

  /// Host writes into the static MRAM regions. `runs[d]` lists the lengths
  /// of DPU d's contiguous writes; `free_bytes[d]` is the MRAM above its
  /// static mark (same size as `runs`). Charges the cheaper of two plans,
  /// ties going to the first:
  ///  * direct: batch() of the per-DPU totals;
  ///  * staged: one padded uniform push of every DPU's packed runs into its
  ///    batch scratch, uniform(n, max_d bytes_d), then a DPU-side copy into
  ///    place: each run is split into <= 2048 B DMAs, each read
  ///    staging->WRAM and written WRAM->destination, dealt round-robin over
  ///    `n_tasklets` and charged by DpuCostModel::phase_cost; the slowest
  ///    DPU's copy plus one kernel launch is `apply_seconds`.
  /// The staged plan is eligible only if max_d bytes_d fits in every DPU's
  /// free_bytes: the padded push lands on all n DPUs. Its `bytes` are the
  /// padded n * max_d bytes_d the bus carries.
  static TransferStats scatter(
      const std::vector<std::vector<std::size_t>>& runs,
      const std::vector<std::size_t>& free_bytes, unsigned n_tasklets);

  /// Book one transfer into the registry under `direction` ("push",
  /// "gather", "patch", ...): bytes moved, seconds, and whether the
  /// uniform-size concurrent path (a staged scatter included) or the
  /// serialized fallback was taken, plus `.apply_seconds` when a staged
  /// scatter was charged. No-op when the sink is empty.
  static void record(obs::MetricsSink sink, const char* direction,
                     const TransferStats& stats);
};

}  // namespace upanns::pim
