// The cluster-workload model shared by placement (Algorithm 1), scheduling
// (Algorithm 2) and adaptive replication (Sec 4.1.2). Paper Sec 4.1 balances
// DPUs by the per-record work W_i = s_i * f_i; a DPU also pays a fixed cost
// for every distinct query it serves in a batch (its pushed table row, the
// S0 table DMA, the S5 merge and its gather slot), which a small cluster
// probed by most queries ("hub") concentrates on its holder. The model
// charges both:
//   W_c = f_c * (s_c * per_record + per_query).
// The default {1, 0} is the paper's per-record-only model, bit for bit;
// UpAnnsEngine derives its own at build from the cycles its kernel charges
// on a calibration launch (DESIGN.md §4).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace upanns::core {

struct WorkloadModel {
  /// Cost of scanning one record.
  double per_record = 1.0;
  /// Cost a DPU pays once per distinct query it serves in a batch.
  double per_query = 0.0;

  /// W_c of a cluster with `size` records probed at `frequency`; 0 for an
  /// empty (or masked, non-resident) cluster, which no query can reach.
  double cluster(std::size_t size, double frequency) const {
    if (size == 0) return 0.0;
    return frequency * (static_cast<double>(size) * per_record + per_query);
  }

  /// W-bar = sum_c W_c / n_dpus, summed in cluster order.
  double average(const std::vector<std::size_t>& sizes,
                 const std::vector<double>& frequencies,
                 std::size_t n_dpus) const {
    if (n_dpus == 0) return 0.0;
    double total = 0;
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      total += cluster(sizes[c], frequencies[c]);
    }
    return total / static_cast<double>(n_dpus);
  }

  /// Algorithm 1's ncpy = ceil(W_c / W-bar), at least 1 and at most `cap`.
  static std::size_t replicas(double w, double w_bar, std::size_t cap) {
    const double r = std::ceil(
        w / std::max(w_bar, std::numeric_limits<double>::min()));
    if (!(r < static_cast<double>(cap))) return std::max<std::size_t>(cap, 1);
    return std::max<std::size_t>(1, static_cast<std::size_t>(r));
  }
};

/// Algorithm 1's replica sizing, shared by placement and adaptation so both
/// ask for the same copies: a cluster gets ncpy = ceil(W_c / W-bar) under
/// `model`, at least 1 and at most `cap`.
struct ReplicaSizing {
  WorkloadModel model;
  double w_bar = 0;  ///< W-bar under `model`
  std::size_t cap = std::numeric_limits<std::size_t>::max();

  /// The target of `n_dpus` DPUs holding clusters of `sizes` probed at
  /// `frequencies`; at most one copy per DPU.
  static ReplicaSizing of(const WorkloadModel& model,
                          const std::vector<std::size_t>& sizes,
                          const std::vector<double>& frequencies,
                          std::size_t n_dpus) {
    return {model, model.average(sizes, frequencies, n_dpus), n_dpus};
  }

  std::size_t replicas(std::size_t size, double frequency) const {
    return WorkloadModel::replicas(model.cluster(size, frequency), w_bar, cap);
  }
};

}  // namespace upanns::core
