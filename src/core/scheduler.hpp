// Opt1 (online half): greedy query scheduling — paper Algorithm 2.
// Given each query's filtered clusters and the cluster->DPU replica map,
// assign every (query, cluster) pair to a DPU such that per-DPU workload
// stays balanced: single-replica clusters are forced assignments;
// multi-replica clusters are processed largest-first onto the least-loaded
// replica holder. An assignment costs its cluster's records under the
// WorkloadModel, plus per_query the first time its query lands on the DPU.
// Runs on the host in O(|Q| * nprobe).
#pragma once

#include <cstdint>
#include <vector>

#include "core/placement.hpp"
#include "obs/metrics.hpp"

namespace upanns::core {

/// One unit of DPU work: scan cluster `cluster` for query `query`.
struct Assignment {
  std::uint32_t query;
  std::uint32_t cluster;
};

struct Schedule {
  /// dpu -> assignments, in issue order.
  std::vector<std::vector<Assignment>> per_dpu;
  /// dpu -> scheduled workload, the W[] of Alg 2: per_record per scanned
  /// record plus per_query per distinct query (the default model: the sum
  /// of cluster sizes).
  std::vector<double> dpu_workload;

  std::size_t n_dpus() const { return per_dpu.size(); }
  /// max/mean of per-DPU workload — the Fig 11 balance metric.
  double balance_ratio() const;
  std::size_t total_assignments() const;
};

/// Paper Algorithm 2. When a sink is given, books how many assignments were
/// forced (single-replica) vs load-balanced (replica choice) and the
/// resulting balance ratio — the signal the Sec 4.1.2 drift controller
/// watches for replication pressure.
Schedule schedule_queries(const std::vector<std::vector<std::uint32_t>>& probes,
                          const Placement& placement,
                          const std::vector<std::size_t>& cluster_sizes,
                          const WorkloadModel& model = {},
                          obs::MetricsSink sink = {});

/// Naive baseline: every cluster goes to its first (only) replica with no
/// load balancing — what PIM-naive does.
Schedule schedule_naive(const std::vector<std::vector<std::uint32_t>>& probes,
                        const Placement& placement,
                        const std::vector<std::size_t>& cluster_sizes,
                        obs::MetricsSink sink = {});

}  // namespace upanns::core
