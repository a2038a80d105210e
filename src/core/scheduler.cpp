#include "core/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "common/stats.hpp"

namespace upanns::core {

double Schedule::balance_ratio() const {
  return common::max_over_mean(dpu_workload);
}

std::size_t Schedule::total_assignments() const {
  std::size_t t = 0;
  for (const auto& a : per_dpu) t += a.size();
  return t;
}

Schedule schedule_queries(const std::vector<std::vector<std::uint32_t>>& probes,
                          const Placement& placement,
                          const std::vector<std::size_t>& cluster_sizes,
                          const WorkloadModel& model, obs::MetricsSink sink) {
  const std::size_t ndpu = placement.n_dpus();
  Schedule out;
  out.per_dpu.resize(ndpu);
  out.dpu_workload.assign(ndpu, 0.0);

  // served[q * ndpu + d]: query q already lands on DPU d, so a further
  // assignment there adds no per-query cost. Unused by the per-record-only
  // model, which skips the bookkeeping.
  const bool per_query = model.per_query != 0.0;
  std::vector<bool> served(per_query ? probes.size() * ndpu : 0, false);
  const auto cost = [&](std::uint32_t q, std::uint32_t c, std::uint32_t d) {
    double w = static_cast<double>(cluster_sizes[c]) * model.per_record;
    if (per_query && !served[static_cast<std::size_t>(q) * ndpu + d]) {
      w += model.per_query;
    }
    return w;
  };
  const auto assign = [&](std::uint32_t q, std::uint32_t c, std::uint32_t d,
                          double w) {
    out.per_dpu[d].push_back({q, c});
    out.dpu_workload[d] += w;
    if (per_query) served[static_cast<std::size_t>(q) * ndpu + d] = true;
  };

  // Pass 1 (Alg 2 lines 2-7): forced assignments for single-replica
  // clusters; collect the rest as (cluster, query) work items.
  struct Pending {
    std::uint32_t cluster;
    std::uint32_t query;
  };
  std::vector<Pending> pending;
  for (std::size_t qi = 0; qi < probes.size(); ++qi) {
    const auto q = static_cast<std::uint32_t>(qi);
    for (std::uint32_t c : probes[qi]) {
      const auto& dpus = placement.cluster_dpus[c];
      if (dpus.empty()) continue;  // empty cluster: nothing to scan
      if (dpus.size() == 1) {
        assign(q, c, dpus[0], cost(q, c, dpus[0]));
      } else {
        pending.push_back({c, q});
      }
    }
  }

  // Pass 2 (lines 8-14): replicated clusters, largest first, each to the
  // holder it loads least — a holder already serving the query skips the
  // per-query cost. stable_sort keeps query order deterministic.
  std::stable_sort(pending.begin(), pending.end(),
                   [&](const Pending& a, const Pending& b) {
                     return cluster_sizes[a.cluster] > cluster_sizes[b.cluster];
                   });
  for (const Pending& p : pending) {
    const auto& dpus = placement.cluster_dpus[p.cluster];
    std::uint32_t best = dpus[0];
    double best_w = std::numeric_limits<double>::infinity();
    double best_cost = 0;
    for (std::uint32_t d : dpus) {
      const double w = cost(p.query, p.cluster, d);
      if (out.dpu_workload[d] + w < best_w) {
        best_w = out.dpu_workload[d] + w;
        best_cost = w;
        best = d;
      }
    }
    assign(p.query, p.cluster, best, best_cost);
  }

  // Group each DPU's assignments by query so thread-local heaps carry across
  // the clusters of one query before merging (paper Sec 4.2.1).
  for (auto& list : out.per_dpu) {
    std::stable_sort(list.begin(), list.end(),
                     [](const Assignment& a, const Assignment& b) {
                       return a.query < b.query;
                     });
  }
  if (sink.enabled()) {
    const std::size_t total = out.total_assignments();
    sink.count("schedule.assignments", total);
    sink.count("schedule.assignments.balanced", pending.size());
    sink.count("schedule.assignments.forced", total - pending.size());
    sink.set("schedule.balance_ratio", out.balance_ratio());
  }
  return out;
}

Schedule schedule_naive(const std::vector<std::vector<std::uint32_t>>& probes,
                        const Placement& placement,
                        const std::vector<std::size_t>& cluster_sizes,
                        obs::MetricsSink sink) {
  const std::size_t ndpu = placement.n_dpus();
  Schedule out;
  out.per_dpu.resize(ndpu);
  out.dpu_workload.assign(ndpu, 0.0);
  for (std::size_t q = 0; q < probes.size(); ++q) {
    for (std::uint32_t c : probes[q]) {
      const auto& dpus = placement.cluster_dpus[c];
      if (dpus.empty()) continue;
      out.per_dpu[dpus[0]].push_back({static_cast<std::uint32_t>(q), c});
      out.dpu_workload[dpus[0]] += static_cast<double>(cluster_sizes[c]);
    }
  }
  for (auto& list : out.per_dpu) {
    std::stable_sort(list.begin(), list.end(),
                     [](const Assignment& a, const Assignment& b) {
                       return a.query < b.query;
                     });
  }
  if (sink.enabled()) {
    const std::size_t total = out.total_assignments();
    sink.count("schedule.assignments", total);
    sink.count("schedule.assignments.forced", total);
    sink.set("schedule.balance_ratio", out.balance_ratio());
  }
  return out;
}

}  // namespace upanns::core
