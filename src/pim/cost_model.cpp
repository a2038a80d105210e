#include "pim/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace upanns::pim {

std::size_t DpuCostModel::legalize_transfer(std::size_t bytes) {
  bytes = std::clamp(bytes, hw::kMramMinTransfer, hw::kMramMaxTransfer);
  return (bytes + 7) / 8 * 8;
}

double DpuCostModel::mram_dma_cycles(std::size_t bytes) {
  const std::size_t legal = legalize_transfer(bytes);
  return hw::kMramSetupCycles +
         hw::kMramCyclesPerByte * static_cast<double>(legal);
}

const char* phase_bound_name(PhaseBound bound) {
  switch (bound) {
    case PhaseBound::kIssue: return "issue";
    case PhaseBound::kDma: return "dma";
    case PhaseBound::kPath: return "path";
  }
  return "issue";
}

DpuCostModel::Cost DpuCostModel::phase_cost(
    const std::vector<TaskletWork>& work) {
  Cost cost;
  if (work.empty()) return cost;
  const unsigned gap = issue_gap(static_cast<unsigned>(work.size()));

  std::uint64_t sum_instr = 0;
  std::uint64_t sum_dma = 0;
  std::uint64_t sum_crit = 0;
  std::uint64_t max_path = 0;
  for (const TaskletWork& w : work) {
    sum_instr += w.instructions + w.critical_instructions;
    sum_dma += w.dma_cycles;
    sum_crit += w.critical_instructions;
    const std::uint64_t path =
        static_cast<std::uint64_t>(gap) * w.instructions + w.dma_cycles;
    max_path = std::max(max_path, path);
  }
  // Critical sections execute with at most one tasklet making progress, so
  // they add on top of the parallel portion at the saturated issue gap.
  const std::uint64_t crit_serial =
      sum_crit * static_cast<std::uint64_t>(hw::kPipelineSaturation);
  const std::uint64_t shared = std::max(sum_instr, sum_dma);
  cost.cycles = std::max(shared, max_path) + crit_serial;
  cost.bound = sum_instr >= sum_dma && sum_instr >= max_path ? PhaseBound::kIssue
               : sum_dma >= max_path                         ? PhaseBound::kDma
                                                             : PhaseBound::kPath;
  cost.path_excess = max_path > shared ? max_path - shared : 0;
  return cost;
}

}  // namespace upanns::pim
