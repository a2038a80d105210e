// Cycle-level cost model of a single UPMEM DPU. The simulator runs kernels
// *functionally* (producing real search results) while this model converts
// the observed instruction and DMA traffic into cycles.
//
// Timing rules (Gómez-Luna et al. 2022; UPMEM SDK):
//  * The in-order 14-stage pipeline issues at most one instruction per cycle
//    across all tasklets; one tasklet's consecutive instructions are at
//    least max(#tasklets, 11) cycles apart (revolver dispatch). Hence with a
//    balanced load, throughput rises linearly up to 11 tasklets, then
//    flattens — exactly paper Fig 13.
//  * An MRAM DMA blocks only the issuing tasklet; concurrent DMAs from other
//    tasklets serialize on the single DMA engine.
//  * DMA latency = setup + per-byte cost, producing the Fig 7 curve.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hw_specs.hpp"

namespace upanns::pim {

/// Work observed for one tasklet during one barrier-delimited phase.
struct TaskletWork {
  std::uint64_t instructions = 0;  ///< issued instruction slots
  std::uint64_t dma_cycles = 0;    ///< cycles spent blocked on MRAM DMA
  std::uint64_t critical_instructions = 0;  ///< under a semaphore/mutex

  void clear() { *this = TaskletWork{}; }
};

/// The bound that set a phase's cycles (see DpuCostModel::phase_cycles).
enum class PhaseBound : std::uint8_t {
  kIssue,  ///< pipeline issue bandwidth: sum of instructions
  kDma,    ///< the single DMA engine: sum of DMA cycles
  kPath,   ///< one tasklet's own path: gap * instructions + DMA
};
inline constexpr std::size_t kPhaseBoundCount = 3;

/// Metric-name suffix of a bound ("issue", "dma", "path").
const char* phase_bound_name(PhaseBound bound);

class DpuCostModel {
 public:
  /// Latency in cycles of one MRAM<->WRAM DMA transfer of `bytes`.
  /// `bytes` is clamped to the hardware's [8, 2048] legal range and rounded
  /// up to a multiple of 8, mirroring what the DMA engine actually moves.
  static double mram_dma_cycles(std::size_t bytes);

  /// Legalized transfer size (8-byte aligned, within [8, 2048]).
  static std::size_t legalize_transfer(std::size_t bytes);

  /// Issue gap of the revolver pipeline for n active tasklets.
  static unsigned issue_gap(unsigned n_tasklets) {
    return n_tasklets > hw::kPipelineSaturation ? n_tasklets
                                                : hw::kPipelineSaturation;
  }

  /// Cycles for one barrier-delimited phase given per-tasklet work.
  /// Bounds combined:
  ///   issue bandwidth:  sum(instructions)
  ///   DMA engine:       sum(dma_cycles)
  ///   per-tasklet path: gap * instructions_t + dma_t
  ///   serialization:    critical sections execute one tasklet at a time.
  static std::uint64_t phase_cycles(const std::vector<TaskletWork>& work) {
    return phase_cost(work).cycles;
  }

  /// phase_cycles plus which bound set them. The gap is at least the
  /// tasklet count, so without critical sections the busiest tasklet's path
  /// is never below the issue bound and most phases report kPath;
  /// path_excess says by how much that path outlasted the shared issue and
  /// DMA bounds — the cycles a better split of the work could recover.
  struct Cost {
    std::uint64_t cycles = 0;
    PhaseBound bound = PhaseBound::kIssue;  ///< ties: issue, DMA, then path
    std::uint64_t path_excess = 0;
  };
  static Cost phase_cost(const std::vector<TaskletWork>& work);

  /// Fixed cost of a barrier crossing (wake-up + bookkeeping).
  static constexpr std::uint64_t barrier_cycles() { return 64; }

  static double cycles_to_seconds(std::uint64_t cycles) {
    return static_cast<double>(cycles) / hw::kDpuFreqHz;
  }
};

}  // namespace upanns::pim
