#include "pim/transfer.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "pim/cost_model.hpp"

namespace upanns::pim {

TransferStats TransferEngine::batch(const std::vector<std::size_t>& per_dpu_bytes) {
  TransferStats out;
  std::size_t max_sz = 0;
  std::size_t nonzero = 0;
  bool uniform = true;
  std::size_t first = 0;
  for (std::size_t b : per_dpu_bytes) {
    out.bytes += b;
    if (b == 0) continue;
    if (nonzero == 0) first = b;
    uniform = uniform && (b == first);
    ++nonzero;
    max_sz = std::max(max_sz, b);
  }
  if (nonzero == 0) return out;
  out.parallel = uniform;
  if (uniform) {
    // All DPUs receive concurrently; the wire time is the aggregate bytes at
    // the parallel bandwidth (the rank-level burst is what saturates).
    out.seconds = static_cast<double>(out.bytes) / hw::kHostXferParallelBw;
  } else {
    out.seconds = static_cast<double>(out.bytes) / hw::kHostXferSerialBw;
  }
  return out;
}

TransferStats TransferEngine::uniform(std::size_t n_dpus, std::size_t bytes) {
  TransferStats out;
  out.bytes = n_dpus * bytes;
  out.parallel = true;
  if (out.bytes > 0) {
    out.seconds = static_cast<double>(out.bytes) / hw::kHostXferParallelBw;
  }
  return out;
}

TransferStats TransferEngine::scatter(
    const std::vector<std::vector<std::size_t>>& runs,
    const std::vector<std::size_t>& free_bytes, unsigned n_tasklets) {
  if (free_bytes.size() != runs.size()) {
    throw std::invalid_argument(
        "TransferEngine::scatter: " + std::to_string(runs.size()) +
        " DPUs of runs, " + std::to_string(free_bytes.size()) +
        " of free bytes");
  }
  std::vector<std::size_t> totals(runs.size(), 0);
  for (std::size_t d = 0; d < runs.size(); ++d) {
    for (std::size_t len : runs[d]) totals[d] += len;
  }
  const TransferStats direct = batch(totals);
  const std::size_t max_bytes =
      totals.empty() ? 0 : *std::max_element(totals.begin(), totals.end());
  if (max_bytes == 0) return direct;
  for (std::size_t free : free_bytes) {
    if (max_bytes > free) return direct;
  }

  // The DPU-side copy: every <= 2048 B piece of a run is one DMA into WRAM
  // and one back out, dealt round-robin over the tasklets.
  const unsigned n_t = std::max(1u, n_tasklets);
  std::vector<TaskletWork> work(n_t);
  std::uint64_t max_cycles = 0;
  for (const std::vector<std::size_t>& dpu_runs : runs) {
    if (dpu_runs.empty()) continue;
    for (TaskletWork& w : work) w.clear();
    std::size_t next = 0;
    for (std::size_t len : dpu_runs) {
      for (std::size_t done = 0; done < len;) {
        const std::size_t chunk = std::min(len - done, hw::kMramMaxTransfer);
        work[next++ % n_t].dma_cycles += 2 * static_cast<std::uint64_t>(
            DpuCostModel::mram_dma_cycles(chunk));
        done += chunk;
      }
    }
    max_cycles = std::max(max_cycles, DpuCostModel::phase_cost(work).cycles);
  }

  TransferStats staged = uniform(runs.size(), max_bytes);
  staged.apply_seconds =
      DpuCostModel::cycles_to_seconds(max_cycles) + hw::kHostLaunchLatency;
  staged.seconds += staged.apply_seconds;
  return staged.seconds < direct.seconds ? staged : direct;
}

void TransferEngine::record(obs::MetricsSink sink, const char* direction,
                            const TransferStats& stats) {
  if (!sink.enabled()) return;
  const std::string prefix = std::string("transfer.") + direction;
  sink.count(prefix + ".bytes", stats.bytes);
  sink.count(prefix + ".ops");
  sink.count(stats.parallel ? prefix + ".uniform" : prefix + ".serial");
  sink.observe(prefix + ".seconds", stats.seconds);
  if (stats.apply_seconds > 0) {
    sink.observe(prefix + ".apply_seconds", stats.apply_seconds);
  }
}

}  // namespace upanns::pim
