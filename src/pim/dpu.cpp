#include "pim/dpu.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace upanns::pim {

void TaskletCtx::charge_dma(std::size_t bytes) {
  std::size_t done = 0;
  while (done < bytes) {
    const std::size_t chunk = std::min(bytes - done, hw::kMramMaxTransfer);
    work_.dma_cycles += static_cast<std::uint64_t>(
        DpuCostModel::mram_dma_cycles(chunk));
    done += chunk;
  }
}

void TaskletCtx::mram_read(std::size_t mram_off, void* dst, std::size_t bytes) {
  charge_dma(bytes);
  dpu_->host_read(mram_off, dst, bytes);
}

const std::uint8_t* TaskletCtx::mram_view(std::size_t mram_off,
                                          std::size_t bytes) {
  // Same per-chunk DMA charge as mram_read — a view still stages through
  // WRAM on real hardware; only the simulator's memcpy is elided.
  assert(mram_off + bytes <= dpu_->mram_mark());
  charge_dma(bytes);
  return dpu_->mram_data(mram_off);
}

const std::uint8_t* TaskletCtx::mirror_view(std::size_t off,
                                            std::size_t bytes) {
  charge_dma(bytes);
  return dpu_->mirror_data(off, bytes);
}

void TaskletCtx::mram_write(std::size_t mram_off, const void* src,
                            std::size_t bytes) {
  charge_dma(bytes);
  dpu_->host_write(mram_off, src, bytes);
}

std::size_t Dpu::mram_alloc(std::size_t bytes, const char* tag) {
  const std::size_t aligned = (bytes + 7) / 8 * 8;
  if (mram_used() + aligned > hw::kMramBytes) {
    throw std::runtime_error("MRAM overflow on DPU " + std::to_string(id_) +
                             " allocating " + std::to_string(bytes) +
                             " bytes for '" + tag + "'");
  }
  const std::size_t off = mram_.size();
  mram_.resize(mram_.size() + aligned);
  return off;
}

void Dpu::mram_rewind(std::size_t mark) {
  if (mark > mram_.size()) {
    throw std::logic_error("Dpu::mram_rewind past current size");
  }
  mram_.resize(mark);
  if (mirror_.bytes > 0 && mark <= mirror_.mark) mirror_ = Mirror{};
  // Free regions in the discarded tail no longer exist; truncate any that
  // straddle the mark.
  while (!free_regions_.empty()) {
    FreeRegion& last = free_regions_.back();
    if (last.off >= mark) {
      free_regions_.pop_back();
    } else if (last.off + last.bytes > mark) {
      last.bytes = mark - last.off;
      break;
    } else {
      break;
    }
  }
}

std::size_t Dpu::mram_alloc_reuse(std::size_t bytes, const char* tag) {
  const std::size_t aligned = (bytes + 7) / 8 * 8;
  for (std::size_t i = 0; i < free_regions_.size(); ++i) {
    FreeRegion& r = free_regions_[i];
    if (r.bytes < aligned) continue;
    const std::size_t off = r.off;
    if (r.bytes == aligned) {
      free_regions_.erase(free_regions_.begin() +
                          static_cast<std::ptrdiff_t>(i));
    } else {
      r.off += aligned;
      r.bytes -= aligned;
    }
    return off;
  }
  return mram_alloc(bytes, tag);
}

void Dpu::mram_release(std::size_t off, std::size_t bytes) {
  const std::size_t aligned = (bytes + 7) / 8 * 8;
  if (aligned == 0) return;
  if (off + aligned > mram_.size()) {
    throw std::logic_error("Dpu::mram_release outside allocated MRAM");
  }
  // Insert sorted by offset, coalescing with adjacent free neighbors.
  auto it = std::lower_bound(
      free_regions_.begin(), free_regions_.end(), off,
      [](const FreeRegion& r, std::size_t o) { return r.off < o; });
  it = free_regions_.insert(it, {off, aligned});
  if (it + 1 != free_regions_.end() && it->off + it->bytes == (it + 1)->off) {
    it->bytes += (it + 1)->bytes;
    it = free_regions_.erase(it + 1) - 1;
  }
  if (it != free_regions_.begin() &&
      (it - 1)->off + (it - 1)->bytes == it->off) {
    (it - 1)->bytes += it->bytes;
    free_regions_.erase(it);
  }
}

std::size_t Dpu::mram_released_bytes() const {
  std::size_t total = 0;
  for (const FreeRegion& r : free_regions_) total += r.bytes;
  return total;
}

void Dpu::mram_mirror(const void* host, const std::uint32_t* rows,
                      std::size_t n_rows, std::size_t row_bytes,
                      const char* tag) {
  if (mirror_.bytes > 0) {
    throw std::logic_error("Dpu::mram_mirror: a mirror is already mapped");
  }
  const std::size_t aligned = (n_rows * row_bytes + 7) / 8 * 8;
  if (mram_used() + aligned > hw::kMramBytes) {
    throw std::runtime_error("MRAM overflow on DPU " + std::to_string(id_) +
                             " mirroring " + std::to_string(n_rows * row_bytes) +
                             " bytes for '" + tag + "'");
  }
  mirror_ = {static_cast<const std::uint8_t*>(host), rows, n_rows, row_bytes,
             aligned, mram_.size()};
}

const std::uint8_t* Dpu::mirror_data(std::size_t off, std::size_t bytes) const {
  assert(mirror_.bytes > 0);
  const std::size_t row = off / mirror_.row_bytes;
  const std::size_t within = off % mirror_.row_bytes;
  assert(row < mirror_.n_rows && within + bytes <= mirror_.row_bytes);
  (void)bytes;
  return mirror_.host + mirror_.rows[row] * mirror_.row_bytes + within;
}

void Dpu::host_write(std::size_t off, const void* src, std::size_t bytes) {
  assert(off + bytes <= mram_.size());
  std::memcpy(mram_.data() + off, src, bytes);
}

void Dpu::host_read(std::size_t off, void* dst, std::size_t bytes) const {
  assert(off + bytes <= mram_.size());
  std::memcpy(dst, mram_.data() + off, bytes);
}

DpuRunStats Dpu::run(DpuKernel& kernel, unsigned n_tasklets) {
  n_tasklets = std::clamp(n_tasklets, 1u, hw::kMaxTasklets);
  kernel.setup(*this, n_tasklets);

  // Launch-object reuse: the per-tasklet contexts and work records persist
  // across run() calls and are rebuilt only when the tasklet count changes.
  if (run_ctxs_.size() != n_tasklets) {
    run_ctxs_.clear();
    run_ctxs_.reserve(n_tasklets);
    for (unsigned t = 0; t < n_tasklets; ++t) {
      run_ctxs_.emplace_back(*this, t, n_tasklets);
    }
    run_works_.assign(n_tasklets, TaskletWork{});
  }

  DpuRunStats stats;
  const unsigned phases = kernel.n_phases();
  stats.phase_cycles.reserve(phases);
  for (unsigned p = 0; p < phases; ++p) {
    for (unsigned t = 0; t < n_tasklets; ++t) {
      run_ctxs_[t].reset_work();
      kernel.run_phase(p, run_ctxs_[t]);
      run_works_[t] = run_ctxs_[t].work();
      stats.instructions += run_works_[t].instructions +
                            run_works_[t].critical_instructions;
      stats.dma_cycles += run_works_[t].dma_cycles;
    }
    const DpuCostModel::Cost cost = DpuCostModel::phase_cost(run_works_);
    const std::uint64_t pc = cost.cycles + DpuCostModel::barrier_cycles();
    stats.phase_cycles.push_back(pc);
    stats.bound_cycles[static_cast<std::size_t>(cost.bound)] += pc;
    stats.path_excess_cycles += cost.path_excess;
    stats.cycles += pc;
  }
  busy_cycles_ += stats.cycles;
  return stats;
}

PimSystem::PimSystem(std::size_t n_dpus) {
  dpus_.reserve(n_dpus);
  for (std::size_t i = 0; i < n_dpus; ++i) {
    dpus_.emplace_back(static_cast<std::uint32_t>(i));
  }
}

PimSystem::LaunchStats PimSystem::launch(
    const std::function<DpuKernel*(std::size_t)>& kernel_for,
    unsigned n_tasklets) {
  LaunchStats out;
  out.dpu_seconds.assign(dpus_.size(), 0.0);
  out.dpu_stats.assign(dpus_.size(), DpuRunStats{});

  // Chunked dispatch sized to the pool (~4 chunks per worker for dynamic
  // balance): one type-erased task per chunk instead of a grain-1 dispatch,
  // and idle DPUs are skipped inside the chunk without a dispatch round trip.
  common::ThreadPool& pool = common::ThreadPool::global();
  const std::size_t grain =
      std::max<std::size_t>(1, dpus_.size() / (pool.size() * 4));
  pool.parallel_for_chunks(
      0, dpus_.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          DpuKernel* kernel = kernel_for(i);
          if (!kernel) continue;
          out.dpu_stats[i] = dpus_[i].run(*kernel, n_tasklets);
          out.dpu_seconds[i] = out.dpu_stats[i].seconds();
        }
      },
      grain);

  for (std::size_t i = 0; i < out.dpu_stats.size(); ++i) {
    if (out.dpu_stats[i].cycles > out.max_cycles) {
      out.max_cycles = out.dpu_stats[i].cycles;
      out.slowest_dpu = i;
    }
  }
  out.seconds =
      DpuCostModel::cycles_to_seconds(out.max_cycles) + hw::kHostLaunchLatency;

  if (metrics_) {
    // Aggregate locally first so the registry lock is taken once per
    // instrument, not once per DPU.
    obs::Histogram& busy = metrics_->histogram("pim.dpu.busy_seconds");
    std::size_t active = 0;
    std::uint64_t instructions = 0, dma_cycles = 0;
    std::array<std::uint64_t, kPhaseBoundCount> bound_cycles{};
    std::uint64_t path_excess = 0;
    std::vector<std::uint64_t> phase_cycles;
    for (std::size_t i = 0; i < out.dpu_stats.size(); ++i) {
      const DpuRunStats& st = out.dpu_stats[i];
      if (st.cycles == 0 && st.phase_cycles.empty()) continue;
      ++active;
      busy.observe(out.dpu_seconds[i]);
      instructions += st.instructions;
      dma_cycles += st.dma_cycles;
      for (std::size_t b = 0; b < kPhaseBoundCount; ++b) {
        bound_cycles[b] += st.bound_cycles[b];
      }
      path_excess += st.path_excess_cycles;
      if (phase_cycles.size() < st.phase_cycles.size()) {
        phase_cycles.resize(st.phase_cycles.size(), 0);
      }
      for (std::size_t p = 0; p < st.phase_cycles.size(); ++p) {
        phase_cycles[p] += st.phase_cycles[p];
      }
    }
    metrics_->counter("pim.launches").add(1);
    metrics_->counter("pim.launch.active_dpus").add(active);
    metrics_->counter("pim.launch.instructions").add(instructions);
    metrics_->counter("pim.launch.dma_cycles").add(dma_cycles);
    for (std::size_t p = 0; p < phase_cycles.size(); ++p) {
      metrics_->counter("pim.launch.phase_cycles." + std::to_string(p))
          .add(phase_cycles[p]);
    }
    for (std::size_t b = 0; b < kPhaseBoundCount; ++b) {
      metrics_
          ->counter(std::string("pim.launch.bound_cycles.") +
                    phase_bound_name(static_cast<PhaseBound>(b)))
          .add(bound_cycles[b]);
    }
    metrics_->counter("pim.launch.path_excess_cycles").add(path_excess);
    metrics_->gauge("pim.launch.tasklets").set(static_cast<double>(
        std::clamp(n_tasklets, 1u, hw::kMaxTasklets)));
    metrics_->gauge("pim.launch.tasklet_occupancy")
        .set(static_cast<double>(std::clamp(n_tasklets, 1u, hw::kMaxTasklets)) /
             static_cast<double>(hw::kMaxTasklets));
    metrics_->histogram("pim.launch.seconds").observe(out.seconds);
  }
  return out;
}

}  // namespace upanns::pim
