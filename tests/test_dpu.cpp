#include "pim/dpu.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "obs/metrics.hpp"

namespace upanns::pim {
namespace {

TEST(Dpu, MramAllocAlignsAndTracks) {
  Dpu dpu(3);
  EXPECT_EQ(dpu.id(), 3u);
  const auto a = dpu.mram_alloc(10, "a");
  const auto b = dpu.mram_alloc(8, "b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 16u);
  EXPECT_EQ(dpu.mram_used(), 24u);
}

TEST(Dpu, MramCapacityEnforced) {
  Dpu dpu;
  dpu.mram_alloc(hw::kMramBytes - 64, "bulk");
  EXPECT_THROW(dpu.mram_alloc(128, "over"), std::runtime_error);
}

TEST(Dpu, HostReadWriteRoundTrip) {
  Dpu dpu;
  const auto off = dpu.mram_alloc(32, "buf");
  std::vector<std::uint8_t> in(32);
  std::iota(in.begin(), in.end(), 0);
  dpu.host_write(off, in.data(), in.size());
  std::vector<std::uint8_t> out(32);
  dpu.host_read(off, out.data(), out.size());
  EXPECT_EQ(in, out);
}

TEST(Dpu, MramMarkRewind) {
  Dpu dpu;
  dpu.mram_alloc(64, "static");
  const auto mark = dpu.mram_mark();
  dpu.mram_alloc(128, "scratch");
  EXPECT_EQ(dpu.mram_used(), 192u);
  dpu.mram_rewind(mark);
  EXPECT_EQ(dpu.mram_used(), 64u);
  EXPECT_THROW(dpu.mram_rewind(mark + 8), std::logic_error);
}

TEST(Dpu, MirrorCountsCapacityResolvesRowsAndRewindsWithScratch) {
  Dpu dpu;
  dpu.mram_alloc(64, "static");
  const auto mark = dpu.mram_mark();
  std::vector<float> host(4 * 16);  // four 64-byte host rows
  std::iota(host.begin(), host.end(), 0.f);
  const std::uint32_t rows[] = {2, 0};
  dpu.mram_mirror(host.data(), rows, 2, 16 * sizeof(float), "tables");
  EXPECT_EQ(dpu.mirror_bytes(), 128u);
  EXPECT_EQ(dpu.mram_used(), 192u);
  EXPECT_EQ(dpu.mram_free(), hw::kMramBytes - 192u);
  EXPECT_EQ(dpu.mram_mark(), 64u);  // nothing is stored per DPU
  // Mirror row 0 is host row 2, row 1 is host row 0.
  EXPECT_EQ(dpu.mirror_data(0, 64),
            reinterpret_cast<const std::uint8_t*>(host.data() + 32));
  EXPECT_EQ(dpu.mirror_data(64 + 8, 8),
            reinterpret_cast<const std::uint8_t*>(host.data() + 2));
  EXPECT_THROW(dpu.mram_mirror(host.data(), rows, 1, 64, "again"),
               std::logic_error);
  // Batch scratch allocated after the mirror rewinds together with it.
  dpu.mram_alloc(32, "results");
  EXPECT_EQ(dpu.mram_used(), 224u);
  dpu.mram_rewind(mark);
  EXPECT_EQ(dpu.mirror_bytes(), 0u);
  EXPECT_EQ(dpu.mram_used(), 64u);
  dpu.mram_mirror(host.data(), rows, 1, 64, "next-batch");
  EXPECT_EQ(dpu.mram_used(), 128u);
}

TEST(Dpu, MirrorOverflowThrowsAndLeavesDpuUntouched) {
  Dpu dpu;
  const auto bulk = dpu.mram_alloc(hw::kMramBytes - 1024, "bulk");
  const std::uint8_t probe = 0x5a;
  dpu.host_write(bulk, &probe, 1);
  std::vector<std::uint8_t> host(2048, 1);
  const std::uint32_t rows[] = {0, 1};
  EXPECT_THROW(dpu.mram_mirror(host.data(), rows, 2, 1024, "tables"),
               std::runtime_error);
  EXPECT_EQ(dpu.mirror_bytes(), 0u);
  EXPECT_EQ(dpu.mram_used(), hw::kMramBytes - 1024);
  EXPECT_EQ(dpu.mram_mark(), hw::kMramBytes - 1024);
  EXPECT_EQ(*dpu.mram_data(bulk), probe);
  // A mirror that fits takes the rest, and allocations then overflow.
  dpu.mram_mirror(host.data(), rows, 1, 1024, "tables");
  EXPECT_EQ(dpu.mram_free(), 0u);
  EXPECT_THROW(dpu.mram_alloc(8, "over"), std::runtime_error);
}

TEST(Dpu, MirrorViewChargesTheMramViewChunking) {
  Dpu dpu;
  const auto off = dpu.mram_alloc(4096, "region");
  std::vector<std::uint8_t> host(2 * 4096);
  std::iota(host.begin(), host.end(), 0);
  const std::uint32_t rows[] = {1};
  dpu.mram_mirror(host.data(), rows, 1, 4096, "tables");
  for (const std::size_t bytes : {8u, 2048u, 3000u, 4096u}) {
    TaskletCtx mram(dpu, 0, 1);
    TaskletCtx mirror(dpu, 0, 1);
    mram.mram_view(off, bytes);
    const std::uint8_t* p = mirror.mirror_view(0, bytes);
    EXPECT_EQ(mirror.work().dma_cycles, mram.work().dma_cycles) << bytes;
    EXPECT_EQ(p, host.data() + 4096);
  }
}

// A trivial two-phase kernel: phase 0 copies MRAM->WRAM per tasklet, phase 1
// charges fixed instructions.
class CopyKernel : public DpuKernel {
 public:
  explicit CopyKernel(std::size_t src_off) : src_off_(src_off) {}
  unsigned n_phases() const override { return 2; }
  void run_phase(unsigned phase, TaskletCtx& ctx) override {
    if (phase == 0) {
      std::uint8_t buf[64];
      ctx.mram_read(src_off_ + ctx.id() * 64, buf, 64);
      sum_ += buf[0];
      ctx.instr(10);
    } else {
      ctx.instr(100);
    }
  }
  int sum_ = 0;

 private:
  std::size_t src_off_;
};

TEST(Dpu, RunAccountsPhasesAndBarriers) {
  Dpu dpu;
  const auto off = dpu.mram_alloc(64 * 4, "src");
  std::vector<std::uint8_t> data(64 * 4, 7);
  dpu.host_write(off, data.data(), data.size());

  CopyKernel k(off);
  const DpuRunStats stats = dpu.run(k, 4);
  EXPECT_EQ(stats.phase_cycles.size(), 2u);
  EXPECT_EQ(k.sum_, 4 * 7);
  EXPECT_EQ(stats.instructions, 4u * 10 + 4u * 100);
  EXPECT_GT(stats.dma_cycles, 0u);
  // Total includes both phases plus two barrier crossings.
  EXPECT_EQ(stats.cycles,
            stats.phase_cycles[0] + stats.phase_cycles[1]);
  EXPECT_GE(stats.phase_cycles[1], 100u * 4 + DpuCostModel::barrier_cycles());
  EXPECT_EQ(dpu.busy_cycles(), stats.cycles);
}

TEST(Dpu, TaskletCountClamped) {
  Dpu dpu;
  dpu.mram_alloc(64 * hw::kMaxTasklets, "src");
  CopyKernel k(0);
  dpu.run(k, 100);  // clamps to 24
  EXPECT_EQ(k.sum_, static_cast<int>(hw::kMaxTasklets) * 0);
}

TEST(TaskletCtx, LargeReadSplitsIntoLegalChunks) {
  Dpu dpu;
  const std::size_t big = 5000;  // > 2048 DMA limit
  const auto off = dpu.mram_alloc(big, "big");
  std::vector<std::uint8_t> in(big);
  std::iota(in.begin(), in.end(), 0);
  dpu.host_write(off, in.data(), big);

  class BigReader : public DpuKernel {
   public:
    explicit BigReader(std::size_t off, std::size_t n) : off_(off), buf_(n) {}
    unsigned n_phases() const override { return 1; }
    void run_phase(unsigned, TaskletCtx& ctx) override {
      if (ctx.id() == 0) ctx.mram_read(off_, buf_.data(), buf_.size());
    }
    std::size_t off_;
    std::vector<std::uint8_t> buf_;
  } k(off, big);

  const auto stats = dpu.run(k, 1);
  EXPECT_EQ(k.buf_, in);
  // 3 DMA transfers: 2048 + 2048 + 904.
  const double expected = DpuCostModel::mram_dma_cycles(2048) * 2 +
                          DpuCostModel::mram_dma_cycles(904);
  EXPECT_NEAR(static_cast<double>(stats.dma_cycles), expected, 1.0);
}

TEST(PimSystem, TopologyCounts) {
  PimSystem sys(896);
  EXPECT_EQ(sys.n_dpus(), 896u);
  EXPECT_EQ(sys.n_dimms(), 7u);
  PimSystem small(100);
  EXPECT_EQ(small.n_dimms(), 1u);
}

TEST(PimSystem, LaunchTakesMaxOverDpus) {
  PimSystem sys(4);
  // Give DPU 2 ten times the work.
  class WorkKernel : public DpuKernel {
   public:
    explicit WorkKernel(std::uint64_t n) : n_(n) {}
    unsigned n_phases() const override { return 1; }
    void run_phase(unsigned, TaskletCtx& ctx) override { ctx.instr(n_); }
    std::uint64_t n_;
  };
  std::vector<std::unique_ptr<WorkKernel>> kernels;
  for (int i = 0; i < 4; ++i) {
    kernels.push_back(std::make_unique<WorkKernel>(i == 2 ? 100000 : 10000));
  }
  const auto stats = sys.launch(
      [&](std::size_t i) -> DpuKernel* { return kernels[i].get(); }, 11);
  EXPECT_EQ(stats.slowest_dpu, 2u);
  EXPECT_GT(stats.dpu_seconds[2], stats.dpu_seconds[0]);
  EXPECT_GE(stats.seconds,
            DpuCostModel::cycles_to_seconds(stats.max_cycles));
}

TEST(PimSystem, BoundCyclesBookedOnlyWithMetrics) {
  // Phase 0 is balanced (issue-bound at 11 tasklets), phase 1 has one
  // straggler (path-bound).
  class TwoPhase : public DpuKernel {
   public:
    unsigned n_phases() const override { return 2; }
    void run_phase(unsigned phase, TaskletCtx& ctx) override {
      ctx.instr(phase == 1 && ctx.id() == 0 ? 5000 : 100);
    }
  } k;
  const auto kernel_for = [&](std::size_t) -> DpuKernel* { return &k; };
  PimSystem plain(2);
  const auto a = plain.launch(kernel_for, 11);
  const DpuRunStats& st = a.dpu_stats[0];
  const std::uint64_t barrier = DpuCostModel::barrier_cycles();
  EXPECT_EQ(st.bound_cycles[0], 1100u + barrier);
  EXPECT_EQ(st.bound_cycles[1], 0u);
  EXPECT_EQ(st.bound_cycles[2], 11u * 5000u + barrier);
  EXPECT_EQ(st.bound_cycles[0] + st.bound_cycles[1] + st.bound_cycles[2],
            st.cycles);
  EXPECT_EQ(st.path_excess_cycles, 11u * 5000u - (5000u + 10u * 100u));

  obs::MetricsRegistry reg;
  PimSystem traced(2);
  traced.set_metrics(&reg);
  const auto b = traced.launch(kernel_for, 11);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.max_cycles, b.max_cycles);
  EXPECT_EQ(reg.counter("pim.launch.bound_cycles.issue").value(),
            2 * st.bound_cycles[0]);
  EXPECT_EQ(reg.counter("pim.launch.bound_cycles.dma").value(), 0u);
  EXPECT_EQ(reg.counter("pim.launch.bound_cycles.path").value(),
            2 * st.bound_cycles[2]);
  EXPECT_EQ(reg.counter("pim.launch.path_excess_cycles").value(),
            2 * st.path_excess_cycles);
}

TEST(PimSystem, NullKernelSkipsDpu) {
  PimSystem sys(3);
  class Noop : public DpuKernel {
   public:
    unsigned n_phases() const override { return 1; }
    void run_phase(unsigned, TaskletCtx& ctx) override { ctx.instr(5); }
  } k;
  const auto stats = sys.launch(
      [&](std::size_t i) -> DpuKernel* { return i == 1 ? &k : nullptr; }, 4);
  EXPECT_EQ(stats.dpu_seconds[0], 0.0);
  EXPECT_GT(stats.dpu_seconds[1], 0.0);
  EXPECT_EQ(stats.dpu_seconds[2], 0.0);
}

}  // namespace
}  // namespace upanns::pim
