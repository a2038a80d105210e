#include "pim/transfer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "pim/cost_model.hpp"

namespace upanns::pim {
namespace {

using Runs = std::vector<std::vector<std::size_t>>;

constexpr std::size_t kRoomy = hw::kMramBytes / 2;
constexpr unsigned kTasklets = 11;

std::vector<std::size_t> totals(const Runs& runs) {
  std::vector<std::size_t> out;
  for (const auto& r : runs) {
    std::size_t t = 0;
    for (std::size_t len : r) t += len;
    out.push_back(t);
  }
  return out;
}

std::size_t max_total(const Runs& runs) {
  const std::vector<std::size_t> t = totals(runs);
  return *std::max_element(t.begin(), t.end());
}

/// The staged copy on one DPU as a DpuCostModel phase: every <= 2048 B
/// piece of a run is one DMA into WRAM and one back out, dealt round-robin.
TaskletWork dma_pair(std::size_t chunk) {
  TaskletWork w;
  w.dma_cycles =
      2 * static_cast<std::uint64_t>(DpuCostModel::mram_dma_cycles(chunk));
  return w;
}

std::uint64_t copy_cycles(const std::vector<std::size_t>& runs,
                          unsigned n_tasklets) {
  std::vector<TaskletWork> work(n_tasklets);
  std::size_t next = 0;
  for (std::size_t len : runs) {
    for (std::size_t done = 0; done < len; done += hw::kMramMaxTransfer) {
      const std::size_t chunk = std::min(len - done, hw::kMramMaxTransfer);
      work[next++ % n_tasklets].dma_cycles += dma_pair(chunk).dma_cycles;
    }
  }
  return DpuCostModel::phase_cost(work).cycles;
}

/// Per-DPU deltas like a compaction's: every DPU writes a different amount.
Runs spread_writes(std::size_t n_dpus) {
  Runs runs(n_dpus);
  for (std::size_t d = 0; d < n_dpus; ++d) {
    runs[d] = {2048 * (4 + d % 7), 256 * (1 + d % 3)};
  }
  return runs;
}

TEST(Transfer, UniformIsParallel) {
  const auto s = TransferEngine::batch({1024, 1024, 1024, 1024});
  EXPECT_TRUE(s.parallel);
  EXPECT_EQ(s.bytes, 4096u);
  EXPECT_DOUBLE_EQ(s.seconds, 4096.0 / hw::kHostXferParallelBw);
}

TEST(Transfer, NonUniformSerializes) {
  const auto s = TransferEngine::batch({1024, 2048});
  EXPECT_FALSE(s.parallel);
  EXPECT_DOUBLE_EQ(s.seconds, 3072.0 / hw::kHostXferSerialBw);
}

TEST(Transfer, SerialMuchSlowerThanParallel) {
  // The architectural penalty UpANNS's uniform padding avoids (Sec 2.2).
  const auto par = TransferEngine::batch({4096, 4096});
  const auto ser = TransferEngine::batch({4096, 4104});
  EXPECT_GT(ser.seconds, 10 * par.seconds);
}

TEST(Transfer, ZeroEntriesIgnoredForUniformity) {
  const auto s = TransferEngine::batch({0, 512, 0, 512});
  EXPECT_TRUE(s.parallel);
  EXPECT_EQ(s.bytes, 1024u);
}

TEST(Transfer, AllZeroIsFree) {
  const auto s = TransferEngine::batch({0, 0, 0});
  EXPECT_DOUBLE_EQ(s.seconds, 0.0);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(Transfer, EmptyVector) {
  const auto s = TransferEngine::batch({});
  EXPECT_DOUBLE_EQ(s.seconds, 0.0);
}

TEST(Transfer, SingleDpuIsUniform) {
  EXPECT_TRUE(TransferEngine::batch({777}).parallel);
}

TEST(Transfer, UniformHelperMatchesBatch) {
  const auto a = TransferEngine::uniform(8, 256);
  const auto b = TransferEngine::batch(std::vector<std::size_t>(8, 256));
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.bytes, b.bytes);
}

TEST(Transfer, UniformZeroBytes) {
  const auto s = TransferEngine::uniform(16, 0);
  EXPECT_DOUBLE_EQ(s.seconds, 0.0);
}

TEST(Transfer, ScatterStagesWritesSpreadOverManyDpus) {
  const Runs runs = spread_writes(64);
  const std::vector<std::size_t> free_bytes(runs.size(), kRoomy);
  const TransferStats s = TransferEngine::scatter(runs, free_bytes, kTasklets);

  const std::size_t max_bytes = max_total(runs);
  std::uint64_t slowest = 0;
  for (const auto& r : runs) slowest = std::max(slowest, copy_cycles(r, kTasklets));
  const double apply =
      DpuCostModel::cycles_to_seconds(slowest) + hw::kHostLaunchLatency;
  EXPECT_TRUE(s.parallel);
  EXPECT_EQ(s.bytes, runs.size() * max_bytes);
  EXPECT_EQ(s.apply_seconds, apply);
  EXPECT_EQ(s.seconds,
            TransferEngine::uniform(runs.size(), max_bytes).seconds + apply);
  EXPECT_LT(s.seconds, TransferEngine::batch(totals(runs)).seconds);
}

TEST(Transfer, ScatterKeepsALoneSmallWriteOnTheDirectPush) {
  // B bytes on one DPU (or B and B/4 on two, serialized at 0.35 GB/s)
  // beat 64 * B padded at 16 GB/s plus a launch.
  Runs runs(64);
  runs[5] = {4096};
  Runs pair = runs;
  pair[9] = {1024};
  const TransferStats p = TransferEngine::scatter(
      pair, std::vector<std::size_t>(64, kRoomy), kTasklets);
  EXPECT_FALSE(p.parallel);
  EXPECT_EQ(p.seconds, TransferEngine::batch(totals(pair)).seconds);
  EXPECT_EQ(p.apply_seconds, 0.0);
  const TransferStats s = TransferEngine::scatter(
      runs, std::vector<std::size_t>(64, kRoomy), kTasklets);
  const TransferStats direct = TransferEngine::batch(totals(runs));
  EXPECT_EQ(s.seconds, direct.seconds);
  EXPECT_EQ(s.bytes, 4096u);
  EXPECT_EQ(s.apply_seconds, 0.0);
}

TEST(Transfer, ScatterKeepsEqualSizesOnTheParallelPush) {
  for (std::size_t busy : {64u, 8u}) {
    Runs runs(64);
    for (std::size_t d = 0; d < busy; ++d) runs[d] = {1536, 512};
    const TransferStats s = TransferEngine::scatter(
        runs, std::vector<std::size_t>(64, kRoomy), kTasklets);
    const TransferStats direct = TransferEngine::batch(totals(runs));
    EXPECT_TRUE(direct.parallel);
    EXPECT_TRUE(s.parallel);
    EXPECT_EQ(s.seconds, direct.seconds) << busy << " busy DPUs";
    EXPECT_EQ(s.apply_seconds, 0.0);
  }
}

TEST(Transfer, ScatterNeverChargesMoreThanTheDirectPush) {
  common::Rng rng(20261019);
  int staged = 0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t n = 1 + rng.below(96);
    Runs runs(n);
    for (auto& r : runs) {
      const std::size_t n_runs = rng.below(5);
      for (std::size_t i = 0; i < n_runs; ++i) {
        r.push_back(1 + rng.below(rng.below(2) ? 600 : 40000));
      }
    }
    const TransferStats s = TransferEngine::scatter(
        runs, std::vector<std::size_t>(n, kRoomy), 1 + rng.below(24));
    const TransferStats direct = TransferEngine::batch(totals(runs));
    EXPECT_LE(s.seconds, direct.seconds) << "trial " << trial;
    if (s.apply_seconds > 0) {
      ++staged;
      EXPECT_LT(s.seconds, direct.seconds) << "trial " << trial;
      EXPECT_EQ(s.bytes, n * max_total(runs)) << "trial " << trial;
    } else {
      EXPECT_EQ(s.seconds, direct.seconds) << "trial " << trial;
    }
  }
  // Both plans win somewhere in the sample.
  EXPECT_GT(staged, 0);
  EXPECT_LT(staged, trials);
}

TEST(Transfer, ScatterCopyIsThePhaseCostOfItsDmas) {
  // Irregular runs: sub-granule tails, exact 2048 B pieces, a run one byte
  // past a piece, and one DPU holding many more pieces than tasklets.
  Runs runs = spread_writes(48);
  runs[3] = {5000, 300, 2049, 17};
  runs[9] = std::vector<std::size_t>(40, 2048);
  for (unsigned t : {1u, 3u, 11u, 24u}) {
    const TransferStats s = TransferEngine::scatter(
        runs, std::vector<std::size_t>(runs.size(), kRoomy), t);
    std::uint64_t slowest = 0;
    for (const auto& r : runs) slowest = std::max(slowest, copy_cycles(r, t));
    ASSERT_GT(s.apply_seconds, 0.0) << t << " tasklets";
    EXPECT_EQ(s.apply_seconds,
              DpuCostModel::cycles_to_seconds(slowest) + hw::kHostLaunchLatency)
        << t << " tasklets";
  }
  // One DPU, one 2048 B run: a single read + write pair.
  EXPECT_EQ(copy_cycles({2048}, kTasklets),
            DpuCostModel::phase_cost({dma_pair(2048)}).cycles);
}

TEST(Transfer, ScatterFallsBackWhenStagingDoesNotFit) {
  const Runs runs = spread_writes(64);
  const std::size_t max_bytes = max_total(runs);
  std::vector<std::size_t> free_bytes(runs.size(), kRoomy);
  free_bytes[17] = max_bytes;  // exactly fits
  EXPECT_GT(TransferEngine::scatter(runs, free_bytes, kTasklets).apply_seconds,
            0.0);
  // Any DPU the padded push lands on must have room, even one whose own
  // delta is smaller.
  free_bytes[17] = max_bytes - 1;
  const TransferStats s = TransferEngine::scatter(runs, free_bytes, kTasklets);
  const TransferStats direct = TransferEngine::batch(totals(runs));
  EXPECT_EQ(s.seconds, direct.seconds);
  EXPECT_FALSE(s.parallel);
  EXPECT_EQ(s.apply_seconds, 0.0);
}

TEST(Transfer, ScatterRejectsMismatchedFreeBytes) {
  EXPECT_THROW(TransferEngine::scatter(Runs(4), std::vector<std::size_t>(3),
                                       kTasklets),
               std::invalid_argument);
}

TEST(Transfer, RecordObservesApplySecondsOnlyForAStagedScatter) {
  const auto has = [](const obs::MetricsRegistry& reg, const std::string& n) {
    for (const auto& h : reg.snapshot().histograms) {
      if (h.name == n) return true;
    }
    return false;
  };
  obs::MetricsRegistry reg;
  Runs small(64);
  small[0] = {4096};
  small[1] = {1024};
  TransferEngine::record(
      obs::MetricsSink(&reg), "patch",
      TransferEngine::scatter(small, std::vector<std::size_t>(64, kRoomy),
                              kTasklets));
  EXPECT_EQ(reg.counter("transfer.patch.serial").value(), 1u);
  EXPECT_FALSE(has(reg, "transfer.patch.apply_seconds"));

  TransferEngine::record(
      obs::MetricsSink(&reg), "patch",
      TransferEngine::scatter(spread_writes(64),
                              std::vector<std::size_t>(64, kRoomy), kTasklets));
  EXPECT_EQ(reg.counter("transfer.patch.uniform").value(), 1u);
  EXPECT_TRUE(has(reg, "transfer.patch.apply_seconds"));
}

}  // namespace
}  // namespace upanns::pim
