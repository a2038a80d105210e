// Oracle tests for the DPU query kernel: an independent host-side
// re-implementation of the quantized pipeline (int8 codebook -> float LUT ->
// u16 LUT -> integer ADC) must agree with what the kernel writes to MRAM.
#include "core/dpu_kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/rng.hpp"
#include "common/simd_dispatch.hpp"
#include "core/engine.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"

namespace upanns::core {
namespace {

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::deep1b_like(6000, 61));
  ivf::IvfIndex index = build();
  data::QueryWorkload wl;
  ivf::ClusterStats stats;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 24;
    opts.pq_m = 12;
    opts.coarse_iters = 5;
    opts.pq_iters = 4;
    return ivf::IvfIndex::build(base, opts);
  }

  Fixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 8;
    spec.seed = 2;
    wl = data::generate_workload(base, spec);
    stats = ivf::collect_stats(index,
                               ivf::filter_batch(index, wl.queries, 6));
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// Host-side oracle: quantized ADC top-k over the probed clusters, mirroring
// the engine's int8-codebook / u16-LUT pipeline.
std::vector<common::Neighbor> oracle_topk(const ivf::IvfIndex& index,
                                          const float* query,
                                          const std::vector<std::uint32_t>& probes,
                                          std::size_t k) {
  const auto& pq = index.pq();
  const std::size_t m = pq.m();
  const std::size_t dsub = pq.dsub();
  const std::size_t dim = index.dim();

  // Reproduce the engine's int8 codebook quantization.
  std::vector<float> scales(m);
  std::vector<std::int8_t> cbq(m * 256 * dsub);
  const auto cb = pq.codebooks();
  for (std::size_t s = 0; s < m; ++s) {
    float mx = 0;
    for (std::size_t i = 0; i < 256 * dsub; ++i) {
      mx = std::max(mx, std::abs(cb[s * 256 * dsub + i]));
    }
    scales[s] = mx > 0 ? mx / 127.f : 1.f;
    for (std::size_t i = 0; i < 256 * dsub; ++i) {
      cbq[s * 256 * dsub + i] = static_cast<std::int8_t>(
          std::lround(cb[s * 256 * dsub + i] / scales[s]));
    }
  }

  common::BoundedMaxHeap heap(k);
  std::vector<float> residual(dim), lut(m * 256);
  for (std::uint32_t c : probes) {
    const auto& list = index.list(c);
    if (list.size() == 0) continue;
    index.residual(query, c, residual.data());
    float mx = 0;
    for (std::size_t s = 0; s < m; ++s) {
      for (std::size_t e = 0; e < 256; ++e) {
        float acc = 0;
        for (std::size_t d = 0; d < dsub; ++d) {
          const float diff =
              residual[s * dsub + d] -
              scales[s] * static_cast<float>(cbq[(s * 256 + e) * dsub + d]);
          acc += diff * diff;
        }
        lut[s * 256 + e] = acc;
        mx = std::max(mx, acc);
      }
    }
    const float scale = mx > 0 ? mx / 65000.f : 1.f;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::uint8_t* code = list.code(i, m);
      std::uint32_t acc = 0;
      for (std::size_t s = 0; s < m; ++s) {
        acc += static_cast<std::uint16_t>(
            std::min(65535.f, std::round(lut[s * 256 + code[s]] / scale)));
      }
      heap.push(static_cast<float>(acc) * scale, list.ids[i]);
    }
  }
  return heap.take_sorted();
}

UpAnnsOptions tiny_options(bool naive) {
  UpAnnsOptions o = naive ? UpAnnsOptions::pim_naive()
                          : UpAnnsOptions::upanns();
  o.n_dpus = 6;
  o.nprobe = 6;
  o.k = 8;
  return o;
}

class KernelOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(KernelOracleTest, KernelMatchesQuantizedOracle) {
  auto& f = fixture();
  const bool naive = GetParam();
  UpAnnsEngine engine(f.index, f.stats, tiny_options(naive));
  const auto probes = ivf::filter_batch(f.index, f.wl.queries, 6);
  const auto report = engine.search_with_probes(f.wl.queries, probes);

  for (std::size_t q = 0; q < f.wl.queries.n; ++q) {
    const auto expect =
        oracle_topk(f.index, f.wl.queries.row(q), probes[q], 8);
    ASSERT_EQ(report.neighbors[q].size(), expect.size()) << "query " << q;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_NEAR(report.neighbors[q][i].dist, expect[i].dist,
                  1e-3f * (1.f + expect[i].dist))
          << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, KernelOracleTest, ::testing::Bool());

TEST(Kernel, TaskletSweepMatchesFig13Law) {
  // Per-DPU cycles must shrink ~linearly up to 11 tasklets and flatten
  // beyond (distance stage, balanced work).
  auto& f = fixture();
  std::vector<double> dist_time;
  for (unsigned t : {1u, 2u, 4u, 8u, 11u, 16u, 24u}) {
    UpAnnsOptions o = tiny_options(false);
    o.n_tasklets = t;
    UpAnnsEngine engine(f.index, f.stats, o);
    dist_time.push_back(engine.search(f.wl.queries).times.distance_calc);
  }
  // Linear-ish regime.
  EXPECT_GT(dist_time[0] / dist_time[1], 1.6);  // 1 -> 2 tasklets
  EXPECT_GT(dist_time[1] / dist_time[2], 1.5);  // 2 -> 4
  EXPECT_GT(dist_time[0] / dist_time[4], 5.0);  // 1 -> 11
  // Saturation: no further meaningful speedup beyond 11. At this test's
  // tiny cluster sizes chunk granularity adds noise (a cluster is only a
  // handful of 16-record chunks), so the band is wide; the Fig 13 bench
  // demonstrates the clean plateau at realistic list lengths.
  EXPECT_GT(dist_time[5] / dist_time[4], 0.6);
  EXPECT_LT(dist_time[5] / dist_time[4], 1.8);
  EXPECT_GT(dist_time[6] / dist_time[4], 0.6);
  EXPECT_LT(dist_time[6] / dist_time[4], 2.4);
}

TEST(Kernel, WramOverflowDetectedForOversizedConfigs) {
  // k=1000 x 24 tasklets of heap space plus buffers cannot fit 64 KB WRAM:
  // the simulator must refuse, exactly like real hardware would.
  auto& f = fixture();
  UpAnnsOptions o = tiny_options(false);
  o.k = 4096;
  o.n_tasklets = 24;
  UpAnnsEngine engine(f.index, f.stats, o);
  EXPECT_THROW(engine.search(f.wl.queries), pim::WramOverflow);
}

TEST(Kernel, MergeStatsConsistent) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, tiny_options(false));
  const auto r = engine.search(f.wl.queries);
  // Insertions are bounded by tasklets x k x merges; pruned + inserted
  // cannot exceed the total local-heap contents.
  EXPECT_GT(r.pim->merge_insertions, 0u);
  EXPECT_GT(r.pim->scanned_records, 0u);
}

// ---------------------------------------------------------------------------
// S0-S2 under the block split, against a hand-built MRAM image: one cluster
// with no records, so a run is exactly LUT build, reduce, quantize and an
// empty merge. The image carries both S0 inputs: the int8 codebook the
// kNaiveRaw S0 streams, and the cluster table (MRAM) plus query table
// (host-mirrored) the precomputed S0 of the UpANNS modes adds up.

std::vector<common::SimdLevel> supported_levels() {
  std::vector<common::SimdLevel> out;
  for (const auto l : {common::SimdLevel::kScalar, common::SimdLevel::kSse2,
                       common::SimdLevel::kAvx2}) {
    if (static_cast<int>(l) <= static_cast<int>(common::simd_max_supported())) {
      out.push_back(l);
    }
  }
  return out;
}

/// Restore the dispatch level on scope exit so test order cannot leak.
struct LevelGuard {
  common::SimdLevel prev = common::simd_active_level();
  ~LevelGuard() { common::set_simd_level(prev); }
};

struct LutImage {
  pim::Dpu dpu{0};
  DpuStaticLayout layout;
  DpuLaunchInput input;
  std::vector<std::int8_t> codebook;
  std::vector<float> scales, query, centroid;
  std::vector<float> query_table, cluster_table;
  std::vector<float> naive_row, table_row;  ///< the pushed query rows

  LutImage(std::size_t m, std::size_t dsub, std::uint64_t seed,
           std::size_t k = 4) {
    common::Rng rng(seed);
    layout.m = m;
    layout.dsub = dsub;
    layout.dim = m * dsub;
    codebook.resize(m * 256 * dsub);
    for (auto& c : codebook) {
      c = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
    }
    for (std::size_t s = 0; s < m; ++s) {
      scales.push_back(rng.uniform(0.002f, 0.05f));
    }
    for (std::size_t d = 0; d < layout.dim; ++d) {
      query.push_back(rng.uniform(-2.f, 2.f));
      centroid.push_back(rng.uniform(-2.f, 2.f));
    }
    layout.codebook_off = put(codebook.data(), codebook.size());
    layout.cb_scale_off = put(scales.data(), m * sizeof(float));
    const LutCodebook cb(codebook.data(), scales.data(), m, dsub);
    query_table.resize(cb.table_size());
    cluster_table.resize(cb.table_size());
    cb.query_table(query.data(), query_table.data());
    cb.cluster_table(centroid.data(), cluster_table.data());
    DpuClusterData cl;
    cl.centroid_off = put(centroid.data(), layout.dim * sizeof(float));
    cl.table_off =
        put(cluster_table.data(), cluster_table.size() * sizeof(float));
    layout.clusters.push_back(cl);
    naive_row = query;
    table_row = query;
    table_row.insert(table_row.end(), query_table.begin(), query_table.end());
    input.k = k;
    input.query_rows = {0};
    input.results_off = dpu.mram_alloc(input.k * 8, "results");
    input.items.push_back({0, 0});
  }

  /// Push the query row the kernel in `mode` reads (a real push rewinds the
  /// batch scratch first, which drops the previous mirror).
  void push(KernelMode mode) {
    const std::vector<float>& row =
        mode == KernelMode::kNaiveRaw ? naive_row : table_row;
    dpu.mram_rewind(dpu.mram_mark());
    dpu.mram_mirror(row.data(), input.query_rows.data(), 1,
                    row.size() * sizeof(float), "batch-queries");
  }

  void run(QueryKernel& kernel, KernelMode mode, unsigned tasklets) {
    push(mode);
    dpu.run(kernel, tasklets);
  }

  std::size_t put(const void* src, std::size_t bytes) {
    const std::size_t off = dpu.mram_alloc(bytes, "image");
    dpu.host_write(off, src, bytes);
    return off;
  }

  /// Per-subspace reference: one entry at a time, in subspace order.
  void reference(std::vector<float>& lut, std::vector<std::uint16_t>& lut_u16,
                 float& scale) const {
    const std::size_t m = layout.m, dsub = layout.dsub;
    lut.assign(m * 256, 0.f);
    float mx = 0.f;
    for (std::size_t s = 0; s < m; ++s) {
      for (std::size_t e = 0; e < 256; ++e) {
        float acc = 0.f;
        for (std::size_t d = 0; d < dsub; ++d) {
          const float res = query[s * dsub + d] - centroid[s * dsub + d];
          const float diff =
              res - scales[s] *
                        static_cast<float>(codebook[(s * 256 + e) * dsub + d]);
          acc += diff * diff;
        }
        lut[s * 256 + e] = acc;
        mx = std::max(mx, acc);
      }
    }
    scale = mx > 0.f ? mx / 65000.f : 1.f;
    const float inv = 1.f / scale;
    lut_u16.resize(lut.size());
    for (std::size_t i = 0; i < lut.size(); ++i) {
      lut_u16[i] = static_cast<std::uint16_t>(
          std::round(std::min(65535.f, lut[i] * inv)));
    }
  }
};

TEST(LutSplit, BitIdenticalToPerSubspaceReference) {
  // The kNaiveRaw S0 builds every entry from the codebook with the
  // reference's exact operation order.
  LevelGuard guard;
  for (const std::size_t m : {std::size_t{12}, std::size_t{16}}) {
    // dsub 8 takes the SIMD routines; 6 is the scalar path.
    for (const std::size_t dsub : {std::size_t{8}, std::size_t{6}}) {
      LutImage img(m, dsub, 100 + m * 10 + dsub);
      std::vector<float> want;
      std::vector<std::uint16_t> want_u16;
      float want_scale = 0.f;
      img.reference(want, want_u16, want_scale);
      for (const auto level : supported_levels()) {
        common::set_simd_level(level);
        for (const unsigned t : {1u, 2u, 3u, 11u, 16u, 24u}) {
          QueryKernel kernel(img.layout, img.input, KernelMode::kNaiveRaw,
                             /*prune_topk=*/true);
          img.run(kernel, KernelMode::kNaiveRaw, t);
          const KernelScratch& got = kernel.scratch();
          const std::string where = "m=" + std::to_string(m) +
                                    " dsub=" + std::to_string(dsub) +
                                    " level=" + common::simd_level_name(level) +
                                    " tasklets=" + std::to_string(t);
          ASSERT_EQ(got.lut_f32.size(), want.size()) << where;
          EXPECT_EQ(std::memcmp(got.lut_f32.data(), want.data(),
                                want.size() * sizeof(float)),
                    0)
              << where;
          EXPECT_EQ(got.lut_u16, want_u16) << where;
          const float scale = kernel.lut_scale();
          EXPECT_EQ(std::memcmp(&scale, &want_scale, sizeof(float)), 0)
              << where;
        }
      }
    }
  }
}

TEST(LutSplit, BuildPhaseWithinOneBlockOfIssueBound) {
  // T = 11 fills the revolver exactly, so the issue bound is the phase's
  // floor. The old one-subspace-per-tasklet split gave tasklets 0-4 two
  // 256-entry rows and ran at 11 x 2 rows; the block split must leave the
  // busiest tasklet's path at most one 8-entry block (at the issue gap)
  // above the issue bound, plus that tasklet's own DMA wait.
  constexpr unsigned kT = 11;
  constexpr std::size_t kM = 16, kDsub = 8;
  LutImage img(kM, kDsub, 7);
  QueryKernel kernel(img.layout, img.input, KernelMode::kNaiveRaw,
                     /*prune_topk=*/true);
  img.push(KernelMode::kNaiveRaw);
  kernel.setup(img.dpu, kT);
  std::vector<pim::TaskletWork> works;
  for (unsigned t = 0; t < kT; ++t) {
    pim::TaskletCtx ctx(img.dpu, t, kT);
    kernel.run_phase(0, ctx);  // phase 0 is the first item's S0
    works.push_back(ctx.work());
  }
  std::uint64_t issue = 0, max_dma = 0;
  for (const auto& w : works) {
    issue += w.instructions;
    max_dma = std::max(max_dma, w.dma_cycles);
  }
  const std::uint64_t block_instr = 8 * (kDsub * 3 + 3);
  const std::uint64_t row_instr = 256 * (kDsub * 3 + 3);
  ASSERT_GE(issue, kM * row_instr);
  const std::uint64_t cycles = pim::DpuCostModel::phase_cycles(works);
  EXPECT_GE(cycles, issue);
  EXPECT_LE(cycles, issue + kT * block_instr + max_dma);
  // The old split's floor, for contrast: two rows on one tasklet.
  EXPECT_LT(cycles, kT * 2 * row_instr);
}

TEST(LutSplit, TaskletWithoutBlockReportsZeroMax) {
  // m = 2 has 64 blocks; at 24 tasklets the ceil split hands out 3 blocks
  // each, so tasklet 21 gets the last one and tasklets 22-23 get none.
  LutImage img(2, 8, 9);
  QueryKernel kernel(img.layout, img.input, KernelMode::kNaiveRaw,
                     /*prune_topk=*/true);
  img.run(kernel, KernelMode::kNaiveRaw, 24);
  const std::vector<float>& mx = kernel.scratch().tasklet_max;
  ASSERT_EQ(mx.size(), 24u);
  EXPECT_GT(mx[21], 0.f);
  EXPECT_EQ(mx[22], 0.f);
  EXPECT_EQ(mx[23], 0.f);
  std::vector<float> want;
  std::vector<std::uint16_t> want_u16;
  float want_scale = 0.f;
  img.reference(want, want_u16, want_scale);
  EXPECT_EQ(kernel.lut_scale(), want_scale);
}

// --- The precomputed S0 (UpANNS modes): A + B + C against the direct
// per-subspace reference. The decomposition reassociates the float sum, so
// the float LUT agrees to a relative tolerance of the LUT's range and the
// u16 LUT to one quantization step.

constexpr float kLutRelTol = 2e-6f;

void expect_tables_match_reference(const LutImage& img,
                                   const QueryKernel& kernel,
                                   const std::string& where) {
  std::vector<float> want;
  std::vector<std::uint16_t> want_u16;
  float want_scale = 0.f;
  img.reference(want, want_u16, want_scale);
  const KernelScratch& got = kernel.scratch();
  ASSERT_EQ(got.lut_f32.size(), want.size()) << where;
  const float range = want_scale * 65000.f;  // the reference LUT maximum
  float worst = 0.f;
  int worst_u16 = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    worst = std::max(worst, std::abs(got.lut_f32[i] - want[i]));
    worst_u16 = std::max(
        worst_u16, std::abs(static_cast<int>(got.lut_u16[i]) -
                            static_cast<int>(want_u16[i])));
  }
  EXPECT_LE(worst, kLutRelTol * range) << where;
  EXPECT_LE(worst_u16, 1) << where;
  EXPECT_NEAR(kernel.lut_scale(), want_scale, kLutRelTol * want_scale)
      << where;
}

TEST(LutTables, MatchDirectReferenceAtEveryShapeLevelAndTaskletCount) {
  LevelGuard guard;
  for (const std::size_t m : {std::size_t{12}, std::size_t{16},
                              std::size_t{20}}) {
    for (const std::size_t dsub : {std::size_t{8}, std::size_t{6},
                                   std::size_t{5}}) {
      LutImage img(m, dsub, 300 + m * 10 + dsub);
      for (const auto level : supported_levels()) {
        common::set_simd_level(level);
        for (const unsigned t : {1u, 2u, 3u, 11u, 16u, 24u}) {
          for (const KernelMode mode :
               {KernelMode::kDirectTokens, KernelMode::kCae}) {
            QueryKernel kernel(img.layout, img.input, mode,
                               /*prune_topk=*/true);
            img.run(kernel, mode, t);
            expect_tables_match_reference(
                img, kernel,
                "m=" + std::to_string(m) + " dsub=" + std::to_string(dsub) +
                    " level=" + common::simd_level_name(level) +
                    " tasklets=" + std::to_string(t));
          }
        }
      }
    }
  }
}

TEST(LutTables, BitIdenticalAcrossTaskletCounts) {
  // Every entry is (A_s + B_sj) + C_sj whichever tasklet owns it.
  LutImage img(16, 8, 41);
  QueryKernel ref(img.layout, img.input, KernelMode::kDirectTokens, true);
  img.run(ref, KernelMode::kDirectTokens, 1);
  for (const unsigned t : {2u, 3u, 11u, 16u, 24u}) {
    QueryKernel kernel(img.layout, img.input, KernelMode::kDirectTokens, true);
    img.run(kernel, KernelMode::kDirectTokens, t);
    EXPECT_EQ(std::memcmp(kernel.scratch().lut_f32.data(),
                          ref.scratch().lut_f32.data(),
                          ref.scratch().lut_f32.size() * sizeof(float)),
              0)
        << "tasklets=" << t;
    EXPECT_EQ(kernel.scratch().lut_u16, ref.scratch().lut_u16);
  }
}

/// Per-tasklet work of the first item's S0 at `t` tasklets.
std::vector<pim::TaskletWork> s0_work(LutImage& img, KernelMode mode,
                                      unsigned t) {
  QueryKernel kernel(img.layout, img.input, mode, /*prune_topk=*/true);
  img.push(mode);
  kernel.setup(img.dpu, t);
  std::vector<pim::TaskletWork> works;
  for (unsigned id = 0; id < t; ++id) {
    pim::TaskletCtx ctx(img.dpu, id, t);
    kernel.run_phase(0, ctx);
    works.push_back(ctx.work());
  }
  return works;
}

TEST(LutTables, BuildPhaseNearIssueBoundAndAThirdOfTheCodebookS0) {
  // m = 16, T = 11: the precomputed S0 keeps the block split's balance (the
  // busiest path within one block plus its own DMA wait of the issue bound)
  // at 8 instead of 27 instructions per entry.
  constexpr unsigned kT = 11;
  LutImage img(16, 8, 7);
  const auto works = s0_work(img, KernelMode::kDirectTokens, kT);
  std::uint64_t issue = 0, max_dma = 0;
  for (const auto& w : works) {
    issue += w.instructions;
    max_dma = std::max(max_dma, w.dma_cycles);
  }
  EXPECT_GE(issue, 16u * 256u * (5 + 3));
  const std::uint64_t cycles = pim::DpuCostModel::phase_cycles(works);
  EXPECT_LE(cycles, issue + kT * 8 * (5 + 3) + max_dma);
  const std::uint64_t codebook = pim::DpuCostModel::phase_cycles(
      s0_work(img, KernelMode::kNaiveRaw, kT));
  EXPECT_LT(cycles * 100, codebook * 35);
}

TEST(LutTables, SumRoundingBelowZeroClampsToZero) {
  // Make entry (s=1, j=5) cancel exactly in real arithmetic but round below
  // zero in float: C = -(A + B) one ulp down. The kernel must emit 0, and the
  // quantized entry must be 0, not a wrapped or garbage u16.
  LutImage img(4, 8, 17);
  const std::size_t s = 1, j = 5, e = s * 256 + j;
  float a = 0.f;
  for (std::size_t d = 0; d < 8; ++d) {
    const float diff = img.query[s * 8 + d] - img.centroid[s * 8 + d];
    a += diff * diff;
  }
  const float ab = a + img.query_table[e];
  img.cluster_table[e] =
      std::nextafter(-ab, -std::numeric_limits<float>::infinity());
  ASSERT_LT((a + img.query_table[e]) + img.cluster_table[e], 0.f);
  img.dpu.host_write(img.layout.clusters[0].table_off + e * sizeof(float),
                     &img.cluster_table[e], sizeof(float));
  for (const unsigned t : {1u, 11u}) {
    QueryKernel kernel(img.layout, img.input, KernelMode::kDirectTokens, true);
    img.run(kernel, KernelMode::kDirectTokens, t);
    EXPECT_EQ(kernel.scratch().lut_f32[e], 0.f) << "tasklets=" << t;
    EXPECT_FALSE(std::signbit(kernel.scratch().lut_f32[e]));
    EXPECT_EQ(kernel.scratch().lut_u16[e], 0u);
    EXPECT_GT(kernel.lut_scale(), 0.f);
  }
}

TEST(LutTables, StagingFitsWramAtMaxTaskletsForEveryFamily) {
  // deep (m=12, dsub=8), sift (16, 8) and spacev (20, 5) at 24 tasklets and
  // the engine's k=10: the B/C staging buffers reuse the codebook's WRAM
  // footprint, so the full kernel layout (heaps, combo cache, LUT, staging,
  // then the distance-stage stream buffers) must fit 64 KB.
  for (const auto& [m, dsub] :
       {std::pair<std::size_t, std::size_t>{12, 8}, {16, 8}, {20, 5}}) {
    LutImage img(m, dsub, 5, /*k=*/10);
    for (const KernelMode mode :
         {KernelMode::kDirectTokens, KernelMode::kCae}) {
      QueryKernel kernel(img.layout, img.input, mode, true);
      EXPECT_NO_THROW(img.run(kernel, mode, 24))
          << "m=" << m << " dsub=" << dsub;
      EXPECT_LE(img.dpu.wram().high_water(), hw::kWramBytes);
      expect_tables_match_reference(img, kernel,
                                    "m=" + std::to_string(m) + " T=24");
    }
  }
}

TEST(LutSplit, EngineNeighborsByteIdenticalAcrossTaskletsAndLevels) {
  LevelGuard guard;
  auto& f = fixture();
  const auto search = [&](unsigned t) {
    UpAnnsOptions o = tiny_options(false);
    o.n_tasklets = t;
    UpAnnsEngine engine(f.index, f.stats, o);
    return engine.search(f.wl.queries).neighbors;
  };
  common::set_simd_level(common::SimdLevel::kScalar);
  const auto want = search(11);
  for (const auto level : supported_levels()) {
    common::set_simd_level(level);
    for (unsigned t = 1; t <= 24; ++t) {
      const auto got = search(t);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t q = 0; q < want.size(); ++q) {
        ASSERT_EQ(got[q].size(), want[q].size());
        for (std::size_t i = 0; i < want[q].size(); ++i) {
          EXPECT_EQ(got[q][i].id, want[q][i].id)
              << "tasklets=" << t << " level=" << common::simd_level_name(level);
          EXPECT_EQ(std::memcmp(&got[q][i].dist, &want[q][i].dist,
                                sizeof(float)),
                    0)
              << "tasklets=" << t << " level=" << common::simd_level_name(level);
        }
      }
    }
  }
}

}  // namespace
}  // namespace upanns::core
