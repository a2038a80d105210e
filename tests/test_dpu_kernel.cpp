// Oracle tests for the DPU query kernel: an independent host-side
// re-implementation of the quantized pipeline (int8 codebook -> float LUT ->
// u16 LUT -> integer ADC) must agree with what the kernel writes to MRAM,
// and the UpANNS modes' fixed-point keys must stay within their rounding
// of the float ADC distance.
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
#include "obs/metrics.hpp"
#include "quant/kmeans.hpp"

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
// kNaiveRaw's S0-S2 under the block split, against a hand-built MRAM image:
// one cluster with no records, so a run is exactly LUT build, reduce,
// quantize and an empty merge.

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
    DpuClusterData cl;
    cl.centroid_off = put(centroid.data(), layout.dim * sizeof(float));
    layout.clusters.push_back(cl);
    input.k = k;
    input.query_rows = {0};
    input.results_off = dpu.mram_alloc(input.k * 8, "results");
    input.items.push_back({0, 0});
  }

  /// Push the query vector (a real push rewinds the batch scratch first,
  /// which drops the previous mirror).
  void push() {
    dpu.mram_rewind(dpu.mram_mark());
    dpu.mram_mirror(query.data(), input.query_rows.data(), 1,
                    query.size() * sizeof(float), "batch-queries");
  }

  void run(QueryKernel& kernel, unsigned tasklets) {
    push();
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
          img.run(kernel, t);
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
  img.push();
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
  img.run(kernel, 24);
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

// --- The fixed-point keys of the UpANNS modes, against a hand-built image:
// one probed cluster of 48 records (3 chunks) under k = 48, so the result
// lists every record's key. Half the records draw their codes from {0, 1},
// which makes triplets repeat often enough for CAE to mine combos.

constexpr std::size_t kKeyRecords = 48;
constexpr std::size_t kKeyClusters = 4;

struct KeyImage {
  pim::Dpu dpu{0};
  DpuStaticLayout layout;
  DpuLaunchInput input;
  std::vector<std::int8_t> codebook;
  std::vector<float> scales, centroids, query;
  ivf::InvertedList list;
  KeyCodec codec;
  std::vector<std::uint16_t> table;  ///< the pushed row
  std::size_t saturated = 0;
  std::size_t static_mark = 0;  ///< end of the cluster image

  /// `far` moves the query `far` units along every axis, past R_s.
  KeyImage(std::size_t m, std::size_t dsub, std::uint64_t seed,
           KernelMode mode, float far = 0.f, std::size_t k = kKeyRecords) {
    common::Rng rng(seed);
    const std::size_t dim = m * dsub;
    layout.m = m;
    layout.dsub = dsub;
    layout.dim = dim;
    codebook.resize(m * 256 * dsub);
    for (auto& c : codebook) {
      c = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
    }
    for (std::size_t s = 0; s < m; ++s) {
      scales.push_back(rng.uniform(0.002f, 0.05f));
    }
    for (std::size_t i = 0; i < kKeyClusters * dim; ++i) {
      centroids.push_back(rng.uniform(-2.f, 2.f));
    }
    for (std::size_t d = 0; d < dim; ++d) {
      query.push_back(centroids[d] + rng.uniform(-1.f, 1.f) + far);
    }
    for (std::uint32_t r = 0; r < kKeyRecords; ++r) {
      list.ids.push_back(1000 + r);
      for (std::size_t s = 0; s < m; ++s) {
        list.codes.push_back(static_cast<std::uint8_t>(
            r % 2 == 0 ? rng.below(2) : rng.below(256)));
      }
    }
    codec = KeyCodec(LutCodebook(codebook.data(), scales.data(), m, dsub),
                     centroids.data(), kKeyClusters, dim);
    layout.unit = codec.unit();

    // Cluster 0's image, exactly as the engine builds it.
    const CaeClusterEncoding enc = mode == KernelMode::kCae
                                       ? cae_encode_cluster(list, m, {})
                                       : direct_encode_cluster(list, m);
    std::vector<std::uint32_t> norms;
    codec.record_norms(0, centroids.data(), list.codes.data(), kKeyRecords,
                       norms);
    std::vector<std::uint16_t> stream;
    std::vector<std::uint32_t> chunks;
    build_record_stream(enc, norms, stream, chunks);
    DpuClusterData cl;
    cl.n_records = kKeyRecords;
    cl.ids_off = put(list.ids.data(), kKeyRecords * sizeof(std::uint32_t));
    cl.stream_off = put(stream.data(), stream.size() * sizeof(std::uint16_t));
    cl.stream_len = stream.size();
    cl.chunk_index_off = put(chunks.data(), chunks.size() * sizeof(std::uint32_t));
    cl.n_chunks = static_cast<std::uint32_t>(chunks.size());
    if (!enc.combos.empty()) {
      std::vector<std::uint8_t> defs;
      for (const CaeCombo& c : enc.combos) {
        defs.insert(defs.end(), {c.pos, c.c0, c.c1, c.c2});
      }
      cl.combos_off = put(defs.data(), defs.size());
      cl.n_combos = static_cast<std::uint32_t>(enc.combos.size());
    }
    layout.clusters.push_back(cl);
    static_mark = dpu.mram_mark();

    table.resize(codec.table_size());
    const double offset = codec.query_table(query.data(), table.data(),
                                            saturated);
    input.k = k;
    input.query_rows = {0};
    input.items.push_back(
        {0, 0,
         codec.pair_key(quant::l2_sq(query.data(), centroids.data(), dim),
                        offset, 0)});
  }

  std::size_t put(const void* src, std::size_t bytes) {
    const std::size_t off = dpu.mram_alloc((bytes + 7) / 8 * 8, "image");
    dpu.host_write(off, src, bytes);
    return off;
  }

  /// Push the table row and the result slots, as PushStage does.
  void push() {
    dpu.mram_rewind(static_mark);
    dpu.mram_mirror(table.data(), input.query_rows.data(), 1,
                    table.size() * sizeof(std::uint16_t), "batch-queries");
    input.results_off = dpu.mram_alloc(input.k * 8, "batch-results");
  }

  /// Sorted keys of one run.
  std::vector<KeyedNeighbor> run(QueryKernel& kernel, unsigned tasklets) {
    push();
    dpu.run(kernel, tasklets);
    return kernel.scratch().result;
  }

  /// Float ADC distance |q - c - y_r|^2 of record r, in double.
  double adc(std::size_t r) const {
    const std::size_t dsub = layout.dsub;
    double acc = 0.0;
    for (std::size_t s = 0; s < layout.m; ++s) {
      const std::uint8_t code = list.codes[r * layout.m + s];
      for (std::size_t d = 0; d < dsub; ++d) {
        const double y =
            scales[s] *
            static_cast<float>(codebook[(s * 256 + code) * dsub + d]);
        const double diff = static_cast<double>(query[s * dsub + d]) -
                            centroids[s * dsub + d] - y;
        acc += diff * diff;
      }
    }
    return acc;
  }
};

TEST(KeyTables, WithinRoundingOfFloatAdcAtEveryShapeLevelAndTaskletCount) {
  // Every key is K_pair + m table entries + n_r, each rounded once to the
  // unit, so U * key sits within (m + 2) * U / 2 of the float ADC distance
  // (o_q is folded into K_pair). Keys also repeat bit for bit across SIMD
  // levels and tasklet counts, and kCae's combo sums reproduce
  // kDirectTokens' keys exactly.
  LevelGuard guard;
  for (const std::size_t m : {std::size_t{12}, std::size_t{16},
                              std::size_t{20}}) {
    for (const std::size_t dsub : {std::size_t{8}, std::size_t{6},
                                   std::size_t{5}}) {
      const std::uint64_t seed = 300 + m * 10 + dsub;
      KeyImage direct(m, dsub, seed, KernelMode::kDirectTokens);
      KeyImage cae(m, dsub, seed, KernelMode::kCae);
      ASSERT_GT(cae.layout.clusters[0].n_combos, 0u);
      ASSERT_EQ(direct.saturated, 0u);
      const double unit = direct.codec.unit();
      std::vector<KeyedNeighbor> want;
      for (const auto level : supported_levels()) {
        common::set_simd_level(level);
        for (const unsigned t : {1u, 2u, 3u, 11u, 16u, 24u}) {
          for (KeyImage* img : {&direct, &cae}) {
            const KernelMode mode = img == &direct ? KernelMode::kDirectTokens
                                                   : KernelMode::kCae;
            QueryKernel kernel(img->layout, img->input, mode,
                               /*prune_topk=*/true);
            const std::vector<KeyedNeighbor> got = img->run(kernel, t);
            const std::string where =
                "m=" + std::to_string(m) + " dsub=" + std::to_string(dsub) +
                " level=" + common::simd_level_name(level) +
                " tasklets=" + std::to_string(t) +
                (mode == KernelMode::kCae ? " cae" : " direct");
            ASSERT_EQ(got.size(), kKeyRecords) << where;
            if (want.empty()) want = got;
            for (std::size_t i = 0; i < got.size(); ++i) {
              EXPECT_EQ(got[i].key, want[i].key) << where;
              EXPECT_EQ(got[i].id, want[i].id) << where;
              const double dist = unit * static_cast<double>(got[i].key);
              EXPECT_NEAR(dist, img->adc(got[i].id - 1000),
                          static_cast<double>(m + 2) * unit / 2)
                  << where << " id=" << got[i].id;
            }
          }
        }
      }
    }
  }
}

TEST(KeyTables, HostConversionOfGatheredKeysMatchesTheDpuSideFormula) {
  // S5 ships raw i32 keys; the host's key_distance must reproduce bit for
  // bit the U * key the DPU used to store: static_cast<float>(U * key).
  for (const KernelMode mode : {KernelMode::kDirectTokens, KernelMode::kCae}) {
    KeyImage img(16, 8, 77, mode);
    QueryKernel kernel(img.layout, img.input, mode, /*prune_topk=*/true);
    const std::vector<KeyedNeighbor> result = img.run(kernel, 11);
    ASSERT_EQ(result.size(), kKeyRecords);
    std::vector<std::uint32_t> slot(2 * img.input.k);
    img.dpu.host_read(img.input.results_off, slot.data(),
                      slot.size() * sizeof(std::uint32_t));
    for (std::size_t i = 0; i < result.size(); ++i) {
      const auto key = static_cast<std::int32_t>(slot[2 * i]);
      EXPECT_EQ(key, result[i].key);
      EXPECT_EQ(slot[2 * i + 1], result[i].id);
      const float dpu_side = static_cast<float>(
          img.layout.unit * static_cast<double>(result[i].key));
      const float host = key_distance(key, img.layout.unit);
      EXPECT_EQ(std::memcmp(&host, &dpu_side, sizeof(float)), 0)
          << "slot " << i;
    }
  }
  // Negative and extreme keys convert the same way.
  for (const std::int32_t key : {-(1 << 30), -1, 0, 1, 12345, 1 << 30}) {
    const double unit = 0.0123456789;
    const float want = static_cast<float>(unit * static_cast<double>(key));
    const float got = key_distance(key, unit);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0) << key;
  }
}

TEST(KeyTables, QueryFarOutsideTheRecordsSaturatesAndIsCounted) {
  KeyImage near(16, 8, 5, KernelMode::kDirectTokens);
  EXPECT_EQ(near.saturated, 0u);
  KeyImage far(16, 8, 5, KernelMode::kDirectTokens, /*far=*/1e4f);
  EXPECT_GT(far.saturated, 0u);
  std::size_t capped = 0;
  for (const std::uint16_t e : far.table) capped += e == 65535 ? 1 : 0;
  EXPECT_EQ(capped, far.saturated);

  // The engine books the same count per batch when metrics are attached.
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, tiny_options(false));
  obs::MetricsRegistry reg;
  engine.set_metrics(&reg);
  engine.search(f.wl.queries);
  EXPECT_EQ(reg.counter("pim.table.saturated_entries").value(), 0u);
  data::Dataset outlier = f.wl.queries;
  for (float& v : outlier.values) v += 1e4f;
  engine.search(outlier);
  EXPECT_GT(reg.counter("pim.table.saturated_entries").value(), 0u);
}

TEST(KeyTables, WramFitsAtMaxTaskletsForEveryFamily) {
  // deep (m=12, dsub=8), sift (16, 8) and spacev (20, 5) at 24 tasklets and
  // the engine's k=10: heaps, combo cache, u16 table and the stream buffers.
  for (const auto& [m, dsub] :
       {std::pair<std::size_t, std::size_t>{12, 8}, {16, 8}, {20, 5}}) {
    for (const KernelMode mode :
         {KernelMode::kDirectTokens, KernelMode::kCae}) {
      KeyImage img(m, dsub, 5, mode, 0.f, /*k=*/10);
      QueryKernel kernel(img.layout, img.input, mode, true);
      EXPECT_NO_THROW(img.run(kernel, 24)) << "m=" << m << " dsub=" << dsub;
      EXPECT_LE(img.dpu.wram().high_water(), hw::kWramBytes);
    }
  }
}

/// Summed per-phase instructions of one run at `t` tasklets.
std::vector<std::uint64_t> phase_instructions(KeyImage& img, KernelMode mode,
                                              unsigned t) {
  QueryKernel kernel(img.layout, img.input, mode, /*prune_topk=*/true);
  img.push();
  kernel.setup(img.dpu, t);
  std::vector<std::uint64_t> out(kernel.n_phases(), 0);
  for (unsigned ph = 0; ph < kernel.n_phases(); ++ph) {
    for (unsigned id = 0; id < t; ++id) {
      pim::TaskletCtx ctx(img.dpu, id, t);
      kernel.run_phase(ph, ctx);
      out[ph] += ctx.work().instructions;
    }
  }
  return out;
}

TEST(KeyTables, ScanChargesTheRecordFormulaAndS0OnlyTheTableSlices) {
  // The distance phase charges 3 per token, 5 per record and one heap push
  // per record (k covers the cluster, so every record enters its heap) —
  // the same formula as before the keys went integer. The per-query S0
  // charges only its DMA slice setup, 4 per tasklet holding blocks.
  for (const KernelMode mode : {KernelMode::kDirectTokens, KernelMode::kCae}) {
    KeyImage img(16, 8, 11, mode);
    const CaeClusterEncoding enc =
        mode == KernelMode::kCae ? cae_encode_cluster(img.list, 16, {})
                                 : direct_encode_cluster(img.list, 16);
    for (const unsigned t : {1u, 11u, 24u}) {
      const std::vector<std::uint64_t> instr = phase_instructions(img, mode, t);
      const std::size_t distance = instr.size() - 2;  // before the merge
      std::uint64_t lg = 1;
      while ((1ull << lg) < kKeyRecords + 1) ++lg;
      EXPECT_EQ(instr[distance], enc.total_tokens * 3 + kKeyRecords * 5 +
                                     kKeyRecords * (2 * lg + 4))
          << "tasklets=" << t;
      const std::uint64_t slices = std::min<std::uint64_t>(t, 16 * 256 / 8);
      EXPECT_EQ(instr[0], 4 * slices) << "tasklets=" << t;
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
