#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "baselines/cpu_ivfpq.hpp"
#include "core/pipeline.hpp"
#include "data/ground_truth.hpp"
#include "replica_images.hpp"

namespace upanns::core {
namespace {

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::sift1b_like(9000, 51));
  ivf::IvfIndex index = build();
  data::QueryWorkload wl;
  ivf::ClusterStats stats;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 48;
    opts.pq_m = 16;
    opts.coarse_iters = 6;
    opts.pq_iters = 5;
    return ivf::IvfIndex::build(base, opts);
  }

  Fixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 24;
    spec.seed = 4;
    wl = data::generate_workload(base, spec);
    data::WorkloadSpec hist = spec;
    hist.seed = 5;
    hist.n_queries = 128;
    const auto hw = data::generate_workload(base, hist);
    stats = ivf::collect_stats(index, ivf::filter_batch(index, hw.queries, 8));
  }

  UpAnnsOptions small(bool naive = false) const {
    UpAnnsOptions o = naive ? UpAnnsOptions::pim_naive()
                            : UpAnnsOptions::upanns();
    o.n_dpus = 12;
    o.nprobe = 8;
    o.k = 10;
    return o;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// Distances returned per query, for approximate set comparison.
std::vector<float> dists_of(const std::vector<common::Neighbor>& v) {
  std::vector<float> d;
  for (const auto& n : v) d.push_back(n.dist);
  return d;
}

TEST(Engine, RecallMatchesCpuBaselineWithinTolerance) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.small());
  const auto pim = engine.search(f.wl.queries);

  baselines::CpuIvfpqSearcher cpu(f.index);
  baselines::SearchParams p;
  p.nprobe = 8;
  p.k = 10;
  const auto ref = cpu.search(f.wl.queries, p);

  const auto gt = data::exact_topk(f.base, f.wl.queries, 10);
  const double r_pim = data::recall_at_k(gt, pim.neighbors, 10);
  const double r_cpu = data::recall_at_k(gt, ref.neighbors, 10);
  // The PIM path quantizes the codebook (int8) and LUT (u16); accuracy must
  // stay within a few points of the float pipeline (paper: optimizations do
  // not impact accuracy).
  EXPECT_NEAR(r_pim, r_cpu, 0.05);
  EXPECT_GT(r_pim, 0.4);
}

TEST(Engine, UpannsAndNaiveReturnSameResults) {
  // Placement, scheduling, CAE and pruning are exact transformations: the
  // naive and optimized PIM paths share the quantized distance pipeline and
  // must retrieve the same neighbors (up to distance ties).
  auto& f = fixture();
  UpAnnsEngine up(f.index, f.stats, f.small(false));
  UpAnnsEngine naive(f.index, f.stats, f.small(true));
  const auto a = up.search(f.wl.queries);
  const auto b = naive.search(f.wl.queries);
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
  for (std::size_t q = 0; q < a.neighbors.size(); ++q) {
    const auto da = dists_of(a.neighbors[q]);
    const auto db = dists_of(b.neighbors[q]);
    ASSERT_EQ(da.size(), db.size()) << "query " << q;
    for (std::size_t i = 0; i < da.size(); ++i) {
      EXPECT_NEAR(da[i], db[i], 1e-3f * (1.f + da[i]));
    }
  }
}

TEST(Engine, PruningDoesNotChangeResults) {
  auto& f = fixture();
  UpAnnsOptions with = f.small();
  UpAnnsOptions without = f.small();
  without.opt_prune_topk = false;
  UpAnnsEngine a(f.index, f.stats, with);
  UpAnnsEngine b(f.index, f.stats, without);
  const auto ra = a.search(f.wl.queries);
  const auto rb = b.search(f.wl.queries);
  for (std::size_t q = 0; q < ra.neighbors.size(); ++q) {
    EXPECT_EQ(ra.neighbors[q], rb.neighbors[q]) << "query " << q;
  }
  // ...but it must actually skip comparisons (Fig 15's mechanism).
  EXPECT_GT(ra.pim->merge_pruned, 0u);
  EXPECT_EQ(rb.pim->merge_pruned, 0u);
  EXPECT_LT(ra.pim->merge_insertions, rb.pim->merge_insertions);
}

TEST(Engine, CaeDoesNotChangeResults) {
  auto& f = fixture();
  UpAnnsOptions with = f.small();
  UpAnnsOptions without = f.small();
  without.opt_cae = false;
  UpAnnsEngine a(f.index, f.stats, with);
  UpAnnsEngine b(f.index, f.stats, without);
  const auto ra = a.search(f.wl.queries);
  const auto rb = b.search(f.wl.queries);
  for (std::size_t q = 0; q < ra.neighbors.size(); ++q) {
    EXPECT_EQ(ra.neighbors[q], rb.neighbors[q]);
  }
  EXPECT_GT(ra.pim->length_reduction, 0.0);
  EXPECT_NEAR(rb.pim->length_reduction, 0.0, 1e-9);
}

TEST(Engine, CaeReducesDistanceStageWork) {
  auto& f = fixture();
  UpAnnsOptions with = f.small();
  UpAnnsOptions without = f.small();
  without.opt_cae = false;
  UpAnnsEngine a(f.index, f.stats, with);
  UpAnnsEngine b(f.index, f.stats, without);
  const auto ra = a.search(f.wl.queries);
  const auto rb = b.search(f.wl.queries);
  EXPECT_LT(ra.times.distance_calc, rb.times.distance_calc);
}

TEST(Engine, PlacementImprovesBalance) {
  auto& f = fixture();
  UpAnnsOptions smart = f.small();
  UpAnnsOptions naive = f.small(true);
  UpAnnsEngine a(f.index, f.stats, smart);
  UpAnnsEngine b(f.index, f.stats, naive);
  const auto ra = a.search(f.wl.queries);
  const auto rb = b.search(f.wl.queries);
  EXPECT_LT(ra.pim->schedule_balance, rb.pim->schedule_balance);
  EXPECT_GE(ra.pim->schedule_balance, 1.0 - 1e-9);
}

TEST(Engine, ReportFieldsSane) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.small());
  const auto r = engine.search(f.wl.queries);
  EXPECT_EQ(r.neighbors.size(), f.wl.queries.n);
  EXPECT_GT(r.qps, 0.0);
  EXPECT_GT(r.qps_per_watt, 0.0);
  EXPECT_GT(r.times.lut_build, 0.0);
  EXPECT_GT(r.times.distance_calc, 0.0);
  EXPECT_GT(r.times.topk, 0.0);
  EXPECT_GT(r.times.transfer, 0.0);
  EXPECT_GT(r.pim->bytes_pushed, 0u);
  EXPECT_GT(r.pim->bytes_gathered, 0u);
  EXPECT_TRUE(r.pim->push_parallel);
  EXPECT_EQ(r.pim->n_dpus, 12u);
  EXPECT_EQ(r.pim->dpu_stage_seconds.size(), 12u);
  EXPECT_GT(r.pim->scanned_records, 0u);
}

TEST(Engine, AtScaleScalesDistanceOnly) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.small());
  const auto r = engine.search(f.wl.queries);
  const auto s = r.at_scale(100.0, 1.0);
  EXPECT_NEAR(s.times.distance_calc / r.times.distance_calc, 100.0, 20.0);
  EXPECT_DOUBLE_EQ(s.times.transfer, r.times.transfer);
  EXPECT_LT(s.qps, r.qps);
}

TEST(Engine, SearchIsRepeatable) {
  // MRAM scratch is rewound between batches: a second identical search must
  // return identical results and not grow MRAM.
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.small());
  const auto a = engine.search(f.wl.queries);
  const auto b = engine.search(f.wl.queries);
  for (std::size_t q = 0; q < a.neighbors.size(); ++q) {
    EXPECT_EQ(a.neighbors[q], b.neighbors[q]);
  }
}

TEST(Engine, RelocateKeepsResults) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.small());
  const auto before = engine.search(f.wl.queries);
  engine.relocate(f.stats);  // adaptive re-placement (Sec 4.1.2)
  const auto after = engine.search(f.wl.queries);
  for (std::size_t q = 0; q < before.neighbors.size(); ++q) {
    EXPECT_EQ(before.neighbors[q], after.neighbors[q]);
  }
}

TEST(Engine, AdaptedAndRelocatedReplicaImagesMatchFreshLoad) {
  // Record streams carry each record's norm term, which depends only on the
  // frozen quantizers and the record, so every replica of a cluster —
  // loaded, adapted or relocated — is byte-identical.
  auto& f = fixture();
  UpAnnsEngine fresh(f.index, f.stats, f.small());
  const auto want = test_support::replica_images(fresh);
  ASSERT_FALSE(want.empty());

  // Copy adjustment: retire a replica of a replicated cluster (its regions
  // return to the free list), then add replicas that load into reused
  // regions.
  UpAnnsEngine adapted(f.index, f.stats, f.small());
  std::uint32_t replicated = 0, single = 0;
  for (std::uint32_t c = 0; c < f.index.n_clusters(); ++c) {
    const std::size_t n = adapted.placement().cluster_dpus[c].size();
    if (n >= 2) replicated = c;
    if (n == 1 && f.index.list(c).size() > 0) single = c;
  }
  ASSERT_GE(adapted.placement().cluster_dpus[replicated].size(), 2u);
  const auto retired =
      adapted.apply_copy_adjustments({{replicated, -1}}, f.stats.frequencies);
  EXPECT_EQ(retired.replicas_retired, 1u);
  const auto added = adapted.apply_copy_adjustments(
      {{single, +2}, {replicated, +1}}, f.stats.frequencies);
  EXPECT_GT(added.replicas_added, 0u);
  EXPECT_EQ(test_support::replica_images(adapted), want);

  // Relocation under a different traffic profile reloads every image.
  UpAnnsEngine relocated(f.index, f.stats, f.small());
  ivf::ClusterStats flat = f.stats;
  std::fill(flat.frequencies.begin(), flat.frequencies.end(),
            1.0 / static_cast<double>(flat.frequencies.size()));
  for (std::size_t c = 0; c < flat.workloads.size(); ++c) {
    flat.workloads[c] = static_cast<double>(flat.sizes[c]) * flat.frequencies[c];
  }
  relocated.relocate(flat);
  EXPECT_EQ(test_support::replica_images(relocated), want);
  EXPECT_EQ(relocated.search(f.wl.queries).neighbors,
            fresh.search(f.wl.queries).neighbors);
}

TEST(Engine, MoreTaskletsNotSlower) {
  auto& f = fixture();
  UpAnnsOptions one = f.small();
  one.n_tasklets = 1;
  UpAnnsOptions eleven = f.small();
  eleven.n_tasklets = 11;
  UpAnnsEngine a(f.index, f.stats, one);
  UpAnnsEngine b(f.index, f.stats, eleven);
  const double t1 = a.search(f.wl.queries).times.total();
  const double t11 = b.search(f.wl.queries).times.total();
  EXPECT_GT(t1, 2.0 * t11);  // Fig 13: large speedup from multithreading
}

TEST(Engine, LargerMramReadsNotSlower) {
  auto& f = fixture();
  UpAnnsOptions small_reads = f.small();
  small_reads.mram_read_vectors = 2;
  UpAnnsOptions big_reads = f.small();
  big_reads.mram_read_vectors = 16;
  UpAnnsEngine a(f.index, f.stats, small_reads);
  UpAnnsEngine b(f.index, f.stats, big_reads);
  // Fig 17: small DMA granularity pays the setup cost repeatedly.
  EXPECT_GT(a.search(f.wl.queries).times.distance_calc,
            b.search(f.wl.queries).times.distance_calc);
}

TEST(Engine, AtScaleUsesTargetDpuCountForPower) {
  // Satellite fix: extrapolated QPS/W must be computed at the DPU count the
  // extrapolation targets (dpu_factor = actual / target), not the measured
  // one. 12 measured DPUs with dpu_factor = 12/896 -> an 896-DPU target.
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.small());
  const auto r = engine.search(f.wl.queries);
  const double dpu_factor = 12.0 / 896.0;
  const auto s = r.at_scale(50.0, dpu_factor);
  EXPECT_EQ(s.pim->n_dpus, 896u);
  EXPECT_NEAR(s.qps_per_watt,
              pim::qps_per_watt(s.qps, pim::Platform::kPim, 896), 1e-12);
  // Unity dpu_factor keeps the measured count.
  EXPECT_EQ(r.at_scale(50.0, 1.0).pim->n_dpus, 12u);
}

TEST(Engine, AtScaleRequiresPimExtras) {
  SearchReport plain;
  EXPECT_THROW(plain.at_scale(10.0), std::logic_error);
}

TEST(Engine, RuntimeSettersValidate) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.small());
  EXPECT_THROW(engine.set_k(0), std::invalid_argument);
  EXPECT_THROW(engine.set_nprobe(0), std::invalid_argument);
  engine.set_k(5);
  engine.set_nprobe(4);
  engine.set_mram_read_vectors(0);  // 0 = one maximal DMA per chunk
  EXPECT_EQ(engine.options().k, 5u);
  EXPECT_EQ(engine.options().nprobe, 4u);
  EXPECT_EQ(engine.options().mram_read_vectors, 0u);
  const auto r = engine.search(f.wl.queries);
  EXPECT_EQ(r.neighbors.size(), f.wl.queries.n);
  for (const auto& nb : r.neighbors) EXPECT_LE(nb.size(), 5u);
}

TEST(Engine, ZeroDpusRejected) {
  auto& f = fixture();
  UpAnnsOptions bad = f.small();
  bad.n_dpus = 0;
  EXPECT_THROW(UpAnnsEngine(f.index, f.stats, bad), std::invalid_argument);
}

}  // namespace
}  // namespace upanns::core
