// The cluster-workload model (core/workload_model.hpp): its derivation from
// the cycles the kernel charges, the per-record-only default that pins the
// paper's W_i = s_i * f_i, placement and adaptation sizing replicas alike,
// and the invariant that placement and scheduling move only where work
// runs — neighbors stay bit-identical.
#include "core/workload_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/hw_specs.hpp"
#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "obs/metrics.hpp"
#include "pim/transfer.hpp"

namespace upanns::core {
namespace {

TEST(WorkloadModel, DefaultIsThePapersPerRecordModelExactly) {
  const WorkloadModel legacy;
  EXPECT_EQ(legacy.per_record, 1.0);
  EXPECT_EQ(legacy.per_query, 0.0);
  for (const std::size_t s : {std::size_t{1}, std::size_t{37},
                              std::size_t{123457}}) {
    for (const double f : {0.0, 1e-7, 0.013, 0.3333333333333333}) {
      // Bit-equal to s * f, the W_i every caller used before the model.
      EXPECT_EQ(legacy.cluster(s, f), static_cast<double>(s) * f);
    }
  }
  const std::vector<std::size_t> sizes = {10, 0, 7, 300};
  const std::vector<double> freqs = {0.1, 0.5, 0.3, 0.1};
  const double total = 10 * 0.1 + 0.0 + 7 * 0.3 + 300 * 0.1;
  EXPECT_EQ(legacy.average(sizes, freqs, 4), total / 4.0);
}

TEST(WorkloadModel, ClusterChargesRecordsAndQueriesAndNothingWhenEmpty) {
  const WorkloadModel m{2.0, 100.0};
  EXPECT_DOUBLE_EQ(m.cluster(50, 0.25), 0.25 * (50 * 2.0 + 100.0));
  // An empty (or masked) cluster is reached by no query.
  EXPECT_EQ(m.cluster(0, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(m.average({50, 0}, {0.25, 0.75}, 5),
                   0.25 * (50 * 2.0 + 100.0) / 5.0);
  EXPECT_EQ(m.average({50}, {1.0}, 0), 0.0);
}

TEST(WorkloadModel, ReplicasIsAlgorithmOnesCeilClampedToOneAndCap) {
  EXPECT_EQ(WorkloadModel::replicas(0.0, 10.0, 8), 1u);
  EXPECT_EQ(WorkloadModel::replicas(10.0, 10.0, 8), 1u);
  EXPECT_EQ(WorkloadModel::replicas(10.5, 10.0, 8), 2u);
  EXPECT_EQ(WorkloadModel::replicas(70.0, 10.0, 8), 7u);
  EXPECT_EQ(WorkloadModel::replicas(1e6, 10.0, 8), 8u);
  // W-bar of zero (nothing probed): every cluster keeps one copy.
  EXPECT_EQ(WorkloadModel::replicas(0.0, 0.0, 8), 1u);
}

TEST(WorkloadModel, ReplicaSizingIsAlgorithmOnesNcpyUnderTheModel) {
  const ReplicaSizing sizing = ReplicaSizing::of(
      WorkloadModel{1.0, 300.0}, {10, 400, 0}, {0.5, 0.5, 0.0}, 4);
  // W-bar = (0.5 * 310 + 0.5 * 700) / 4; at most one copy per DPU.
  EXPECT_DOUBLE_EQ(sizing.w_bar, 505.0 / 4.0);
  EXPECT_EQ(sizing.cap, 4u);
  // The small hub asks for ceil(155 / 126.25) = 2 copies, the large list
  // for ceil(350 / 126.25) = 3; per record they would take 1 and 4.
  EXPECT_EQ(sizing.replicas(10, 0.5), 2u);
  EXPECT_EQ(sizing.replicas(400, 0.5), 3u);
  const ReplicaSizing paper =
      ReplicaSizing::of(WorkloadModel{}, {10, 400, 0}, {0.5, 0.5, 0.0}, 4);
  EXPECT_EQ(paper.replicas(10, 0.5), 1u);
  EXPECT_EQ(paper.replicas(400, 0.5), 4u);
}

// ----- Engine: a perfbench-shaped index (sift-like, dim 128, PQ m = 16,
// 256 lists, 64 DPUs, nprobe 32, k 10, Zipf-region queries), smaller n.

struct PerfShape {
  data::Dataset base =
      data::generate_synthetic(data::sift1b_like(30'000, 71));
  ivf::IvfIndex index = build();
  data::Dataset queries = workload(256, 5);
  ivf::ClusterStats stats = ivf::collect_stats(
      index, ivf::filter_batch(index, workload(512, 6), 32));

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions o;
    o.n_clusters = 256;
    o.pq_m = 16;
    o.coarse_iters = 4;
    o.pq_iters = 4;
    o.coarse_train_points = 20'000;
    o.pq_train_points = 10'000;
    return ivf::IvfIndex::build(base, o);
  }
  data::Dataset workload(std::size_t n, std::uint64_t seed) const {
    data::WorkloadSpec w;
    w.n_queries = n;
    w.seed = seed;
    return data::generate_workload(base, w).queries;
  }
  static UpAnnsOptions options() {
    UpAnnsOptions o = UpAnnsOptions::upanns();
    o.n_dpus = 64;
    o.nprobe = 32;
    o.k = 10;
    return o;
  }
};

PerfShape& perf_shape() {
  static PerfShape s;
  return s;
}

struct Served {
  std::vector<std::vector<common::Neighbor>> neighbors;
  double max_rows = 0;  ///< largest pim.push.max_rows over the batches
  double seconds = 0;
};

Served serve(UpAnnsEngine& engine, const data::Dataset& queries) {
  obs::MetricsRegistry reg;
  engine.set_metrics(&reg);
  Served out;
  for (const data::Dataset& b : split_batches(queries, 128)) {
    const SearchReport r = engine.search(b);
    out.neighbors.insert(out.neighbors.end(), r.neighbors.begin(),
                         r.neighbors.end());
    out.max_rows = std::max(out.max_rows, reg.gauge("pim.push.max_rows").value());
    out.seconds += r.times.total();
  }
  engine.set_metrics(nullptr);
  return out;
}

TEST(WorkloadModel, DerivedModelPredictsWhatTheSimulatorCharges) {
  // The model comes from a calibration launch on one synthetic list of the
  // mean probed size; here a real launch on one DPU, one query probing
  // every list of the perfbench-shaped index (117 records a list on
  // average), is charged within 25% of it: scan cycles per record
  // (measured 1.03x and 0.90x the model at 11 and 16 tasklets), and S0 + S5
  // cycles against per_query less its row of push and gather (1.05x and
  // 1.19x; the real keys' merge inserts more than the synthetic ones).
  // Direct tokens keep S0 alone in lut_build.
  PerfShape& f = perf_shape();
  std::vector<std::uint32_t> lists;
  for (std::uint32_t c = 0; c < f.index.n_clusters(); ++c) {
    if (f.index.list(c).size() > 0) lists.push_back(c);
  }
  const ivf::ClusterStats stats = ivf::collect_stats(f.index, {lists});
  for (const unsigned tasklets : {11u, 16u}) {
    UpAnnsOptions o = PerfShape::options();
    o.opt_cae = false;
    o.n_dpus = 1;
    o.n_tasklets = tasklets;
    UpAnnsEngine engine(f.index, stats, o);
    const WorkloadModel model = engine.workload_model();

    data::Dataset query;
    query.n = 1;
    query.dim = f.index.dim();
    query.values.assign(f.index.centroid(lists.front()),
                        f.index.centroid(lists.front()) + f.index.dim());
    const SearchReport r = engine.search_with_probes(query, {lists});
    const auto& stage = r.pim->dpu_stage_seconds[0];
    const double freq = hw::kDpuFreqHz;
    const double scan_per_record =
        stage.dist * freq / static_cast<double>(r.pim->scanned_records);
    EXPECT_NEAR(scan_per_record / model.per_record, 1.0, 0.25) << tasklets;

    DpuStaticLayout shape;
    shape.m = f.index.pq_m();
    const double row =
        pim::TransferEngine::uniform(
            1, query_row_bytes(shape, KernelMode::kDirectTokens) + o.k * 8)
            .seconds *
        freq;
    EXPECT_NEAR((stage.lut + stage.topk) * freq / (model.per_query - row), 1.0,
                0.25)
        << tasklets;
  }
}

TEST(WorkloadModel, NeighborsDoNotDependOnPlacementOrSchedule) {
  // The derived model moves replicas and assignments; every (query,
  // cluster) pair still scans one byte-identical replica, so results match
  // an engine with random placement and the naive schedule.
  PerfShape& f = perf_shape();
  UpAnnsEngine derived(f.index, f.stats, PerfShape::options());
  UpAnnsOptions plain = PerfShape::options();
  plain.opt_placement = false;
  plain.opt_scheduling = false;
  UpAnnsEngine unbalanced(f.index, f.stats, plain);
  EXPECT_NE(derived.placement().cluster_dpus,
            unbalanced.placement().cluster_dpus);
  EXPECT_EQ(serve(derived, f.queries).neighbors,
            serve(unbalanced, f.queries).neighbors);
}

TEST(WorkloadModel, DerivedModelSpreadsTheHubsQueries) {
  // Placement and schedule under the engine's model next to the paper's
  // per-record ones: the busiest DPU serves fewer distinct queries of a
  // batch, which is the row count that pads every DPU's push.
  PerfShape& f = perf_shape();
  UpAnnsEngine engine(f.index, f.stats, PerfShape::options());
  const WorkloadModel model = engine.workload_model();
  PlacementOptions po;
  po.n_dpus = PerfShape::options().n_dpus;
  EXPECT_EQ(place_clusters(f.index, f.stats, po, model).cluster_dpus,
            engine.placement().cluster_dpus);
  const Placement records = place_clusters(f.index, f.stats, po);
  EXPECT_NE(records.cluster_dpus, engine.placement().cluster_dpus);

  const std::vector<std::size_t> sizes = f.index.list_sizes();
  const auto busiest_rows = [](const Schedule& s) {
    std::size_t rows = 0;
    for (const auto& assigns : s.per_dpu) {
      std::vector<std::uint32_t> queries;
      for (const Assignment& a : assigns) queries.push_back(a.query);
      std::sort(queries.begin(), queries.end());
      rows = std::max<std::size_t>(
          rows, std::unique(queries.begin(), queries.end()) - queries.begin());
    }
    return rows;
  };
  for (const data::Dataset& b : split_batches(f.queries, 128)) {
    const auto probes = ivf::filter_batch(f.index, b, 32);
    EXPECT_LT(busiest_rows(schedule_queries(probes, engine.placement(), sizes,
                                            model)),
              busiest_rows(schedule_queries(probes, records, sizes)));
  }
}

TEST(WorkloadModel, AdaptationAsksForThePlacementsCopiesRightAfterBuild) {
  // Placement and adaptation share ReplicaSizing: under the traffic the
  // engine was placed for, recommend_for wants no copy changed, even with
  // the thresholds at zero so that any difference would surface.
  PerfShape& f = perf_shape();
  UpAnnsEngine engine(f.index, f.stats, PerfShape::options());
  AdaptiveOptions ao;
  ao.minor_threshold = 0.0;
  ao.copy_change_fraction = 0.0;
  AdaptiveController ctl(f.index.n_clusters(), ao);
  ctl.set_baseline(f.stats.frequencies);
  const AdaptReport rep = ctl.recommend_for(
      engine.placement(), f.index.list_sizes(), engine.workload_model(),
      /*allow_relocate=*/true);
  EXPECT_TRUE(rep.adjustments.empty());
  std::size_t replicated = 0;
  for (const auto& dpus : engine.placement().cluster_dpus) {
    replicated += dpus.size() > 1;
  }
  EXPECT_GT(replicated, 0u);
}

TEST(WorkloadModel, NaiveEngineKeepsThePerRecordModel) {
  PerfShape& f = perf_shape();
  UpAnnsEngine naive(f.index, f.stats, [] {
    UpAnnsOptions o = UpAnnsOptions::pim_naive();
    o.n_dpus = 64;
    o.nprobe = 32;
    return o;
  }());
  EXPECT_EQ(naive.workload_model().per_record, 1.0);
  EXPECT_EQ(naive.workload_model().per_query, 0.0);
}

}  // namespace
}  // namespace upanns::core
