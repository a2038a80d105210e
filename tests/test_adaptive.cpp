#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/engine.hpp"
#include "core/placement.hpp"
#include "data/query_workload.hpp"
#include "mram_writes.hpp"
#include "obs/metrics.hpp"

namespace upanns::core {
namespace {

// Synthetic probe batches: every query hits cluster `hot` plus a rotating
// filler cluster.
std::vector<std::vector<std::uint32_t>> batch_hitting(std::uint32_t hot,
                                                      std::size_t n_clusters,
                                                      std::size_t n_queries) {
  std::vector<std::vector<std::uint32_t>> probes;
  for (std::size_t q = 0; q < n_queries; ++q) {
    probes.push_back(
        {hot, static_cast<std::uint32_t>(q % n_clusters)});
  }
  return probes;
}

TEST(Adaptive, RejectsZeroClusters) {
  EXPECT_THROW(AdaptiveController(0), std::invalid_argument);
}

TEST(Adaptive, NoDriftNoAction) {
  AdaptiveController ctl(8);
  std::vector<double> base(8, 0.125);
  ctl.set_baseline(base);
  // Traffic matching the uniform baseline.
  std::vector<std::vector<std::uint32_t>> probes;
  for (std::uint32_t c = 0; c < 8; ++c) probes.push_back({c});
  for (int i = 0; i < 10; ++i) ctl.observe_batch(probes);
  EXPECT_LT(ctl.drift(), 0.01);

  const std::vector<std::size_t> sizes(8, 100);
  const std::vector<std::size_t> copies(8, 1);
  const auto rec = ctl.recommend(sizes, copies, 100.0);
  EXPECT_EQ(rec.action, AdaptAction::kNone);
  EXPECT_TRUE(rec.adjustments.empty());
}

TEST(Adaptive, DriftGrowsTowardShiftedTraffic) {
  AdaptiveController ctl(16);
  std::vector<double> base(16, 1.0 / 16);
  ctl.set_baseline(base);
  double prev = ctl.drift();
  for (int i = 0; i < 6; ++i) {
    ctl.observe_batch(batch_hitting(3, 16, 64));
    EXPECT_GE(ctl.drift(), prev - 1e-12);
    prev = ctl.drift();
  }
  EXPECT_GT(ctl.drift(), 0.2);
}

TEST(Adaptive, MajorShiftTriggersRelocation) {
  AdaptiveOptions opts;
  opts.major_threshold = 0.3;
  AdaptiveController ctl(16, opts);
  std::vector<double> base(16, 1.0 / 16);
  ctl.set_baseline(base);
  // All traffic collapses onto cluster 7.
  std::vector<std::vector<std::uint32_t>> probes(64, {7u});
  for (int i = 0; i < 12; ++i) ctl.observe_batch(probes);
  const std::vector<std::size_t> sizes(16, 100);
  const std::vector<std::size_t> copies(16, 1);
  const auto rec = ctl.recommend(sizes, copies, 50.0);
  EXPECT_EQ(rec.action, AdaptAction::kRelocate);
  EXPECT_GT(rec.drift, 0.3);
}

TEST(Adaptive, MinorShiftAdjustsCopies) {
  AdaptiveOptions opts;
  opts.minor_threshold = 0.05;
  opts.major_threshold = 0.9;  // never relocate in this test
  AdaptiveController ctl(8, opts);
  std::vector<double> base(8, 0.125);
  ctl.set_baseline(base);
  for (int i = 0; i < 8; ++i) ctl.observe_batch(batch_hitting(2, 8, 64));

  const std::vector<std::size_t> sizes(8, 1000);
  const std::vector<std::size_t> copies(8, 1);
  // Average per-DPU workload small enough that the hot cluster now wants
  // several replicas.
  const auto rec = ctl.recommend(sizes, copies, 150.0);
  EXPECT_EQ(rec.action, AdaptAction::kAdjustCopies);
  bool hot_gets_more = false;
  for (const auto& adj : rec.adjustments) {
    if (adj.cluster == 2) hot_gets_more = adj.delta > 0;
  }
  EXPECT_TRUE(hot_gets_more);
}

TEST(Adaptive, BaselineResetClearsDrift) {
  AdaptiveController ctl(8);
  std::vector<double> base(8, 0.125);
  ctl.set_baseline(base);
  for (int i = 0; i < 8; ++i) ctl.observe_batch(batch_hitting(1, 8, 32));
  EXPECT_GT(ctl.drift(), 0.1);
  // Rebuilding placement installs the estimate as the new baseline.
  ctl.set_baseline(ctl.estimate());
  EXPECT_NEAR(ctl.drift(), 0.0, 1e-12);
}

TEST(Adaptive, EmptyBatchIgnored) {
  AdaptiveController ctl(4);
  const auto est_before = ctl.estimate();
  ctl.observe_batch({});
  ctl.observe_batch({{99u}});  // out-of-range ids only
  EXPECT_EQ(ctl.estimate(), est_before);
  EXPECT_EQ(ctl.batches_observed(), 0u);
}

TEST(Adaptive, EstimateStaysNormalized) {
  AdaptiveController ctl(8);
  for (int i = 0; i < 5; ++i) ctl.observe_batch(batch_hitting(0, 8, 16));
  double total = 0;
  for (double v : ctl.estimate()) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Adaptive, ActionNames) {
  EXPECT_STREQ(adapt_action_name(AdaptAction::kNone), "none");
  EXPECT_STREQ(adapt_action_name(AdaptAction::kAdjustCopies), "adjust-copies");
  EXPECT_STREQ(adapt_action_name(AdaptAction::kRelocate), "relocate");
}

TEST(Adaptive, ModeNamesAndParsing) {
  EXPECT_STREQ(adapt_mode_name(AdaptMode::kOff), "off");
  EXPECT_STREQ(adapt_mode_name(AdaptMode::kCopies), "copies");
  EXPECT_STREQ(adapt_mode_name(AdaptMode::kFull), "full");
  AdaptMode m = AdaptMode::kOff;
  EXPECT_TRUE(parse_adapt_mode("full", &m));
  EXPECT_EQ(m, AdaptMode::kFull);
  EXPECT_TRUE(parse_adapt_mode("copies", &m));
  EXPECT_EQ(m, AdaptMode::kCopies);
  EXPECT_TRUE(parse_adapt_mode("off", &m));
  EXPECT_EQ(m, AdaptMode::kOff);
  EXPECT_FALSE(parse_adapt_mode("", &m));
  EXPECT_FALSE(parse_adapt_mode("Copies", &m));
  EXPECT_FALSE(parse_adapt_mode("on", &m));
}

// With ewma_alpha = 1 the estimate equals the last batch exactly, so drift
// can be pinned to a precise total-variation value: 3-of-4 probes on cluster
// 0 against a uniform 2-cluster baseline gives TV((0.75,0.25),(0.5,0.5)) =
// 0.25 bit-for-bit (both values are dyadic).
std::unique_ptr<AdaptiveController> pinned_quarter_drift(AdaptiveOptions o) {
  o.ewma_alpha = 1.0;
  auto ctl = std::make_unique<AdaptiveController>(2, o);
  ctl->set_baseline({0.5, 0.5});
  ctl->observe_batch({{0u}, {0u}, {0u}, {1u}});
  return ctl;
}

TEST(Adaptive, DriftExactlyAtMajorThresholdRelocates) {
  AdaptiveOptions opts;
  opts.major_threshold = 0.25;  // == the pinned drift: boundary inclusive
  const auto ctl = pinned_quarter_drift(opts);
  EXPECT_DOUBLE_EQ(ctl->drift(), 0.25);
  const auto rec = ctl->recommend({100, 100}, {1, 1}, 100.0);
  EXPECT_EQ(rec.action, AdaptAction::kRelocate);
}

TEST(Adaptive, DriftExactlyAtMinorThresholdAdjustsCopies) {
  AdaptiveOptions opts;
  opts.minor_threshold = 0.25;  // == the pinned drift: boundary inclusive
  opts.major_threshold = 0.9;
  opts.copy_change_fraction = 2.0;  // never trigger via the change count
  const auto ctl = pinned_quarter_drift(opts);
  // w_bar = 100 keeps every want-count at its current 1 replica, so the
  // decision rests on the drift comparison alone.
  const auto rec = ctl->recommend({100, 100}, {1, 1}, 100.0);
  EXPECT_EQ(rec.action, AdaptAction::kAdjustCopies);
}

TEST(Adaptive, DriftJustBelowMinorThresholdDoesNothing) {
  AdaptiveOptions opts;
  opts.minor_threshold = 0.25 + 1e-9;
  opts.major_threshold = 0.9;
  opts.copy_change_fraction = 2.0;
  const auto ctl = pinned_quarter_drift(opts);
  const auto rec = ctl->recommend({100, 100}, {1, 1}, 100.0);
  EXPECT_EQ(rec.action, AdaptAction::kNone);
  EXPECT_TRUE(rec.adjustments.empty());
}

TEST(Adaptive, MajorDriftDegradesToCopiesWhenRelocateDisallowed) {
  AdaptiveOptions opts;
  opts.major_threshold = 0.2;  // well below the pinned 0.25 drift
  const auto ctl = pinned_quarter_drift(opts);
  const auto rec = ctl->recommend({100, 100}, {1, 1}, 100.0,
                                  /*allow_relocate=*/false);
  EXPECT_EQ(rec.action, AdaptAction::kAdjustCopies);
}

TEST(Adaptive, WindowMeanRollsOffStaleBatches) {
  AdaptiveOptions opts;
  opts.window_batches = 4;
  AdaptiveController ctl(4, opts);
  ctl.set_baseline({0.25, 0.25, 0.25, 0.25});
  // Four all-hot batches, then four uniform ones: the hot phase must have
  // rolled out of the window entirely.
  for (int i = 0; i < 4; ++i) ctl.observe_batch({{0u}, {0u}, {0u}, {0u}});
  EXPECT_DOUBLE_EQ(ctl.window_mean()[0], 1.0);
  for (int i = 0; i < 4; ++i) ctl.observe_batch({{0u}, {1u}, {2u}, {3u}});
  const auto mean = ctl.window_mean();
  for (double v : mean) EXPECT_DOUBLE_EQ(v, 0.25);
  // The long-memory EWMA still remembers the hot phase — that split is what
  // lets drift detection and replica sizing disagree.
  EXPECT_GT(ctl.estimate()[0], 0.25);
}

TEST(Adaptive, WindowMeanFallsBackToEstimateWhenEmpty) {
  AdaptiveController ctl(4);
  ctl.set_baseline({0.4, 0.3, 0.2, 0.1});
  EXPECT_EQ(ctl.window_mean(), ctl.estimate());
}

TEST(Adaptive, CopyChangeFractionAloneTriggersAdjustment) {
  AdaptiveOptions opts;
  opts.ewma_alpha = 0.0;        // estimate frozen at baseline: drift stays 0
  opts.minor_threshold = 0.5;   // unreachable via drift
  opts.major_threshold = 0.9;
  opts.copy_change_fraction = 0.5;
  AdaptiveController ctl(4, opts);
  ctl.set_baseline({0.25, 0.25, 0.25, 0.25});
  ctl.observe_batch({{0u}, {0u}, {0u}, {0u}});  // window mean: (1,0,0,0)
  EXPECT_DOUBLE_EQ(ctl.drift(), 0.0);
  // Cluster 0 wants ceil(100*1.0/50) = 2 (has 1); cluster 1 wants 1 (has
  // 2): 2 of 4 clusters change — exactly the 0.5 fraction, boundary
  // inclusive.
  const auto rec = ctl.recommend({100, 100, 100, 100}, {1, 2, 1, 1}, 50.0);
  EXPECT_EQ(rec.action, AdaptAction::kAdjustCopies);
  ASSERT_EQ(rec.adjustments.size(), 2u);
  EXPECT_EQ(rec.adjustments[0].cluster, 0u);
  EXPECT_EQ(rec.adjustments[0].delta, 1);
  EXPECT_EQ(rec.adjustments[1].cluster, 1u);
  EXPECT_EQ(rec.adjustments[1].delta, -1);

  // One change out of four stays below the fraction: no action, and the
  // tentative adjustment list must not leak out.
  const auto quiet = ctl.recommend({100, 100, 100, 100}, {1, 1, 1, 1}, 50.0);
  EXPECT_EQ(quiet.action, AdaptAction::kNone);
  EXPECT_TRUE(quiet.adjustments.empty());
}

TEST(Adaptive, CopyChangeFractionAloneTriggersAdjustmentUnderPerQueryModel) {
  // CopyChangeFractionAloneTriggersAdjustment restated for a per-query
  // model: cluster 0 (window share 1) wants ceil(1.0 * (100 + 100) / 150)
  // = 2 and has 1; cluster 1 (share 0) wants 1 and has 2.
  AdaptiveOptions opts;
  opts.ewma_alpha = 0.0;
  opts.minor_threshold = 0.5;
  opts.major_threshold = 0.9;
  opts.copy_change_fraction = 0.5;
  AdaptiveController ctl(4, opts);
  ctl.set_baseline({0.25, 0.25, 0.25, 0.25});
  ctl.observe_batch({{0u}, {0u}, {0u}, {0u}});
  const ReplicaSizing sizing{WorkloadModel{1.0, 100.0}, 150.0};
  const auto rec = ctl.recommend({100, 100, 100, 100}, {1, 2, 1, 1}, sizing,
                                 /*allow_relocate=*/true);
  EXPECT_EQ(rec.action, AdaptAction::kAdjustCopies);
  ASSERT_EQ(rec.adjustments.size(), 2u);
  EXPECT_EQ(rec.adjustments[0].cluster, 0u);
  EXPECT_EQ(rec.adjustments[0].delta, 1);
  EXPECT_EQ(rec.adjustments[1].cluster, 1u);
  EXPECT_EQ(rec.adjustments[1].delta, -1);
  // Per record alone cluster 0 fits one copy (100 <= 150): one change of
  // four stays below the fraction.
  const auto legacy = ctl.recommend({100, 100, 100, 100}, {1, 2, 1, 1}, 150.0);
  EXPECT_EQ(legacy.action, AdaptAction::kNone);

  const auto quiet = ctl.recommend({100, 100, 100, 100}, {2, 1, 1, 1}, sizing,
                                   /*allow_relocate=*/true);
  EXPECT_EQ(quiet.action, AdaptAction::kNone);
  EXPECT_TRUE(quiet.adjustments.empty());
}

TEST(Adaptive, RecommendForMasksNonResidentClustersAndSizesLikePlacement) {
  AdaptiveOptions opts;
  opts.ewma_alpha = 0.0;
  opts.minor_threshold = 0.0;  // always act, to expose the adjustments
  AdaptiveController ctl(4, opts);
  ctl.set_baseline({0.25, 0.25, 0.25, 0.25});
  ctl.observe_batch({{0u, 1u}, {0u, 2u}, {0u, 3u}, {0u, 1u}});
  Placement p;
  p.cluster_dpus = {{0}, {1}, {}, {0, 1}};  // cluster 2 not resident here
  p.dpu_clusters = {{0, 3}, {1, 3}, {}};
  p.dpu_workload.assign(3, 0.0);
  p.dpu_vectors.assign(3, 0);
  const std::vector<std::size_t> sizes = {40, 300, 500, 20};
  for (const WorkloadModel& model :
       {WorkloadModel{}, WorkloadModel{1.0, 200.0}}) {
    const std::vector<std::size_t> resident = {40, 300, 0, 20};
    const AdaptReport want = ctl.recommend(
        resident, {1, 1, 0, 2},
        ReplicaSizing::of(model, resident, ctl.window_mean(), 3), false);
    const AdaptReport got = ctl.recommend_for(p, sizes, model, false);
    EXPECT_EQ(got.action, want.action);
    ASSERT_EQ(got.adjustments.size(), want.adjustments.size());
    for (std::size_t i = 0; i < got.adjustments.size(); ++i) {
      EXPECT_EQ(got.adjustments[i].cluster, want.adjustments[i].cluster);
      EXPECT_EQ(got.adjustments[i].delta, want.adjustments[i].delta);
      EXPECT_NE(got.adjustments[i].cluster, 2u);
    }
  }
}

TEST(Adaptive, RecommendIsDeterministic) {
  AdaptiveOptions opts;
  opts.minor_threshold = 0.05;
  AdaptiveController ctl(8, opts);
  ctl.set_baseline(std::vector<double>(8, 0.125));
  for (int i = 0; i < 6; ++i) ctl.observe_batch(batch_hitting(2, 8, 64));
  const std::vector<std::size_t> sizes(8, 1000);
  const std::vector<std::size_t> copies(8, 1);
  const auto a = ctl.recommend(sizes, copies, 150.0);
  const auto b = ctl.recommend(sizes, copies, 150.0);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.drift, b.drift);
  ASSERT_EQ(a.adjustments.size(), b.adjustments.size());
  for (std::size_t i = 0; i < a.adjustments.size(); ++i) {
    EXPECT_EQ(a.adjustments[i].cluster, b.adjustments[i].cluster);
    EXPECT_EQ(a.adjustments[i].delta, b.adjustments[i].delta);
    if (i > 0) {
      // Sorted by cluster id: apply order never depends on map iteration.
      EXPECT_LT(a.adjustments[i - 1].cluster, a.adjustments[i].cluster);
    }
  }
}

TEST(Adaptive, BusyBalanceTracksEwma) {
  AdaptiveOptions opts;
  opts.ewma_alpha = 0.5;
  AdaptiveController ctl(4, opts);
  EXPECT_DOUBLE_EQ(ctl.busy_balance(), 0.0);  // nothing observed yet
  ctl.observe_busy({2, 2, 2, 2});             // first sample binds directly
  EXPECT_DOUBLE_EQ(ctl.busy_balance(), 1.0);
  ctl.observe_busy({9, 1, 1, 1});  // ratio 3.0 -> 0.5*1.0 + 0.5*3.0
  EXPECT_DOUBLE_EQ(ctl.busy_balance(), 2.0);
  ctl.observe_busy({0, 0, 0, 0});  // all-idle batch reads as ratio 0
  EXPECT_DOUBLE_EQ(ctl.busy_balance(), 1.0);
}

// ---------------------------------------------------------------------------
// The engine's adaptation writes (copy adjustment, relocation) are priced by
// pim::TransferEngine::scatter over the runs they wrote.

struct EngineFixture {
  data::Dataset base = data::generate_synthetic(data::sift1b_like(6000, 17));
  ivf::IvfIndex index = build();
  ivf::ClusterStats stats;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 24;
    opts.pq_m = 16;
    opts.coarse_iters = 5;
    opts.pq_iters = 4;
    return ivf::IvfIndex::build(base, opts);
  }

  EngineFixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 64;
    spec.seed = 3;
    const data::QueryWorkload wl = data::generate_workload(base, spec);
    stats = ivf::collect_stats(index, ivf::filter_batch(index, wl.queries, 6));
  }

  UpAnnsOptions options() const {
    UpAnnsOptions o = UpAnnsOptions::upanns();
    o.n_dpus = 16;
    o.nprobe = 6;
    o.k = 10;
    return o;
  }
};

EngineFixture& engine_fixture() {
  static EngineFixture f;
  return f;
}

double histogram_sum(const obs::MetricsRegistry& reg, const char* name) {
  for (const auto& h : reg.snapshot().histograms) {
    if (h.name == name) return h.sum;
  }
  return -1;
}

TEST(AdaptCharge, CopyAdjustmentIsPricedFromTheReplicasItLoads) {
  auto& f = engine_fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());
  obs::MetricsRegistry reg;
  engine.set_metrics(&reg);

  // Add copies of the clusters with the fewest replicas: several DPUs each
  // load a different image.
  std::vector<CopyAdjustment> adds;
  for (std::uint32_t c = 0; c < f.index.n_clusters() && adds.size() < 6; ++c) {
    if (engine.placement().cluster_dpus[c].size() == 1 &&
        f.index.list(c).size() > 0) {
      adds.push_back({c, +2});
    }
  }
  ASSERT_GE(adds.size(), 3u);
  const test_support::MramSnapshot before = test_support::snapshot(engine);
  const UpAnnsEngine::AdaptStats as =
      engine.apply_copy_adjustments(adds, f.stats.frequencies);
  ASSERT_GT(as.replicas_added, 0u);

  const test_support::RunLengths runs = test_support::load_runs(engine, before);
  std::size_t bytes = 0;
  for (const auto& r : runs) {
    for (std::size_t len : r) bytes += len;
  }
  EXPECT_EQ(as.bytes_written, bytes);
  const pim::TransferStats planned = test_support::scatter_charge(engine, runs);
  EXPECT_EQ(as.seconds, planned.seconds);
  EXPECT_EQ(as.apply_seconds, planned.apply_seconds);
  EXPECT_GT(as.apply_seconds, 0.0);
  EXPECT_LT(as.seconds, test_support::direct_charge(runs).seconds);
  EXPECT_EQ(histogram_sum(reg, "transfer.adapt.apply_seconds"),
            as.apply_seconds);

  // A pure retire ships nothing and costs nothing.
  const UpAnnsEngine::AdaptStats retired = engine.apply_copy_adjustments(
      {{adds[0].cluster, -1}}, f.stats.frequencies);
  EXPECT_EQ(retired.replicas_retired, 1u);
  EXPECT_EQ(retired.seconds, 0.0);
  EXPECT_EQ(retired.apply_seconds, 0.0);
}

TEST(AdaptCharge, RelocationIsPricedFromTheFullReload) {
  auto& f = engine_fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());
  obs::MetricsRegistry reg;
  engine.set_metrics(&reg);

  ivf::ClusterStats flat = f.stats;
  std::fill(flat.frequencies.begin(), flat.frequencies.end(),
            1.0 / static_cast<double>(flat.frequencies.size()));
  for (std::size_t c = 0; c < flat.workloads.size(); ++c) {
    flat.workloads[c] = static_cast<double>(flat.sizes[c]) * flat.frequencies[c];
  }
  const UpAnnsEngine::PatchStats ps = engine.relocate(flat);

  const test_support::RunLengths runs =
      test_support::load_runs(engine, test_support::MramSnapshot{});
  std::size_t bytes = 0;
  for (const auto& r : runs) {
    for (std::size_t len : r) bytes += len;
  }
  EXPECT_EQ(ps.bytes_written, bytes);
  EXPECT_EQ(engine.load_image_bytes(), bytes);
  const pim::TransferStats planned = test_support::scatter_charge(engine, runs);
  EXPECT_EQ(ps.seconds, planned.seconds);
  EXPECT_EQ(ps.apply_seconds, planned.apply_seconds);
  EXPECT_GT(ps.apply_seconds, 0.0);
  EXPECT_LT(ps.seconds, test_support::direct_charge(runs).seconds);
  EXPECT_EQ(reg.counter("transfer.relocate.uniform").value(), 1u);
  EXPECT_EQ(histogram_sum(reg, "transfer.relocate.apply_seconds"),
            ps.apply_seconds);
}

}  // namespace
}  // namespace upanns::core
