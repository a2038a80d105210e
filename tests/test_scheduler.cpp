#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <map>

namespace upanns::core {
namespace {

// Hand-built placement: 4 DPUs, 6 clusters; cluster 0 replicated on all.
Placement make_placement() {
  Placement p;
  p.cluster_dpus = {{0, 1, 2, 3}, {0}, {1}, {2}, {3}, {0, 2}};
  p.dpu_clusters.resize(4);
  for (std::size_t c = 0; c < p.cluster_dpus.size(); ++c) {
    for (auto d : p.cluster_dpus[c]) p.dpu_clusters[d].push_back(c);
  }
  p.dpu_workload.assign(4, 0.0);
  p.dpu_vectors.assign(4, 0);
  return p;
}

const std::vector<std::size_t> kSizes = {100, 50, 50, 50, 50, 80};

TEST(Scheduler, EveryProbeAssignedExactlyOnce) {
  const Placement p = make_placement();
  const std::vector<std::vector<std::uint32_t>> probes = {
      {0, 1, 2}, {0, 3}, {4, 5}, {0, 5}};
  const Schedule s = schedule_queries(probes, p, kSizes);

  std::map<std::pair<std::uint32_t, std::uint32_t>, int> count;
  for (std::size_t d = 0; d < s.n_dpus(); ++d) {
    for (const Assignment& a : s.per_dpu[d]) {
      ++count[{a.query, a.cluster}];
      // The DPU must actually hold a replica of the cluster.
      const auto& dpus = p.cluster_dpus[a.cluster];
      EXPECT_NE(std::find(dpus.begin(), dpus.end(), d), dpus.end());
    }
  }
  std::size_t expected = 0;
  for (std::size_t q = 0; q < probes.size(); ++q) {
    for (auto c : probes[q]) {
      EXPECT_EQ((count[{static_cast<std::uint32_t>(q), c}]), 1);
      ++expected;
    }
  }
  EXPECT_EQ(s.total_assignments(), expected);
}

TEST(Scheduler, SingleReplicaForced) {
  const Placement p = make_placement();
  const std::vector<std::vector<std::uint32_t>> probes = {{1}, {2}, {3}, {4}};
  const Schedule s = schedule_queries(probes, p, kSizes);
  // cluster 1 -> dpu 0, 2 -> 1, 3 -> 2, 4 -> 3.
  EXPECT_EQ(s.per_dpu[0].size(), 1u);
  EXPECT_EQ(s.per_dpu[0][0].cluster, 1u);
  EXPECT_EQ(s.per_dpu[1][0].cluster, 2u);
  EXPECT_EQ(s.per_dpu[2][0].cluster, 3u);
  EXPECT_EQ(s.per_dpu[3][0].cluster, 4u);
}

TEST(Scheduler, ReplicatedClusterGoesToLeastLoaded) {
  const Placement p = make_placement();
  // Load DPU 0 with singles, then ask for replicated cluster 0: it must
  // avoid DPU 0.
  const std::vector<std::vector<std::uint32_t>> probes = {{1}, {1}, {1}, {0}};
  const Schedule s = schedule_queries(probes, p, kSizes);
  for (const auto& a : s.per_dpu[0]) {
    EXPECT_NE(a.cluster, 0u);
  }
}

TEST(Scheduler, BalancesReplicatedLoad) {
  const Placement p = make_placement();
  // 8 queries all probing the fully replicated cluster 0: spread evenly.
  std::vector<std::vector<std::uint32_t>> probes(8, {0});
  const Schedule s = schedule_queries(probes, p, kSizes);
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(s.per_dpu[d].size(), 2u) << "dpu " << d;
  }
  EXPECT_NEAR(s.balance_ratio(), 1.0, 1e-9);
}

TEST(Scheduler, WorkloadCountsClusterSizes) {
  const Placement p = make_placement();
  const std::vector<std::vector<std::uint32_t>> probes = {{1, 2}};
  const Schedule s = schedule_queries(probes, p, kSizes);
  EXPECT_DOUBLE_EQ(s.dpu_workload[0], 50.0);
  EXPECT_DOUBLE_EQ(s.dpu_workload[1], 50.0);
}

TEST(Scheduler, AssignmentsGroupedByQuery) {
  const Placement p = make_placement();
  std::vector<std::vector<std::uint32_t>> probes = {{0, 1, 5}, {0, 1, 5},
                                                    {0, 1, 5}};
  const Schedule s = schedule_queries(probes, p, kSizes);
  for (const auto& list : s.per_dpu) {
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_LE(list[i - 1].query, list[i].query);
    }
  }
}

TEST(Scheduler, NaiveUsesFirstReplica) {
  const Placement p = make_placement();
  std::vector<std::vector<std::uint32_t>> probes(6, {0});
  const Schedule s = schedule_naive(probes, p, kSizes);
  EXPECT_EQ(s.per_dpu[0].size(), 6u);  // all on replica 0: the hotspot
  EXPECT_GT(s.balance_ratio(), 3.9);
}

TEST(Scheduler, SmartBeatsNaiveOnSkewedLoad) {
  const Placement p = make_placement();
  std::vector<std::vector<std::uint32_t>> probes(16, {0, 5});
  const Schedule smart = schedule_queries(probes, p, kSizes);
  const Schedule naive = schedule_naive(probes, p, kSizes);
  EXPECT_LT(smart.balance_ratio(), naive.balance_ratio());
}

TEST(Scheduler, EmptyClusterListSkipped) {
  Placement p = make_placement();
  p.cluster_dpus.push_back({});  // cluster 6: nowhere resident (empty)
  std::vector<std::size_t> sizes = kSizes;
  sizes.push_back(0);
  const std::vector<std::vector<std::uint32_t>> probes = {{6, 1}};
  const Schedule s = schedule_queries(probes, p, sizes);
  EXPECT_EQ(s.total_assignments(), 1u);
}

TEST(Scheduler, EmptyBatch) {
  const Placement p = make_placement();
  const Schedule s = schedule_queries({}, p, kSizes);
  EXPECT_EQ(s.total_assignments(), 0u);
}

// ----- The per-query term of the WorkloadModel -----

TEST(Scheduler, WorkloadCountsClusterSizesAndEachQueryOncePerDpu) {
  // WorkloadCountsClusterSizes restated for the model: a DPU's W is
  // per_record per scanned record plus per_query per distinct query.
  const Placement p = make_placement();
  const WorkloadModel model{2.0, 1000.0};
  const Schedule s = schedule_queries({{1, 2}}, p, kSizes, model);
  EXPECT_EQ(s.dpu_workload[0], 50.0 * 2.0 + 1000.0);
  EXPECT_EQ(s.dpu_workload[1], 50.0 * 2.0 + 1000.0);

  // Two clusters of one query on one DPU pay the query once: q0 scans
  // cluster 1 (forced on DPU 0) and replicated cluster 5 on DPU 0 or 2.
  const Schedule t = schedule_queries({{1, 5}}, p, kSizes, model);
  ASSERT_EQ(t.per_dpu[0].size() + t.per_dpu[2].size(), 2u);
  for (std::size_t d = 0; d < t.n_dpus(); ++d) {
    double records = 0;
    for (const Assignment& a : t.per_dpu[d]) records += kSizes[a.cluster];
    const double queries = t.per_dpu[d].empty() ? 0.0 : 1.0;
    EXPECT_EQ(t.dpu_workload[d], records * 2.0 + queries * 1000.0)
        << "dpu " << d;
  }
}

TEST(Scheduler, PerQueryCostKeepsAQueryOnADpuItAlreadyUses) {
  // DPU 0 holds A (100 records), DPU 1 holds B (60), both hold hub H (20).
  // q0 probes A and H, q1 probes B. Per record alone, H goes to the
  // lighter DPU 1 (60 + 20 < 100 + 20); with a per-query cost it joins q0
  // on DPU 0, where q0 is already served (120 + pq < 80 + 2 pq).
  Placement p;
  p.cluster_dpus = {{0}, {1}, {0, 1}};
  p.dpu_clusters = {{0, 2}, {1, 2}};
  p.dpu_workload.assign(2, 0.0);
  p.dpu_vectors.assign(2, 0);
  const std::vector<std::size_t> sizes = {100, 60, 20};
  const std::vector<std::vector<std::uint32_t>> probes = {{0, 2}, {1}};

  const Schedule legacy = schedule_queries(probes, p, sizes);
  EXPECT_EQ(legacy.per_dpu[1].size(), 2u);
  EXPECT_EQ(legacy.dpu_workload[0], 100.0);
  EXPECT_EQ(legacy.dpu_workload[1], 80.0);

  const Schedule s = schedule_queries(probes, p, sizes, WorkloadModel{1, 100});
  ASSERT_EQ(s.per_dpu[0].size(), 2u);
  EXPECT_EQ(s.per_dpu[0][1].cluster, 2u);
  EXPECT_EQ(s.dpu_workload[0], 120.0 + 100.0);
  EXPECT_EQ(s.dpu_workload[1], 60.0 + 100.0);
}

TEST(Scheduler, HubQueriesSplitAcrossItsReplicas) {
  // Sixteen queries probe hub 5 (on DPUs 0 and 2) and one cluster forced
  // onto DPU 1 or 3: the hub's queries split evenly over its replicas.
  const Placement p = make_placement();
  std::vector<std::vector<std::uint32_t>> probes;
  for (std::uint32_t q = 0; q < 16; ++q) probes.push_back({5, q % 2 ? 2u : 4u});
  const WorkloadModel model{1.0, 400.0};
  const Schedule s = schedule_queries(probes, p, kSizes, model);
  std::size_t on[4] = {0, 0, 0, 0};
  for (std::size_t d = 0; d < 4; ++d) {
    for (const Assignment& a : s.per_dpu[d]) {
      if (a.cluster == 5) ++on[d];
    }
  }
  EXPECT_EQ(on[0], 8u);
  EXPECT_EQ(on[2], 8u);
  EXPECT_EQ(s.dpu_workload[0], 8 * (80.0 + 400.0));
}

TEST(Scheduler, DefaultModelReproducesThePerRecordSchedule) {
  const Placement p = make_placement();
  const std::vector<std::vector<std::uint32_t>> probes = {
      {0, 1, 5}, {0, 3}, {4, 5}, {0, 5}, {2, 0}};
  const Schedule a = schedule_queries(probes, p, kSizes);
  const Schedule b = schedule_queries(probes, p, kSizes, WorkloadModel{});
  EXPECT_EQ(a.dpu_workload, b.dpu_workload);
  for (std::size_t d = 0; d < a.n_dpus(); ++d) {
    ASSERT_EQ(a.per_dpu[d].size(), b.per_dpu[d].size());
    for (std::size_t i = 0; i < a.per_dpu[d].size(); ++i) {
      EXPECT_EQ(a.per_dpu[d][i].query, b.per_dpu[d][i].query);
      EXPECT_EQ(a.per_dpu[d][i].cluster, b.per_dpu[d][i].cluster);
    }
  }
}

}  // namespace
}  // namespace upanns::core
