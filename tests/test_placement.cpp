#include "core/placement.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "common/stats.hpp"
#include "data/query_workload.hpp"

namespace upanns::core {
namespace {

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::spacev1b_like(10000, 9));
  ivf::IvfIndex index = build();
  ivf::ClusterStats stats;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 48;
    opts.pq_m = 20;
    opts.coarse_iters = 6;
    opts.pq_iters = 4;
    return ivf::IvfIndex::build(base, opts);
  }

  Fixture() {
    // Skewed history: low cluster ids far more popular.
    std::vector<std::vector<std::uint32_t>> history;
    for (std::uint32_t c = 0; c < 48; ++c) {
      const std::size_t hits = c < 5 ? 60 : (c < 20 ? 6 : 1);
      for (std::size_t h = 0; h < hits; ++h) history.push_back({c});
    }
    stats = ivf::collect_stats(index, history);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

PlacementOptions opts_for(std::size_t ndpu) {
  PlacementOptions o;
  o.n_dpus = ndpu;
  return o;
}

TEST(Placement, EveryNonEmptyClusterPlaced) {
  auto& f = fixture();
  const Placement p = place_clusters(f.index, f.stats, opts_for(16));
  for (std::size_t c = 0; c < f.index.n_clusters(); ++c) {
    if (f.stats.sizes[c] > 0) {
      EXPECT_FALSE(p.cluster_dpus[c].empty()) << "cluster " << c;
    }
  }
}

TEST(Placement, ReplicasOnDistinctDpus) {
  auto& f = fixture();
  const Placement p = place_clusters(f.index, f.stats, opts_for(16));
  for (const auto& dpus : p.cluster_dpus) {
    std::set<std::uint32_t> uniq(dpus.begin(), dpus.end());
    EXPECT_EQ(uniq.size(), dpus.size());
    for (auto d : dpus) EXPECT_LT(d, 16u);
  }
}

TEST(Placement, HotClustersReplicated) {
  // Clusters whose workload exceeds W-bar must receive multiple replicas
  // (ncpy = ceil(W_i / W-bar), Algorithm 1 line 2).
  auto& f = fixture();
  const std::size_t ndpu = 16;
  const Placement p = place_clusters(f.index, f.stats, opts_for(ndpu));
  const double w_bar = f.stats.average_workload(ndpu);
  for (std::size_t c = 0; c < f.index.n_clusters(); ++c) {
    if (f.stats.workloads[c] > 2.0 * w_bar) {
      EXPECT_GE(p.cluster_dpus[c].size(), 2u) << "hot cluster " << c;
    }
  }
}

TEST(Placement, ForwardAndReverseMapsConsistent) {
  auto& f = fixture();
  const Placement p = place_clusters(f.index, f.stats, opts_for(8));
  for (std::size_t c = 0; c < p.cluster_dpus.size(); ++c) {
    for (auto d : p.cluster_dpus[c]) {
      const auto& on_d = p.dpu_clusters[d];
      EXPECT_NE(std::find(on_d.begin(), on_d.end(), c), on_d.end());
    }
  }
  std::size_t total = 0;
  for (const auto& v : p.dpu_clusters) total += v.size();
  EXPECT_EQ(total, p.total_replicas);
}

TEST(Placement, BetterBalancedThanRandom) {
  auto& f = fixture();
  const Placement smart = place_clusters(f.index, f.stats, opts_for(16));
  const Placement rand = place_random(f.index, f.stats, opts_for(16), 3);
  EXPECT_LT(common::max_over_mean(smart.dpu_workload),
            common::max_over_mean(rand.dpu_workload));
}

TEST(Placement, RespectsMaxDpuVectors) {
  auto& f = fixture();
  PlacementOptions o = opts_for(16);
  o.max_dpu_vectors = 2500;
  const Placement p = place_clusters(f.index, f.stats, o);
  for (auto v : p.dpu_vectors) EXPECT_LE(v, 2500u);
}

TEST(Placement, ThrowsWhenClusterExceedsDpuCapacity) {
  auto& f = fixture();
  PlacementOptions o = opts_for(4);
  o.max_dpu_vectors = 10;  // smaller than any real cluster
  EXPECT_THROW(place_clusters(f.index, f.stats, o), std::runtime_error);
}

TEST(Placement, ZeroDpusRejected) {
  auto& f = fixture();
  EXPECT_THROW(place_clusters(f.index, f.stats, opts_for(0)),
               std::invalid_argument);
  EXPECT_THROW(place_random(f.index, f.stats, opts_for(0)),
               std::invalid_argument);
}

TEST(Placement, RandomPlacesOncePerCluster) {
  auto& f = fixture();
  const Placement p = place_random(f.index, f.stats, opts_for(8), 7);
  for (std::size_t c = 0; c < p.cluster_dpus.size(); ++c) {
    if (f.stats.sizes[c] > 0) {
      EXPECT_EQ(p.cluster_dpus[c].size(), 1u);
    }
  }
}

TEST(Placement, ProximityOrderIsPermutation) {
  auto& f = fixture();
  const auto order = proximity_order(f.index);
  std::set<std::uint32_t> seen(order.begin(), order.end());
  EXPECT_EQ(order.size(), f.index.n_clusters());
  EXPECT_EQ(seen.size(), f.index.n_clusters());
}

TEST(Placement, ProximityOrderChainsNeighbors) {
  // Consecutive clusters in the order should be far closer on average than
  // random pairs.
  auto& f = fixture();
  const auto order = proximity_order(f.index);
  double chain = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    chain += quant::l2_sq(f.index.centroid(order[i - 1]),
                          f.index.centroid(order[i]), f.index.dim());
  }
  chain /= static_cast<double>(order.size() - 1);
  double random = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < order.size(); i += 3) {
    for (std::size_t j = i + 7; j < order.size(); j += 11) {
      random += quant::l2_sq(f.index.centroid(i), f.index.centroid(j),
                             f.index.dim());
      ++pairs;
    }
  }
  random /= static_cast<double>(pairs);
  EXPECT_LT(chain, random);
}

TEST(Placement, MramBytesPerVectorSane) {
  EXPECT_GT(mram_bytes_per_vector(16), 16u);
  EXPECT_LT(mram_bytes_per_vector(16), 64u);
  EXPECT_GT(mram_bytes_per_vector(20), mram_bytes_per_vector(12));
}

TEST(Placement, WorkloadAccountingMatchesReplicas) {
  auto& f = fixture();
  const Placement p = place_clusters(f.index, f.stats, opts_for(8));
  // Sum of per-DPU workloads equals the sum over clusters of W_i (replicas
  // split a cluster's workload evenly).
  const double placed =
      std::accumulate(p.dpu_workload.begin(), p.dpu_workload.end(), 0.0);
  double expected = 0;
  for (std::size_t c = 0; c < f.index.n_clusters(); ++c) {
    if (!p.cluster_dpus[c].empty()) expected += f.stats.workloads[c];
  }
  EXPECT_NEAR(placed, expected, 1e-6 * expected);
}

// ----- The per-query term of the WorkloadModel (hub-aware Algorithm 1) -----

/// A history in which every query probes the two smallest clusters (hubs)
/// and eight others in rotation: each hub holds few records but is probed
/// by every query.
struct HubStats {
  ivf::ClusterStats stats;
  std::uint32_t hub[2] = {0, 0};
};

HubStats hub_stats(const ivf::IvfIndex& index) {
  std::vector<std::uint32_t> by_size(index.n_clusters());
  std::iota(by_size.begin(), by_size.end(), 0u);
  const std::vector<std::size_t> sizes = index.list_sizes();
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return sizes[a] < sizes[b];
                   });
  HubStats h;
  std::size_t next = 0;
  for (std::uint32_t c : by_size) {
    if (sizes[c] > 0 && next < 2) h.hub[next++] = c;
  }
  std::vector<std::uint32_t> others;
  for (std::uint32_t c = 0; c < index.n_clusters(); ++c) {
    if (c != h.hub[0] && c != h.hub[1]) others.push_back(c);
  }
  std::vector<std::vector<std::uint32_t>> history;
  for (std::size_t q = 0; q < 200; ++q) {
    std::vector<std::uint32_t> probes = {h.hub[0], h.hub[1]};
    for (std::size_t i = 0; i < 8; ++i) {
      probes.push_back(others[(q * 8 + i) % others.size()]);
    }
    history.push_back(std::move(probes));
  }
  h.stats = ivf::collect_stats(index, history);
  return h;
}

TEST(Placement, HubGetsReplicasOnDistinctDpusUnderPerQueryModel) {
  auto& f = fixture();
  const HubStats h = hub_stats(f.index);
  const WorkloadModel hub_aware{1.0, 400.0};
  const Placement legacy = place_clusters(f.index, h.stats, opts_for(16));
  const Placement p = place_clusters(f.index, h.stats, opts_for(16), hub_aware);
  for (const std::uint32_t hub : h.hub) {
    // The per-record model sees a small cluster and keeps one copy; the
    // per-query term of every query it serves asks for more.
    EXPECT_EQ(legacy.cluster_dpus[hub].size(), 1u) << "hub " << hub;
    EXPECT_GE(p.cluster_dpus[hub].size(), 2u) << "hub " << hub;
    const std::set<std::uint32_t> uniq(p.cluster_dpus[hub].begin(),
                                       p.cluster_dpus[hub].end());
    EXPECT_EQ(uniq.size(), p.cluster_dpus[hub].size());
  }
  // Two hubs never share a DPU while other DPUs have room.
  for (const auto& resident : p.dpu_clusters) {
    const bool first = std::count(resident.begin(), resident.end(), h.hub[0]);
    const bool second = std::count(resident.begin(), resident.end(), h.hub[1]);
    EXPECT_FALSE(first && second);
  }
}

TEST(Placement, WorkloadAccountingMatchesReplicasUnderPerQueryModel) {
  // WorkloadAccountingMatchesReplicas restated for the model: per-DPU
  // workloads sum to sum_c f_c * (s_c * per_record + per_query).
  auto& f = fixture();
  const WorkloadModel model{2.5, 300.0};
  const Placement p = place_clusters(f.index, f.stats, opts_for(8), model);
  const double placed =
      std::accumulate(p.dpu_workload.begin(), p.dpu_workload.end(), 0.0);
  double expected = 0;
  for (std::size_t c = 0; c < f.index.n_clusters(); ++c) {
    if (!p.cluster_dpus[c].empty()) {
      expected += model.cluster(f.stats.sizes[c], f.stats.frequencies[c]);
    }
  }
  EXPECT_NEAR(placed, expected, 1e-6 * expected);
}

TEST(Placement, DefaultModelReproducesThePerRecordPlacement) {
  // WorkloadModel{} is the paper's W_i = s_i * f_i bit for bit, so passing
  // it explicitly changes nothing.
  auto& f = fixture();
  const Placement a = place_clusters(f.index, f.stats, opts_for(16));
  const Placement b =
      place_clusters(f.index, f.stats, opts_for(16), WorkloadModel{});
  EXPECT_EQ(a.cluster_dpus, b.cluster_dpus);
  EXPECT_EQ(a.dpu_workload, b.dpu_workload);
  EXPECT_EQ(a.final_threshold, b.final_threshold);
}

// ----- adjust_replicas: the online minor-drift counterpart of Algorithm 1 --

/// First cluster that currently has exactly one replica (exists in the
/// fixture: cold clusters are never replicated).
std::uint32_t single_replica_cluster(const Placement& p) {
  for (std::uint32_t c = 0; c < p.cluster_dpus.size(); ++c) {
    if (p.cluster_dpus[c].size() == 1) return c;
  }
  ADD_FAILURE() << "no single-replica cluster in fixture placement";
  return 0;
}

TEST(AdjustReplicas, AddGoesToLeastLoadedEligibleDpu) {
  auto& f = fixture();
  Placement p = place_clusters(f.index, f.stats, opts_for(16));
  const std::uint32_t c = single_replica_cluster(p);
  const std::size_t before = p.cluster_dpus[c].size();

  // Snapshot eligibility before the call mutates the advisory workloads.
  std::vector<double> load = p.dpu_workload;
  const auto deltas =
      adjust_replicas(p, f.index, {{c, +1}}, f.stats.sizes,
                      f.stats.frequencies, opts_for(16));
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_TRUE(deltas[0].add);
  EXPECT_EQ(deltas[0].cluster, c);
  EXPECT_EQ(p.cluster_dpus[c].size(), before + 1);
  // The new holder must not have already held the cluster.
  EXPECT_EQ(std::count(p.cluster_dpus[c].begin(), p.cluster_dpus[c].end(),
                       deltas[0].dpu),
            1);
}

TEST(AdjustReplicas, RetireNeverDropsBelowOneReplica) {
  auto& f = fixture();
  Placement p = place_clusters(f.index, f.stats, opts_for(16));
  const std::uint32_t c = single_replica_cluster(p);
  // A huge negative delta clamps at one replica: nothing to retire.
  const auto deltas =
      adjust_replicas(p, f.index, {{c, -10}}, f.stats.sizes,
                      f.stats.frequencies, opts_for(16));
  EXPECT_TRUE(deltas.empty());
  EXPECT_EQ(p.cluster_dpus[c].size(), 1u);
}

TEST(AdjustReplicas, AddThenRetireRoundTripsTheMaps) {
  auto& f = fixture();
  Placement p = place_clusters(f.index, f.stats, opts_for(16));
  const std::uint32_t c = single_replica_cluster(p);
  adjust_replicas(p, f.index, {{c, +2}}, f.stats.sizes, f.stats.frequencies,
                  opts_for(16));
  adjust_replicas(p, f.index, {{c, -2}}, f.stats.sizes, f.stats.frequencies,
                  opts_for(16));
  EXPECT_EQ(p.cluster_dpus[c].size(), 1u);
  // Forward and reverse maps stay consistent through the churn.
  std::size_t total = 0;
  for (std::size_t cc = 0; cc < p.cluster_dpus.size(); ++cc) {
    for (auto d : p.cluster_dpus[cc]) {
      const auto& on_d = p.dpu_clusters[d];
      EXPECT_NE(std::find(on_d.begin(), on_d.end(), cc), on_d.end());
    }
  }
  for (const auto& v : p.dpu_clusters) total += v.size();
  EXPECT_EQ(total, p.total_replicas);
}

TEST(AdjustReplicas, ReplicaTargetClampedToDpuCount) {
  auto& f = fixture();
  Placement p = place_clusters(f.index, f.stats, opts_for(4));
  const std::uint32_t c = single_replica_cluster(p);
  adjust_replicas(p, f.index, {{c, +100}}, f.stats.sizes, f.stats.frequencies,
                  opts_for(4));
  // At most one replica per DPU.
  EXPECT_LE(p.cluster_dpus[c].size(), 4u);
  std::set<std::uint32_t> uniq(p.cluster_dpus[c].begin(),
                               p.cluster_dpus[c].end());
  EXPECT_EQ(uniq.size(), p.cluster_dpus[c].size());
}

TEST(AdjustReplicas, UnplacedClustersAreSkipped) {
  auto& f = fixture();
  // History that never touches the last clusters -> zero workload; some may
  // still be placed (size > 0), so build a placement where one cluster is
  // genuinely absent by zeroing its size.
  ivf::ClusterStats stats = f.stats;
  const std::uint32_t absent = 47;
  stats.sizes[absent] = 0;
  stats.workloads[absent] = 0;
  Placement p = place_clusters(f.index, stats, opts_for(16));
  ASSERT_TRUE(p.cluster_dpus[absent].empty());
  const auto deltas =
      adjust_replicas(p, f.index, {{absent, +1}}, stats.sizes,
                      stats.frequencies, opts_for(16));
  // Adopting a never-placed cluster online would change the searchable set.
  EXPECT_TRUE(deltas.empty());
  EXPECT_TRUE(p.cluster_dpus[absent].empty());
}

TEST(AdjustReplicas, DeterministicAcrossIdenticalRuns) {
  auto& f = fixture();
  const std::uint32_t c = single_replica_cluster(
      place_clusters(f.index, f.stats, opts_for(16)));
  const std::vector<CopyAdjustment> adj = {{c, +2}, {c + 1, +1}};
  Placement a = place_clusters(f.index, f.stats, opts_for(16));
  Placement b = place_clusters(f.index, f.stats, opts_for(16));
  const auto da = adjust_replicas(a, f.index, adj, f.stats.sizes,
                                  f.stats.frequencies, opts_for(16));
  const auto db = adjust_replicas(b, f.index, adj, f.stats.sizes,
                                  f.stats.frequencies, opts_for(16));
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].cluster, db[i].cluster);
    EXPECT_EQ(da[i].dpu, db[i].dpu);
    EXPECT_EQ(da[i].add, db[i].add);
  }
  EXPECT_EQ(a.cluster_dpus, b.cluster_dpus);
  EXPECT_EQ(a.dpu_clusters, b.dpu_clusters);
}

TEST(AdjustReplicas, EmptyPlacementRejected) {
  auto& f = fixture();
  Placement p;
  EXPECT_THROW(adjust_replicas(p, f.index, {{0, +1}}, f.stats.sizes,
                               f.stats.frequencies, opts_for(16)),
               std::invalid_argument);
}

TEST(AdjustReplicas, RebasesSharesUnderTheModel) {
  // After an adjustment the touched cluster's shares sum to its W_c under
  // the model the placement was built with.
  auto& f = fixture();
  const WorkloadModel model{1.0, 250.0};
  Placement p = place_clusters(f.index, f.stats, opts_for(16), model);
  const std::uint32_t c = single_replica_cluster(p);
  const double before =
      std::accumulate(p.dpu_workload.begin(), p.dpu_workload.end(), 0.0);
  adjust_replicas(p, f.index, {{c, +2}}, f.stats.sizes, f.stats.frequencies,
                  opts_for(16), model);
  EXPECT_EQ(p.cluster_dpus[c].size(), 3u);
  const double after =
      std::accumulate(p.dpu_workload.begin(), p.dpu_workload.end(), 0.0);
  EXPECT_NEAR(after, before, 1e-9 * before);
}

}  // namespace
}  // namespace upanns::core
