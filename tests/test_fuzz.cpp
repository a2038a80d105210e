// Randomized invariant tests ("fuzz-lite"): placement and scheduling must
// hold their contracts under arbitrary cluster-size/frequency skew, not just
// on curated fixtures. Seeds are fixed for reproducibility.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "baselines/cpu_ivfpq.hpp"
#include "common/rng.hpp"
#include "core/cae.hpp"
#include "core/scheduler.hpp"
#include "data/query_workload.hpp"
#include "ivf/ivf_index.hpp"

namespace upanns::core {
namespace {

// Random placement structure without an index: exercise Algorithm 2 alone.
Placement random_placement(common::Rng& rng, std::size_t n_clusters,
                           std::size_t n_dpus) {
  Placement p;
  p.cluster_dpus.resize(n_clusters);
  p.dpu_clusters.resize(n_dpus);
  p.dpu_workload.assign(n_dpus, 0.0);
  p.dpu_vectors.assign(n_dpus, 0);
  for (std::size_t c = 0; c < n_clusters; ++c) {
    const std::size_t ncpy = 1 + rng.below(std::min<std::size_t>(n_dpus, 4));
    std::set<std::uint32_t> dpus;
    while (dpus.size() < ncpy) {
      dpus.insert(static_cast<std::uint32_t>(rng.below(n_dpus)));
    }
    for (auto d : dpus) {
      p.cluster_dpus[c].push_back(d);
      p.dpu_clusters[d].push_back(static_cast<std::uint32_t>(c));
    }
  }
  return p;
}

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzz, InvariantsHoldUnderRandomInputs) {
  common::Rng rng(GetParam());
  const std::size_t n_clusters = 2 + rng.below(64);
  const std::size_t n_dpus = 1 + rng.below(32);
  const std::size_t n_queries = rng.below(64);
  const std::size_t nprobe = 1 + rng.below(n_clusters);

  const Placement placement = random_placement(rng, n_clusters, n_dpus);
  std::vector<std::size_t> sizes(n_clusters);
  for (auto& s : sizes) s = rng.below(10000);

  std::vector<std::vector<std::uint32_t>> probes(n_queries);
  for (auto& list : probes) {
    std::set<std::uint32_t> chosen;
    while (chosen.size() < nprobe) {
      chosen.insert(static_cast<std::uint32_t>(rng.below(n_clusters)));
    }
    list.assign(chosen.begin(), chosen.end());
  }

  const Schedule s = schedule_queries(probes, placement, sizes);

  // 1. Every (query, cluster) pair scheduled exactly once, on a holder.
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen;
  double accounted = 0;
  for (std::size_t d = 0; d < s.n_dpus(); ++d) {
    double w = 0;
    for (const Assignment& a : s.per_dpu[d]) {
      ++seen[{a.query, a.cluster}];
      const auto& holders = placement.cluster_dpus[a.cluster];
      EXPECT_NE(std::find(holders.begin(), holders.end(), d), holders.end());
      w += static_cast<double>(sizes[a.cluster]);
    }
    EXPECT_NEAR(s.dpu_workload[d], w, 1e-6);
    accounted += w;
  }
  std::size_t expected = 0;
  for (std::size_t q = 0; q < n_queries; ++q) {
    for (auto c : probes[q]) {
      EXPECT_EQ((seen[{static_cast<std::uint32_t>(q), c}]), 1);
      ++expected;
    }
  }
  EXPECT_EQ(s.total_assignments(), expected);

  // 2. Workload conservation.
  double total = 0;
  for (const auto& list : probes) {
    for (auto c : list) total += static_cast<double>(sizes[c]);
  }
  EXPECT_NEAR(accounted, total, 1e-6);

  // 3. Per-DPU lists grouped by query.
  for (const auto& list : s.per_dpu) {
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_LE(list[i - 1].query, list[i].query);
    }
  }

  // 4. Smart scheduling never balances worse than naive.
  const Schedule naive = schedule_naive(probes, placement, sizes);
  if (s.total_assignments() > 0 && naive.balance_ratio() > 0) {
    EXPECT_LE(s.balance_ratio(), naive.balance_ratio() + 1e-9);
  }

  // 5. Invariants 1-3 restated for a per-query WorkloadModel. per_record is
  // a multiple of 0.5 and per_query an integer, so every sum is exact: a
  // DPU's W is per_record per scanned record plus per_query per distinct
  // query it serves, and the totals are conserved.
  const WorkloadModel model{0.5 * static_cast<double>(1 + rng.below(4)),
                            static_cast<double>(rng.below(5000))};
  const Schedule m = schedule_queries(probes, placement, sizes, model);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen_m;
  double records_total = 0, queries_total = 0, w_total = 0;
  for (std::size_t d = 0; d < m.n_dpus(); ++d) {
    double records = 0;
    std::set<std::uint32_t> queries;
    for (const Assignment& a : m.per_dpu[d]) {
      ++seen_m[{a.query, a.cluster}];
      const auto& holders = placement.cluster_dpus[a.cluster];
      EXPECT_NE(std::find(holders.begin(), holders.end(), d), holders.end());
      records += static_cast<double>(sizes[a.cluster]);
      queries.insert(a.query);
    }
    const double distinct = static_cast<double>(queries.size());
    EXPECT_EQ(m.dpu_workload[d],
              records * model.per_record + distinct * model.per_query)
        << "dpu " << d;
    for (std::size_t i = 1; i < m.per_dpu[d].size(); ++i) {
      EXPECT_LE(m.per_dpu[d][i - 1].query, m.per_dpu[d][i].query);
    }
    records_total += records;
    queries_total += distinct;
    w_total += m.dpu_workload[d];
  }
  EXPECT_EQ(seen_m, seen);
  EXPECT_EQ(records_total, total);
  EXPECT_EQ(w_total,
            total * model.per_record + queries_total * model.per_query);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class CaeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CaeFuzz, RoundTripOnRandomCodeTables) {
  common::Rng rng(GetParam() * 1000);
  const std::size_t m = 3 + rng.below(22);
  const std::size_t n = rng.below(400);
  // Mix random rows with bursts of repeated rows (heavy co-occurrence).
  ivf::InvertedList list;
  std::vector<std::uint8_t> repeated(m);
  for (auto& c : repeated) c = static_cast<std::uint8_t>(rng.below(256));
  for (std::size_t i = 0; i < n; ++i) {
    list.ids.push_back(static_cast<std::uint32_t>(i));
    if (rng.uniform() < 0.4) {
      list.codes.insert(list.codes.end(), repeated.begin(), repeated.end());
    } else {
      for (std::size_t s = 0; s < m; ++s) {
        list.codes.push_back(static_cast<std::uint8_t>(rng.below(256)));
      }
    }
  }
  CaeOptions opts;
  opts.max_combos = 1 + rng.below(300);
  opts.min_count = 1 + rng.below(5);
  const auto enc = cae_encode_cluster(list, m, opts);
  EXPECT_TRUE(cae_stream_matches_codes(enc, list, m))
      << "m=" << m << " n=" << n;
  EXPECT_GE(enc.length_reduction(), 0.0);
  EXPECT_LT(enc.length_reduction(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CaeFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Streaming-mutation fuzz: random interleaved insert/remove/compact against
// a test-maintained live mirror, with periodic search parity against a
// rebuild-from-survivors oracle over the same frozen quantizers.

struct MutationFixture {
  data::Dataset base = data::generate_synthetic(data::sift1b_like(1500, 33));
  ivf::IvfIndex index = build();
  data::Dataset queries;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 8;
    opts.pq_m = 16;
    opts.coarse_iters = 4;
    opts.pq_iters = 3;
    return ivf::IvfIndex::build(base, opts);
  }

  MutationFixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 4;
    spec.seed = 3;
    queries = data::generate_workload(base, spec).queries;
  }
};

MutationFixture& mutation_fixture() {
  static MutationFixture f;
  return f;
}

class MutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationFuzz, InterleavedOpsTrackOracle) {
  auto& f = mutation_fixture();
  common::Rng rng(GetParam() * 7919);
  ivf::IvfIndex idx = f.index;

  // Live mirror: id -> vector, the ground truth the index must track.
  std::map<std::uint32_t, std::vector<float>> live;
  for (std::size_t i = 0; i < f.base.n; ++i) {
    live[static_cast<std::uint32_t>(i)] = {f.base.row(i),
                                           f.base.row(i) + f.base.dim};
  }
  std::uint32_t next_id = static_cast<std::uint32_t>(f.base.n);
  std::vector<std::uint32_t> removed;

  const auto verify = [&] {
    ASSERT_EQ(idx.n_points(), live.size());
    for (int probe = 0; probe < 8; ++probe) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.below(live.size())));
      EXPECT_TRUE(idx.contains(it->first));
    }
    for (int probe = 0; probe < 4 && !removed.empty(); ++probe) {
      EXPECT_FALSE(idx.contains(removed[rng.below(removed.size())]));
    }

    // Oracle: rebuild from the survivors in (cluster, slot) order — the
    // searches must agree exactly, ids and distance bits.
    ivf::IvfIndex oracle = ivf::IvfIndex::empty_like(idx);
    std::vector<std::uint32_t> ids;
    std::vector<float> flat;
    for (const ivf::InvertedList& list : idx.lists()) {
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list.is_dead(i)) continue;
        ids.push_back(list.ids[i]);
        const auto& v = live.at(list.ids[i]);
        flat.insert(flat.end(), v.begin(), v.end());
      }
    }
    oracle.insert(ids, flat);

    baselines::SearchParams params;
    params.nprobe = idx.n_clusters();  // all lists: no filtering slack
    params.k = 10;
    const auto got =
        baselines::CpuIvfpqSearcher(idx).search(f.queries, params);
    const auto want =
        baselines::CpuIvfpqSearcher(oracle).search(f.queries, params);
    ASSERT_EQ(got.neighbors.size(), want.neighbors.size());
    for (std::size_t q = 0; q < got.neighbors.size(); ++q) {
      ASSERT_EQ(got.neighbors[q].size(), want.neighbors[q].size());
      for (std::size_t i = 0; i < got.neighbors[q].size(); ++i) {
        EXPECT_EQ(got.neighbors[q][i].id, want.neighbors[q][i].id)
            << "query " << q << " rank " << i;
        EXPECT_EQ(std::memcmp(&got.neighbors[q][i].dist,
                              &want.neighbors[q][i].dist, sizeof(float)),
                  0);
      }
    }
  };

  for (int op = 1; op <= 120; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.45) {
      const std::size_t burst = 1 + rng.below(4);
      std::vector<std::uint32_t> ids;
      std::vector<float> flat;
      for (std::size_t i = 0; i < burst; ++i) {
        const float* row = f.base.row(rng.below(f.base.n));
        std::vector<float> v(row, row + f.base.dim);
        for (float& x : v) x += rng.uniform(-0.05f, 0.05f);
        ids.push_back(next_id);
        live[next_id] = v;
        flat.insert(flat.end(), v.begin(), v.end());
        ++next_id;
      }
      idx.insert(ids, flat);
    } else if (roll < 0.85 && live.size() > 100) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.below(live.size())));
      ASSERT_TRUE(idx.remove(it->first));
      removed.push_back(it->first);
      live.erase(it);
    } else {
      idx.compact(rng.uniform() * 0.5);
    }
    if (op % 30 == 0) verify();
  }
  idx.compact();
  verify();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace upanns::core
