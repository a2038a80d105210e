#include "common/topk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace upanns::common {
namespace {

TEST(BoundedMaxHeap, KeepsKSmallest) {
  BoundedMaxHeap h(3);
  for (float d : {9.f, 1.f, 5.f, 3.f, 7.f, 2.f}) {
    h.push(d, static_cast<std::uint32_t>(d));
  }
  const auto sorted = h.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_FLOAT_EQ(sorted[0].dist, 1.f);
  EXPECT_FLOAT_EQ(sorted[1].dist, 2.f);
  EXPECT_FLOAT_EQ(sorted[2].dist, 3.f);
}

TEST(BoundedMaxHeap, ThresholdIsWorstRetained) {
  BoundedMaxHeap h(2);
  EXPECT_EQ(h.threshold(), std::numeric_limits<float>::infinity());
  h.push(4.f, 0);
  EXPECT_EQ(h.threshold(), std::numeric_limits<float>::infinity());
  h.push(2.f, 1);
  EXPECT_FLOAT_EQ(h.threshold(), 4.f);
  h.push(1.f, 2);
  EXPECT_FLOAT_EQ(h.threshold(), 2.f);
}

TEST(BoundedMaxHeap, RejectsWorseThanThreshold) {
  BoundedMaxHeap h(1);
  EXPECT_TRUE(h.push(3.f, 0));
  EXPECT_FALSE(h.push(5.f, 1));
  EXPECT_TRUE(h.push(1.f, 2));
  EXPECT_EQ(h.sorted()[0].id, 2u);
}

TEST(BoundedMaxHeap, ZeroCapacity) {
  BoundedMaxHeap h(0);
  EXPECT_FALSE(h.push(1.f, 0));
  EXPECT_TRUE(h.empty());
}

TEST(BoundedMaxHeap, TieBreaksOnId) {
  BoundedMaxHeap h(2);
  h.push(1.f, 9);
  h.push(1.f, 3);
  h.push(1.f, 5);  // ties: ids 3 and 5 must win over 9
  const auto s = h.sorted();
  EXPECT_EQ(s[0].id, 3u);
  EXPECT_EQ(s[1].id, 5u);
}

TEST(BoundedMaxHeap, TakeSortedEmptiesHeap) {
  BoundedMaxHeap h(4);
  h.push(2.f, 0);
  h.push(1.f, 1);
  auto s = h.take_sorted();
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(h.empty());
}

TEST(BoundedMaxHeap, ClearResets) {
  BoundedMaxHeap h(2);
  h.push(1.f, 0);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.threshold(), std::numeric_limits<float>::infinity());
}

// Property: heap output equals sort-and-truncate for random streams.
class HeapPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeapPropertyTest, MatchesSortTruncate) {
  const std::size_t k = GetParam();
  Rng rng(1000 + k);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(500);
    std::vector<Neighbor> all;
    BoundedMaxHeap h(k);
    for (std::size_t i = 0; i < n; ++i) {
      Neighbor nb{rng.uniform(0.f, 100.f), static_cast<std::uint32_t>(i)};
      all.push_back(nb);
      h.push(nb);
    }
    std::sort(all.begin(), all.end());
    all.resize(std::min(k, all.size()));
    EXPECT_EQ(h.take_sorted(), all) << "k=" << k << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, HeapPropertyTest,
                         ::testing::Values(1, 2, 5, 10, 64, 100));

TEST(MergeSortedTopk, MergesAcrossLists) {
  std::vector<std::vector<Neighbor>> lists = {
      {{1.f, 1}, {4.f, 4}}, {{2.f, 2}, {5.f, 5}}, {{3.f, 3}}};
  const auto merged = merge_sorted_topk(lists, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 1u);
  EXPECT_EQ(merged[1].id, 2u);
  EXPECT_EQ(merged[2].id, 3u);
}

TEST(MergeSortedTopk, EmptyLists) {
  EXPECT_TRUE(merge_sorted_topk({}, 5).empty());
  EXPECT_TRUE(merge_sorted_topk({{}, {}}, 5).empty());
}

TEST(MergeSortedTopk, FewerThanK) {
  const auto merged = merge_sorted_topk({{{1.f, 1}}}, 10);
  EXPECT_EQ(merged.size(), 1u);
}

TEST(MergeSortedTopk, TiedDistancesIndependentOfListOrder) {
  // The k-th distance ties across lists; the smaller id must win no matter
  // which list arrives first.
  const std::vector<Neighbor> a = {{1.f, 10}, {2.f, 30}};
  const std::vector<Neighbor> b = {{1.f, 11}, {2.f, 20}, {2.f, 21}};
  const auto ab = merge_sorted_topk({a, b}, 3);
  const auto ba = merge_sorted_topk({b, a}, 3);
  EXPECT_EQ(ab, ba);
  const std::vector<Neighbor> expect = {{1.f, 10}, {1.f, 11}, {2.f, 20}};
  EXPECT_EQ(ab, expect);
}

TEST(MergeSortedTopk, PropertyMatchesGlobalSort) {
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n_lists = 1 + rng.below(8);
    const std::size_t k = 1 + rng.below(20);
    std::vector<std::vector<Neighbor>> lists(n_lists);
    std::vector<Neighbor> all;
    std::uint32_t id = 0;
    for (auto& list : lists) {
      const std::size_t len = rng.below(30);
      for (std::size_t i = 0; i < len; ++i) {
        list.push_back({rng.uniform(0.f, 10.f), id++});
      }
      std::sort(list.begin(), list.end());
      all.insert(all.end(), list.begin(), list.end());
    }
    std::sort(all.begin(), all.end());
    all.resize(std::min(k, all.size()));
    EXPECT_EQ(merge_sorted_topk(lists, k), all);
  }
}

}  // namespace
}  // namespace upanns::common
