// Bounded top-k containers used on every architecture path:
//  - BoundedMaxHeap: the classic "keep the k smallest distances" max-heap, as
//    maintained per thread (tasklet) during the distance-calculation stage.
//  - The heap can be converted in place to ascending order (heapsort), which
//    is the min-heap traversal order the Top-K Pruning stage (paper 4.4)
//    consumes when merging thread-local heaps into the DPU-global heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace upanns::common {

/// A (distance, id) candidate. Lower distance is better.
struct Neighbor {
  float dist;
  std::uint32_t id;

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    // Tie-break on id for deterministic results across schedules.
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.dist == b.dist && a.id == b.id;
  }
};

/// Fixed-capacity max-heap keeping the k best (smallest) candidates of any
/// totally ordered candidate type (operator<, id tie-break included).
/// push() is O(log k) once full, O(log size) while filling.
template <typename T>
class BasicBoundedMaxHeap {
 public:
  explicit BasicBoundedMaxHeap(std::size_t k) : k_(k) { data_.reserve(k); }

  std::size_t capacity() const { return k_; }
  std::size_t size() const { return data_.size(); }
  bool full() const { return data_.size() == k_; }
  bool empty() const { return data_.empty(); }

  /// The worst retained candidate (heap root). Only valid when non-empty;
  /// `n < worst()` is the exact acceptance test push() applies when full,
  /// including the id tie-break — pruning must use this, not a distance-only
  /// threshold, to stay result-identical.
  const T& worst() const { return data_.front(); }

  /// Insert a candidate if it beats the current threshold.
  /// Returns true if the candidate was retained.
  bool push(T n) {
    if (k_ == 0) return false;
    if (!full()) {
      data_.push_back(n);
      std::push_heap(data_.begin(), data_.end());
      return true;
    }
    if (!(n < data_.front())) return false;
    std::pop_heap(data_.begin(), data_.end());
    data_.back() = n;
    std::push_heap(data_.begin(), data_.end());
    return true;
  }

  const std::vector<T>& raw() const { return data_; }

  /// Destructively extract candidates sorted by ascending distance.
  std::vector<T> take_sorted() {
    std::sort_heap(data_.begin(), data_.end());
    return std::exchange(data_, {});
  }

  /// Destructively extract into a caller-owned buffer (ascending order).
  /// Unlike take_sorted(), both the heap's storage and `out` keep their
  /// capacity, so repeated extract/refill cycles allocate nothing once
  /// warm — the DPU-kernel merge stage depends on this.
  void take_sorted_into(std::vector<T>& out) {
    std::sort_heap(data_.begin(), data_.end());
    out.assign(data_.begin(), data_.end());
    data_.clear();
  }

  /// Non-destructive sorted copy.
  std::vector<T> sorted() const {
    std::vector<T> out = data_;
    std::sort(out.begin(), out.end());
    return out;
  }

  void clear() { data_.clear(); }

 private:
  std::size_t k_;
  std::vector<T> data_;
};

/// The float-distance heap every architecture path shares.
class BoundedMaxHeap : public BasicBoundedMaxHeap<Neighbor> {
 public:
  using BasicBoundedMaxHeap::BasicBoundedMaxHeap;
  using BasicBoundedMaxHeap::push;

  /// Current worst (largest) retained distance; +inf while not full.
  float threshold() const {
    return full() ? worst().dist : std::numeric_limits<float>::infinity();
  }

  bool push(float dist, std::uint32_t id) { return push(Neighbor{dist, id}); }
};

/// Merge several ascending-sorted candidate lists into the k best overall.
/// This mirrors the host-side final aggregation across DPUs.
std::vector<Neighbor> merge_sorted_topk(
    const std::vector<std::vector<Neighbor>>& lists, std::size_t k);

inline std::vector<Neighbor> merge_sorted_topk(
    const std::vector<std::vector<Neighbor>>& lists, std::size_t k) {
  BoundedMaxHeap heap(k);
  for (const auto& list : lists) {
    for (const auto& n : list) {
      // Lists are ascending: once one entry fails the heap's acceptance test
      // (worst(), id tie-break included), the rest of this list cannot
      // contribute — the same early exit the DPU merge uses. A distance-only
      // test would drop a tie with a smaller id and make the result depend
      // on list order.
      if (heap.full() && !(n < heap.worst())) break;
      heap.push(n);
    }
  }
  return heap.take_sorted();
}

}  // namespace upanns::common
