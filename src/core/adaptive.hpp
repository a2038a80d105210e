// Adaptive replication (paper Sec 4.1.2). DPUs cannot talk to each other,
// so PIM systems struggle with shifting query patterns; UpANNS targets
// workloads (RAG, recommendation) whose patterns drift *incrementally* over
// days and reacts at two speeds:
//   1. minor drift  -> adjust the number of cluster copies (cheap: only the
//      deltas are re-placed / loaded);
//   2. major shifts -> full data relocation (re-run Algorithm 1).
// The AdaptiveController watches a sliding window of probe history, keeps an
// exponentially-weighted frequency estimate, quantifies drift against the
// profile the current placement was built for, and recommends an action.
#pragma once

#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "core/workload_model.hpp"
#include "ivf/cluster_stats.hpp"

namespace upanns::core {

struct Placement;

enum class AdaptAction {
  kNone,        ///< placement still matches the traffic
  kAdjustCopies,///< minor drift: add/remove replicas of the shifted clusters
  kRelocate     ///< major shift: rebuild placement from scratch
};

const char* adapt_action_name(AdaptAction a);

/// How much of the drift loop the serving pipelines run online.
enum class AdaptMode {
  kOff,    ///< no controller at all — byte-identical to builds without one
  kCopies, ///< adjust-copies only; a relocate recommendation is downgraded
  kFull    ///< adjust-copies plus full Algorithm-1 relocation on major drift
};

const char* adapt_mode_name(AdaptMode m);

/// Parse "off" / "copies" / "full". Returns false on anything else.
bool parse_adapt_mode(std::string_view text, AdaptMode* out);

struct AdaptiveOptions {
  /// Sliding-window length in batches.
  std::size_t window_batches = 16;
  /// EWMA smoothing for the frequency estimate (0 = frozen, 1 = last batch).
  double ewma_alpha = 0.3;
  /// Total-variation drift below this: no action.
  double minor_threshold = 0.10;
  /// Total-variation drift above this: full relocation.
  double major_threshold = 0.35;
  /// Fraction of replica-count changes that alone forces kAdjustCopies.
  double copy_change_fraction = 0.05;
};

/// A recommended replica-count delta for one cluster.
struct CopyAdjustment {
  std::uint32_t cluster;
  std::int32_t delta;  ///< +n add replicas, -n retire replicas
};

struct AdaptReport {
  AdaptAction action = AdaptAction::kNone;
  double drift = 0.0;  ///< total-variation distance vs the baseline profile
  std::vector<CopyAdjustment> adjustments;  ///< for kAdjustCopies
};

class AdaptiveController {
 public:
  AdaptiveController(std::size_t n_clusters, AdaptiveOptions options = {});

  /// Install the frequency profile the current placement was built against.
  /// Also clears the sliding window and the EWMA estimate, so drift restarts
  /// from zero — the pipelines call this right after acting on a report.
  void set_baseline(const std::vector<double>& frequencies);

  /// Feed one batch's probe lists (cluster ids each query visited).
  void observe_batch(const std::vector<std::vector<std::uint32_t>>& probes);

  /// Feed one batch's per-DPU busy seconds (PimExtras::dpu_busy_seconds).
  /// Tracked as an EWMA of the busy-time balance ratio so reports can carry
  /// the pre-action imbalance; pure bookkeeping, never affects decisions.
  void observe_busy(const std::vector<double>& dpu_busy_seconds);

  /// Current smoothed frequency estimate (normalized).
  const std::vector<double>& estimate() const { return estimate_; }

  /// Mean of the sliding window's per-batch distributions — the short-memory
  /// traffic profile recommend() sizes replica counts from. Stale batches
  /// roll off after window_batches, unlike the long-memory EWMA that drives
  /// drift detection. Falls back to the EWMA estimate on an empty window.
  std::vector<double> window_mean() const;

  /// Total-variation distance between the estimate and the baseline.
  double drift() const;

  /// Smoothed busy-time balance ratio (0 until observe_busy is fed).
  double busy_balance() const { return busy_balance_; }

  /// Decide what to do given the current per-cluster replica counts and
  /// sizes: each cluster wants `sizing`'s ncpy (ReplicaSizing::replicas)
  /// under the window-mean traffic. With allow_relocate false (AdaptMode
  /// kCopies) major drift degrades to an adjust-copies recommendation
  /// instead of a relocation.
  AdaptReport recommend(const std::vector<std::size_t>& cluster_sizes,
                        const std::vector<std::size_t>& current_copies,
                        const ReplicaSizing& sizing,
                        bool allow_relocate) const;
  /// recommend() under the paper's per-record model, with W-bar given.
  AdaptReport recommend(const std::vector<std::size_t>& cluster_sizes,
                        const std::vector<std::size_t>& current_copies,
                        double avg_dpu_workload,
                        bool allow_relocate = true) const;

  /// recommend() for one engine's placement, as the serving pipelines call
  /// it: copies are the placement's replica counts, clusters with no
  /// resident replica are masked to size 0 (adopting one online would
  /// change the searchable set, or take another host's shard), and the
  /// sizing is place_clusters' own, ReplicaSizing::of(model, ...) over the
  /// placement's DPUs under window_mean() — so traffic that has not drifted
  /// asks for the copies placement made.
  AdaptReport recommend_for(const Placement& placement,
                            const std::vector<std::size_t>& cluster_sizes,
                            const WorkloadModel& model,
                            bool allow_relocate) const;

  std::size_t batches_observed() const { return batches_observed_; }

 private:
  std::size_t n_clusters_;
  AdaptiveOptions options_;
  std::vector<double> baseline_;
  std::vector<double> estimate_;
  std::deque<std::vector<double>> window_;
  std::size_t batches_observed_ = 0;
  double busy_balance_ = 0.0;
  bool busy_seen_ = false;
};

}  // namespace upanns::core
