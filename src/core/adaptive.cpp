#include "core/adaptive.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "core/placement.hpp"

namespace upanns::core {

const char* adapt_action_name(AdaptAction a) {
  switch (a) {
    case AdaptAction::kNone: return "none";
    case AdaptAction::kAdjustCopies: return "adjust-copies";
    case AdaptAction::kRelocate: return "relocate";
  }
  return "?";
}

const char* adapt_mode_name(AdaptMode m) {
  switch (m) {
    case AdaptMode::kOff: return "off";
    case AdaptMode::kCopies: return "copies";
    case AdaptMode::kFull: return "full";
  }
  return "?";
}

bool parse_adapt_mode(std::string_view text, AdaptMode* out) {
  if (text == "off") {
    *out = AdaptMode::kOff;
  } else if (text == "copies") {
    *out = AdaptMode::kCopies;
  } else if (text == "full") {
    *out = AdaptMode::kFull;
  } else {
    return false;
  }
  return true;
}

AdaptiveController::AdaptiveController(std::size_t n_clusters,
                                       AdaptiveOptions options)
    : n_clusters_(n_clusters), options_(options) {
  if (n_clusters_ == 0) {
    throw std::invalid_argument("AdaptiveController: n_clusters == 0");
  }
  baseline_.assign(n_clusters_, 1.0 / static_cast<double>(n_clusters_));
  estimate_ = baseline_;
}

void AdaptiveController::set_baseline(const std::vector<double>& frequencies) {
  assert(frequencies.size() == n_clusters_);
  baseline_ = frequencies;
  double total = 0;
  for (double f : baseline_) total += f;
  if (total > 0) {
    for (double& f : baseline_) f /= total;
  }
  estimate_ = baseline_;
  window_.clear();
}

void AdaptiveController::observe_busy(
    const std::vector<double>& dpu_busy_seconds) {
  const double balance = common::max_over_mean(dpu_busy_seconds);
  if (!busy_seen_) {
    busy_balance_ = balance;
    busy_seen_ = true;
    return;
  }
  const double a = options_.ewma_alpha;
  busy_balance_ = (1.0 - a) * busy_balance_ + a * balance;
}

std::vector<double> AdaptiveController::window_mean() const {
  if (window_.empty()) return estimate_;
  std::vector<double> mean(n_clusters_, 0.0);
  for (const std::vector<double>& batch : window_) {
    for (std::size_t c = 0; c < n_clusters_; ++c) mean[c] += batch[c];
  }
  const double inv = 1.0 / static_cast<double>(window_.size());
  for (double& v : mean) v *= inv;
  return mean;
}

void AdaptiveController::observe_batch(
    const std::vector<std::vector<std::uint32_t>>& probes) {
  std::vector<double> batch(n_clusters_, 0.0);
  double total = 0;
  for (const auto& list : probes) {
    for (std::uint32_t c : list) {
      if (c < n_clusters_) {
        batch[c] += 1.0;
        total += 1.0;
      }
    }
  }
  if (total == 0) return;
  for (double& v : batch) v /= total;

  window_.push_back(batch);
  if (window_.size() > options_.window_batches) window_.pop_front();

  // EWMA update toward the batch distribution.
  const double a = options_.ewma_alpha;
  for (std::size_t c = 0; c < n_clusters_; ++c) {
    estimate_[c] = (1.0 - a) * estimate_[c] + a * batch[c];
  }
  ++batches_observed_;
}

double AdaptiveController::drift() const {
  // Total-variation distance: 0 (identical) .. 1 (disjoint support).
  double tv = 0;
  for (std::size_t c = 0; c < n_clusters_; ++c) {
    tv += std::abs(estimate_[c] - baseline_[c]);
  }
  return 0.5 * tv;
}

AdaptReport AdaptiveController::recommend(
    const std::vector<std::size_t>& cluster_sizes,
    const std::vector<std::size_t>& current_copies,
    double avg_dpu_workload, bool allow_relocate) const {
  return recommend(cluster_sizes, current_copies,
                   ReplicaSizing{WorkloadModel{}, avg_dpu_workload},
                   allow_relocate);
}

AdaptReport AdaptiveController::recommend(
    const std::vector<std::size_t>& cluster_sizes,
    const std::vector<std::size_t>& current_copies,
    const ReplicaSizing& sizing, bool allow_relocate) const {
  assert(cluster_sizes.size() == n_clusters_);
  assert(current_copies.size() == n_clusters_);
  AdaptReport report;
  report.drift = drift();

  if (allow_relocate && report.drift >= options_.major_threshold) {
    report.action = AdaptAction::kRelocate;
    return report;
  }

  // Desired replica counts under the *short-memory* traffic profile:
  // Algorithm 1's ncpy (ReplicaSizing) recomputed with the window mean,
  // so a hot set that already rolled out of the window stops holding
  // replicas (the long-memory EWMA only gates whether acting is worth it).
  const std::vector<double> freq = window_mean();
  std::size_t changed = 0;
  std::size_t replicated_total = 0;
  for (std::size_t c = 0; c < n_clusters_; ++c) {
    if (cluster_sizes[c] == 0) continue;
    const std::size_t want = sizing.replicas(cluster_sizes[c], freq[c]);
    replicated_total += current_copies[c];
    if (want != current_copies[c]) {
      report.adjustments.push_back(
          {static_cast<std::uint32_t>(c),
           static_cast<std::int32_t>(want) -
               static_cast<std::int32_t>(current_copies[c])});
      ++changed;
    }
  }

  const double change_frac =
      replicated_total > 0
          ? static_cast<double>(changed) / static_cast<double>(n_clusters_)
          : 0.0;
  if (report.drift >= options_.minor_threshold ||
      change_frac >= options_.copy_change_fraction) {
    report.action = AdaptAction::kAdjustCopies;
  } else {
    report.action = AdaptAction::kNone;
    report.adjustments.clear();
  }
  return report;
}

AdaptReport AdaptiveController::recommend_for(
    const Placement& placement, const std::vector<std::size_t>& cluster_sizes,
    const WorkloadModel& model, bool allow_relocate) const {
  std::vector<std::size_t> copies(cluster_sizes.size(), 0);
  std::vector<std::size_t> resident_sizes = cluster_sizes;
  for (std::size_t c = 0; c < cluster_sizes.size(); ++c) {
    copies[c] = placement.cluster_dpus[c].size();
    if (copies[c] == 0) resident_sizes[c] = 0;
  }
  return recommend(resident_sizes, copies,
                   ReplicaSizing::of(model, resident_sizes, window_mean(),
                                     placement.n_dpus()),
                   allow_relocate);
}

}  // namespace upanns::core
