#include "core/multihost.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/hw_specs.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace upanns::core {

MultiHostUpAnns::MultiHostUpAnns(const ivf::IvfIndex& index,
                                 const ivf::ClusterStats& stats,
                                 MultiHostOptions options)
    : index_(index), options_(std::move(options)) {
  init(stats);
}

MultiHostUpAnns::MultiHostUpAnns(ivf::IvfIndex& index,
                                 const ivf::ClusterStats& stats,
                                 MultiHostOptions options)
    : index_(index), mutable_index_(&index), options_(std::move(options)) {
  init(stats);
}

void MultiHostUpAnns::init(const ivf::ClusterStats& stats) {
  if (options_.n_hosts == 0) {
    throw std::invalid_argument("MultiHostUpAnns: n_hosts == 0");
  }
  const std::size_t nc = index_.n_clusters();
  owner_.assign(nc, 0);

  // Largest-workload-first onto the least-loaded host: whole clusters only,
  // mirroring Opt1's DPU-level rule one level up.
  std::vector<std::uint32_t> order(nc);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return stats.workloads[a] > stats.workloads[b];
  });
  std::vector<double> host_load(options_.n_hosts, 0.0);
  std::vector<std::size_t> host_clusters(options_.n_hosts, 0);
  for (std::uint32_t c : order) {
    const std::size_t h = static_cast<std::size_t>(
        std::min_element(host_load.begin(), host_load.end()) -
        host_load.begin());
    owner_[c] = static_cast<std::uint32_t>(h);
    host_load[h] += stats.workloads[c];
    ++host_clusters[h];
  }

  // Per-host stats: foreign clusters appear empty, so placement skips them
  // and the scheduler never routes their probes to this host. Hosts that own
  // no clusters at all (n_hosts > n_clusters) get no engine: they would
  // scan nothing, so they contribute empty lists and zero simulated time.
  engines_.resize(options_.n_hosts);
  for (std::size_t h = 0; h < options_.n_hosts; ++h) {
    if (host_clusters[h] == 0) continue;
    ivf::ClusterStats shard = stats;
    for (std::size_t c = 0; c < nc; ++c) {
      if (owner_[c] != h) {
        shard.sizes[c] = 0;
        shard.workloads[c] = 0;
      }
    }
    // Engines over a mutable index are themselves updatable, so each host
    // can incrementally patch the clusters resident in its own shard.
    engines_[h] =
        mutable_index_ != nullptr
            ? std::make_unique<UpAnnsEngine>(*mutable_index_, shard,
                                             options_.per_host)
            : std::make_unique<UpAnnsEngine>(index_, shard,
                                             options_.per_host);
    ++n_active_;
  }
}

namespace {

UpAnnsEngine& first_active_engine(
    std::vector<std::unique_ptr<UpAnnsEngine>>& engines, bool updatable) {
  if (!updatable) {
    throw std::logic_error("MultiHostUpAnns: cluster is read-only");
  }
  for (auto& engine : engines) {
    if (engine) return *engine;
  }
  throw std::logic_error("MultiHostUpAnns: no active hosts");
}

}  // namespace

void MultiHostUpAnns::upsert(std::span<const std::uint32_t> ids,
                             std::span<const float> vectors) {
  // One engine mutates the shared index; every host's engine observes the
  // epoch drift and patches its own resident clusters on the next patch.
  first_active_engine(engines_, updatable()).upsert(ids, vectors);
}

std::size_t MultiHostUpAnns::remove(std::span<const std::uint32_t> ids) {
  return first_active_engine(engines_, updatable()).remove(ids);
}

std::size_t MultiHostUpAnns::compact(double min_tombstone_ratio) {
  return first_active_engine(engines_, updatable())
      .compact(min_tombstone_ratio);
}

bool MultiHostUpAnns::needs_patch() const {
  for (const auto& engine : engines_) {
    if (engine && engine->needs_patch()) return true;
  }
  return false;
}

UpAnnsEngine::PatchStats MultiHostUpAnns::patch_hosts() {
  if (!updatable()) {
    throw std::logic_error("MultiHostUpAnns::patch_hosts: cluster is read-only");
  }
  // Hosts patch their own MRAM buses concurrently: wall time (and its
  // staged-copy share) is the slowest host's patch, volume counters sum
  // across the fleet.
  UpAnnsEngine::PatchStats total;
  for (auto& engine : engines_) {
    if (!engine) continue;
    const UpAnnsEngine::PatchStats ps = engine->patch_dpus();
    if (ps.seconds > total.seconds) {
      total.seconds = ps.seconds;
      total.apply_seconds = ps.apply_seconds;
    }
    total.bytes_written += ps.bytes_written;
    total.lists_patched += ps.lists_patched;
    total.regions_moved += ps.regions_moved;
  }
  return total;
}

std::uint32_t MultiHostUpAnns::host_of(std::size_t cluster) const {
  if (cluster >= owner_.size()) {
    throw std::out_of_range("MultiHostUpAnns::host_of: cluster " +
                            std::to_string(cluster) + " >= n_clusters " +
                            std::to_string(owner_.size()));
  }
  return owner_[cluster];
}

UpAnnsEngine& MultiHostUpAnns::host_engine(std::size_t h) {
  if (h >= engines_.size() || engines_[h] == nullptr) {
    throw std::logic_error("MultiHostUpAnns::host_engine: host " +
                           std::to_string(h) + " owns no clusters");
  }
  return *engines_[h];
}

MultiHostReport MultiHostUpAnns::search(const data::Dataset& queries) {
  const auto probes =
      ivf::filter_batch(index_, queries, options_.per_host.nprobe);
  return search_with_probes(queries, probes);
}

MultiHostReport MultiHostUpAnns::search_with_probes(
    const data::Dataset& queries,
    const std::vector<std::vector<std::uint32_t>>& probes) {
  // Lazily apply pending mutations, mirroring UpAnnsBackend::search — the
  // pipeline patches (and charges) explicitly before it gets here.
  if (updatable() && needs_patch()) patch_hosts();
  MultiHostReport report;
  const std::size_t nq = queries.n;
  const std::size_t k = options_.per_host.k;

  // One cluster-filtering pass on the coordinator, shared with every host,
  // charged like ClusterFilterStage (each per-host report books an identical
  // value, which the aggregation below subtracts so the pass is accounted
  // exactly once). In UpANNS modes it includes the per-query tables.
  const KernelMode mode = kernel_mode_of(options_.per_host);
  report.coord_filter_seconds =
      cluster_filter_seconds(index_, nq, options_.per_host.k, mode);

  // Broadcast the batch: the coordinator NIC sends every query vector (and,
  // in UpANNS modes, its u16 table and f32 offset o_q; hosts key their pairs
  // from the vector) to each active host, so the wire time scales with the
  // fan-out (hosts that own no clusters are skipped — there is nothing for
  // them to scan).
  const double table_bytes =
      mode == KernelMode::kNaiveRaw
          ? 0.0
          : static_cast<double>(index_.pq_m()) * 256.0 * 2.0 + 4.0;
  const double per_host_query_bytes =
      static_cast<double>(nq) *
      (static_cast<double>(queries.dim) * 4.0 + table_bytes);
  const double bcast_bytes =
      static_cast<double>(n_active_) * per_host_query_bytes;
  report.broadcast_seconds =
      options_.network_latency + bcast_bytes / options_.network_bandwidth;

  // Every active host returns k results per query.
  const double per_host_result_bytes =
      static_cast<double>(nq) * static_cast<double>(k) * 8.0;
  const double gather_bytes =
      static_cast<double>(n_active_) * per_host_result_bytes;
  report.gather_seconds =
      options_.network_latency + gather_bytes / options_.network_bandwidth;
  report.network_seconds = report.broadcast_seconds + report.gather_seconds;

  std::vector<std::vector<std::vector<common::Neighbor>>> per_host_results;
  per_host_results.reserve(engines_.size());
  report.host_times.reserve(engines_.size());
  report.host_slots.reserve(engines_.size());
  for (auto& engine : engines_) {
    MultiHostHostSlot slot;
    if (engine == nullptr) {
      slot.active = false;
      report.host_times.emplace_back();
      report.host_slots.push_back(slot);
      per_host_results.emplace_back();
      continue;
    }
    auto r = engine->search_with_probes(queries, probes);
    // The engine's report books its own copy of the shared coordinator
    // filter as the first trace entry; strip it from the per-host share so
    // the pass is charged once (coord_filter_seconds above), then split the
    // remainder at the host/device boundary exactly like BatchPipeline.
    double filter_seconds = 0;
    for (const StageStep& step : r.trace) {
      if (step.side != StageSide::kHost) break;
      if (std::string_view(step.name) == "cluster-filter") {
        filter_seconds += step.seconds;
      }
    }
    const double prefix = leading_host_seconds(r);
    slot.host_seconds = prefix - filter_seconds;
    slot.device_seconds = r.times.total() - prefix;
    slot.network_seconds = (per_host_query_bytes + per_host_result_bytes) /
                           options_.network_bandwidth;
    report.slowest_host_seconds =
        std::max(report.slowest_host_seconds,
                 slot.host_seconds + slot.device_seconds);
    report.host_times.push_back(r.times);
    report.host_slots.push_back(slot);
    per_host_results.push_back(std::move(r.neighbors));
  }

  // Coordinator-side k-way merge across host lists, charged like the
  // engine-local MergeStage (~lists * k heap ops per query).
  double merge_ops = 0;
  report.neighbors.resize(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    std::vector<std::vector<common::Neighbor>> lists;
    lists.reserve(n_active_);
    for (auto& host : per_host_results) {
      if (host.empty()) continue;  // inactive host: nothing to merge
      lists.push_back(std::move(host[q]));
    }
    merge_ops += static_cast<double>(lists.size()) *
                 static_cast<double>(k) * 8.0;
    report.neighbors[q] = common::merge_sorted_topk(lists, k);
  }
  report.coord_merge_seconds = merge_ops / hw::kCpuFlops;

  // Summed in pre / device / post order — the same association the pipeline
  // timeline uses — so a one-batch overlapped run reproduces this value
  // bit-for-bit.
  const double pre = report.coord_filter_seconds + report.broadcast_seconds;
  const double post = report.gather_seconds + report.coord_merge_seconds;
  report.seconds = pre + report.slowest_host_seconds + post;
  report.qps = report.seconds > 0
                   ? static_cast<double>(nq) / report.seconds
                   : 0;

  obs::MetricsSink sink(metrics_);
  if (sink.enabled()) {
    sink.count("multihost.batches");
    sink.count("multihost.broadcast_bytes",
               static_cast<std::uint64_t>(bcast_bytes));
    sink.count("multihost.gather_bytes",
               static_cast<std::uint64_t>(gather_bytes));
    sink.count("multihost.merge.lists",
               static_cast<std::uint64_t>(n_active_) * nq);
    sink.observe("multihost.broadcast_seconds", report.broadcast_seconds);
    sink.observe("multihost.gather_seconds", report.gather_seconds);
    sink.observe("multihost.network_seconds", report.network_seconds);
    sink.observe("multihost.coord_merge_seconds", report.coord_merge_seconds);
    sink.observe("multihost.batch.seconds", report.seconds);
    sink.set("multihost.slowest_host_seconds", report.slowest_host_seconds);
  }
  return report;
}

void MultiHostUpAnns::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  for (auto& engine : engines_) {
    if (engine) engine->set_metrics(registry);
  }
}

std::vector<MultiHostBatchWindows> multihost_timeline(
    const MultiHostPipelineReport& report) {
  std::vector<MultiHostBatchWindows> out;
  out.reserve(report.slots.size());
  if (!report.overlapped) {
    double t = 0;
    for (const MultiHostBatchSlot& slot : report.slots) {
      MultiHostBatchWindows w;
      w.pre_start = t;
      w.pre_end = w.pre_start + slot.pre_seconds;
      w.device_start = w.pre_end;
      w.device_end = w.device_start + slot.device_seconds;
      w.post_start = w.device_end;
      w.post_end = w.post_start + slot.post_seconds;
      t = w.post_end;
      out.push_back(w);
    }
    return out;
  }

  // Two resources: the coordinator runs pre(0), pre(1), post(0), pre(2),
  // post(1), ... (ready the next batch first, then merge the finished one);
  // the host fleet runs device phases in batch order. device(i) additionally
  // waits for pre(i), post(i) for device(i).
  double coord_free = 0;
  double device_free = 0;
  for (std::size_t i = 0; i < report.slots.size(); ++i) {
    MultiHostBatchWindows w;
    w.pre_start = coord_free;
    w.pre_end = w.pre_start + report.slots[i].pre_seconds;
    coord_free = w.pre_end;
    w.device_start = std::max(w.pre_end, device_free);
    w.device_end = w.device_start + report.slots[i].device_seconds;
    device_free = w.device_end;
    out.push_back(w);
    if (i >= 1) {
      MultiHostBatchWindows& prev = out[i - 1];
      prev.post_start = std::max(coord_free, prev.device_end);
      prev.post_end = prev.post_start + report.slots[i - 1].post_seconds;
      coord_free = prev.post_end;
    }
  }
  if (!out.empty()) {
    MultiHostBatchWindows& last = out.back();
    last.post_start = std::max(coord_free, last.device_end);
    last.post_end = last.post_start + report.slots.back().post_seconds;
  }
  return out;
}

MultiHostBatchPipeline::MultiHostBatchPipeline(MultiHostUpAnns& cluster,
                                               MultiHostPipelineOptions opts)
    : cluster_(cluster), opts_(opts) {}

MultiHostPipelineReport MultiHostBatchPipeline::run(
    const std::vector<data::Dataset>& batches) {
  return run(batches, MutationHook{});
}

MultiHostPipelineReport MultiHostBatchPipeline::run(
    const std::vector<data::Dataset>& batches, const MutationHook& mutate) {
  MultiHostPipelineReport out;
  out.overlapped = opts_.overlap;
  const bool adapting = opts_.adapt != AdaptMode::kOff;

  for (std::size_t b = 0; b < batches.size(); ++b) {
    const data::Dataset& batch = batches[b];
    MultiHostBatchSlot slot;
    if (mutate) mutate(b);
    if (cluster_.updatable() && cluster_.needs_patch()) {
      const UpAnnsEngine::PatchStats ps = cluster_.patch_hosts();
      slot.patch_seconds = ps.seconds;
      slot.patch_bytes = ps.bytes_written;
    }
    // Mutations land first so adaptive replicas build from fresh encodings;
    // the adaptation is a fleet-wide drain point between batches.
    if (adapting) apply_pending_adaptation(slot);
    std::vector<std::vector<std::uint32_t>> probes;
    if (adapting) {
      // One coordinator probe pass, shared by the search and by every
      // host's controller. search_with_probes charges the same simulated
      // filter time search() would, so a quiet controller keeps the run
      // bit-identical to the non-adaptive path.
      probes = ivf::filter_batch(cluster_.index(), batch,
                                 cluster_.options().per_host.nprobe);
      slot.report = cluster_.search_with_probes(batch, probes);
    } else {
      slot.report = cluster_.search(batch);
    }
    slot.pre_seconds =
        slot.report.coord_filter_seconds + slot.report.broadcast_seconds;
    // The fleet-wide patch (and any drift adaptation) occupies the hosts'
    // MRAM buses, so it leads the device phase like the single-host
    // pipeline's patch; adding 0.0 keeps read-only runs bit-identical.
    slot.device_seconds = slot.report.slowest_host_seconds +
                          slot.patch_seconds + slot.adapt_seconds;
    slot.post_seconds =
        slot.report.gather_seconds + slot.report.coord_merge_seconds;
    out.n_queries += batch.n;
    out.serial_seconds +=
        slot.report.seconds + slot.patch_seconds + slot.adapt_seconds;
    out.slots.push_back(std::move(slot));
    if (adapting) observe_and_decide(probes);
  }

  if (!opts_.overlap || out.slots.empty()) {
    out.elapsed_seconds = out.serial_seconds;
  } else {
    out.elapsed_seconds = multihost_timeline(out).back().post_end;
  }
  out.qps = out.elapsed_seconds > 0
                ? static_cast<double>(out.n_queries) / out.elapsed_seconds
                : 0;

  obs::MetricsSink sink(cluster_.metrics());
  if (sink.enabled()) {
    const std::vector<MultiHostBatchWindows> timeline = multihost_timeline(out);
    for (std::size_t i = 0; i < out.slots.size(); ++i) {
      const MultiHostBatchSlot& slot = out.slots[i];
      sink.observe("multihost_pipeline.slot.pre_seconds", slot.pre_seconds);
      sink.observe("multihost_pipeline.slot.device_seconds",
                   slot.device_seconds);
      sink.observe("multihost_pipeline.slot.post_seconds", slot.post_seconds);
      // Only written when a patch actually ran, so read-only runs keep a
      // byte-identical metrics report.
      if (slot.patch_seconds > 0) {
        sink.observe("multihost_pipeline.slot.patch_seconds",
                     slot.patch_seconds);
        sink.count("multihost_pipeline.patch_bytes", slot.patch_bytes);
      }
      if (slot.adapt_seconds > 0) {
        sink.observe("multihost_pipeline.slot.adapt_seconds",
                     slot.adapt_seconds);
        sink.count("multihost_pipeline.adapt_bytes", slot.adapt_bytes);
      }
      // Per-query latency (submission to merge completion) under the same
      // timeline the exporter draws, into the cumulative histogram and the
      // rolling window at the batch's completion time.
      const double latency = timeline[i].post_end - timeline[i].pre_start;
      const std::uint64_t nq = slot.report.neighbors.size();
      sink.observe_n("query.latency_seconds", latency, nq);
      sink.observe_window("query.latency_seconds", timeline[i].post_end,
                          latency, nq);
    }
    sink.count("multihost_pipeline.runs");
    sink.set("multihost_pipeline.overlap_saved_seconds",
             out.serial_seconds - out.elapsed_seconds);
    sink.set("multihost_pipeline.qps", out.qps);
  }
  if (cluster_.spans() != nullptr) {
    obs::append_multihost_spans(*cluster_.spans(), out);
  }
  return out;
}

void MultiHostBatchPipeline::apply_pending_adaptation(
    MultiHostBatchSlot& slot) {
  bool applied = false;
  for (std::size_t h = 0; h < adapt_.size(); ++h) {
    HostAdapt& ha = adapt_[h];
    if (!ha.controller || ha.pending.action == AdaptAction::kNone) continue;
    UpAnnsEngine& engine = cluster_.host_engine(h);
    double seconds = 0;
    std::uint64_t bytes = 0;
    if (ha.pending.action == AdaptAction::kRelocate) {
      // Per-host Algorithm-1 re-placement over this host's resident shard:
      // foreign and never-placed clusters keep size 0, so shard ownership —
      // and with it every neighbor list — is unchanged.
      ivf::ClusterStats stats;
      stats.sizes = cluster_.index().list_sizes();
      stats.frequencies = ha.pending_freqs;
      for (std::size_t c = 0; c < stats.sizes.size(); ++c) {
        if (engine.placement().cluster_dpus[c].empty()) stats.sizes[c] = 0;
      }
      stats.workloads.resize(stats.sizes.size());
      for (std::size_t c = 0; c < stats.sizes.size(); ++c) {
        stats.workloads[c] =
            static_cast<double>(stats.sizes[c]) * stats.frequencies[c];
      }
      const UpAnnsEngine::PatchStats ps = engine.relocate(stats);
      seconds = ps.seconds;
      bytes = ps.bytes_written;
    } else {
      const UpAnnsEngine::AdaptStats as = engine.apply_copy_adjustments(
          ha.pending.adjustments, ha.pending_freqs);
      seconds = as.seconds;
      bytes = as.bytes_written;
    }
    // Hosts adapt their own MRAM buses concurrently: slot time is the
    // slowest host's, volume sums, and the slot keeps the most severe
    // action (relocate > adjust-copies) with the largest drift.
    slot.adapt_seconds = std::max(slot.adapt_seconds, seconds);
    slot.adapt_bytes += bytes;
    if (static_cast<int>(ha.pending.action) >
        static_cast<int>(slot.adapt_action)) {
      slot.adapt_action = ha.pending.action;
    }
    slot.adapt_drift = std::max(slot.adapt_drift, ha.pending.drift);

    obs::MetricsSink sink(cluster_.metrics());
    if (sink.enabled()) {
      sink.count(std::string("adapt.actions.") +
                 adapt_action_name(ha.pending.action));
      sink.set("adapt.drift", ha.pending.drift);
    }

    // This host's placement now matches the decided profile.
    ha.controller->set_baseline(ha.pending_freqs);
    ha.pending = AdaptReport{};
    ha.pending_freqs.clear();
    applied = true;
  }
  if (applied) observed_since_action_ = 0;
}

void MultiHostBatchPipeline::observe_and_decide(
    const std::vector<std::vector<std::uint32_t>>& probes) {
  if (adapt_.empty()) {
    adapt_.resize(cluster_.n_hosts());
    for (std::size_t h = 0; h < cluster_.n_hosts(); ++h) {
      if (!cluster_.host_active(h)) continue;
      adapt_[h].controller = std::make_unique<AdaptiveController>(
          cluster_.index().n_clusters(), opts_.adaptive);
      adapt_[h].controller->set_baseline(
          cluster_.host_engine(h).placement_frequencies());
    }
  }
  for (HostAdapt& ha : adapt_) {
    if (ha.controller) ha.controller->observe_batch(probes);
  }
  ++observed_since_action_;

  for (const HostAdapt& ha : adapt_) {
    // Awaiting the fleet-wide drain point: no new decisions while any host
    // still has one pending.
    if (ha.pending.action != AdaptAction::kNone) return;
  }
  if (observed_since_action_ < opts_.adaptive.window_batches) return;

  const std::vector<std::size_t> sizes = cluster_.index().list_sizes();
  for (std::size_t h = 0; h < adapt_.size(); ++h) {
    HostAdapt& ha = adapt_[h];
    if (!ha.controller) continue;
    const UpAnnsEngine& engine = cluster_.host_engine(h);
    // Foreign and never-placed clusters have no resident replica here, so
    // recommend_for keeps each host inside its own shard.
    AdaptReport rep = ha.controller->recommend_for(
        engine.placement(), sizes, engine.workload_model(),
        /*allow_relocate=*/opts_.adapt == AdaptMode::kFull);
    if (rep.action == AdaptAction::kNone) continue;
    ha.pending = std::move(rep);
    ha.pending_freqs = ha.controller->window_mean();
  }
}

}  // namespace upanns::core
