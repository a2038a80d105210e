// online_multihost: the offline index shape sharded over a 3-host
// MultiHostUpAnns and served open loop through serve::simulate_load at fixed
// offered rates. At low load a batch holds about two requests, so per-batch
// fixed costs, the coordinator's filter and merge, the network and queueing
// set latency. The only workload with a coordinator and a network.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string_view>

#include "data/ground_truth.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kHosts = 3;

const Shape kShape = [] {
  Shape s;
  s.n_clusters = 256;
  s.nprobe = 32;
  s.n_queries = 2048;
  return s;
}();

// Open-loop rate scale, frozen on the commit that defined the benchmark
// (see NOTES.md).
constexpr double kCapacityQps = 1500;

struct State {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<core::MultiHostUpAnns> cluster;
  double engine_load_s = 0;
};

std::uint64_t set_up(State& st, std::uint64_t seed) {
  st.cluster.reset();  // before the index it references
  st = State{};
  st.in = std::make_unique<Inputs>(make_inputs(kShape, seed));
  core::MultiHostOptions mh;
  mh.n_hosts = kHosts;
  mh.per_host = engine_options(kShape);
  const double t0 = now_s();
  st.cluster = std::make_unique<core::MultiHostUpAnns>(st.in->index,
                                                       st.in->stats, mh);
  st.engine_load_s = now_s() - t0;
  // Warm-up: first touch of every host's MRAM and scratch.
  for (const data::Dataset& b :
       core::split_batches(rows(st.in->queries.queries, 0, 256), 64)) {
    st.cluster->search(b);
  }
  return index_digest(st.in->index);
}

/// What the executor records while a load point runs.
struct Recorder {
  SpanLog* log = nullptr;
  std::vector<core::MultiHostReport>* reports = nullptr;
  /// Replay every Nth batch stage by stage on each host (traced runs).
  std::size_t replay_every = 0;
  PimLayer* replay_layer = nullptr;
  std::uint64_t batch = 0;
};

serve::BatchExecutor executor(State& st, Recorder& rec) {
  return [&st, &rec](const data::Dataset& b) {
    const std::uint64_t id = rec.batch++;
    core::MultiHostReport rep;
    {
      const std::int64_t root =
          rec.log ? rec.log->open("exec", id) : std::int64_t{-1};
      const std::int64_t s =
          rec.log ? rec.log->open("mh.search", id, root) : std::int64_t{-1};
      rep = st.cluster->search(b);
      if (rec.log) {
        rec.log->close(s);
        rec.log->close(root);
      }
    }
    if (rec.replay_every > 0 && id % rec.replay_every == 0) {
      const auto probes =
          ivf::filter_batch(st.cluster->index(), b, kShape.nprobe);
      for (std::size_t h = 0; h < st.cluster->n_hosts(); ++h) {
        if (!st.cluster->host_active(h)) continue;
        core::QueryPipeline pl(st.cluster->host_engine(h));
        const std::int64_t root = rec.log->open("replay", id);
        rec.replay_layer->add(run_staged(pl, b, &probes, *rec.log, id, root));
        rec.log->close(root);
      }
    }
    serve::ExecResult r;
    r.sim_seconds = rep.seconds;
    r.neighbors = std::move(rep.neighbors);
    if (rec.reports) rec.reports->push_back(std::move(rep));
    return r;
  };
}

/// Closed-loop capacity run at full batches through the overlapped
/// multi-host pipeline.
core::MultiHostPipelineReport capacity_run(State& st) {
  core::MultiHostBatchPipeline pl(*st.cluster,
                                  core::MultiHostPipelineOptions{});
  return pl.run(core::split_batches(st.in->queries.queries, kMaxBatch));
}

/// SearchReport::at_scale per host, recombined with the coordinator terms
/// of the multi-host cost model (coordinator filter + broadcast + slowest
/// host + gather + coordinator merge). Also checks that the per-host
/// reports at native scale reproduce the cluster's slowest-host seconds.
double at_scale_seconds(State& st, const data::Dataset& batch,
                        const core::MultiHostReport& rep, Ledger& ledger) {
  const auto probes =
      ivf::filter_batch(st.cluster->index(), batch, kShape.nprobe);
  double native = 0, scaled = 0;
  for (std::size_t h = 0; h < st.cluster->n_hosts(); ++h) {
    if (!st.cluster->host_active(h)) continue;
    const core::SearchReport r =
        st.cluster->host_engine(h).search_with_probes(batch, probes);
    double filter = 0;
    for (const core::StageStep& s : r.trace) {
      if (std::string_view(s.name) == "cluster-filter") filter += s.seconds;
    }
    native = std::max(native, r.times.total() - filter);
    scaled = std::max(scaled, r.at_scale(data_factor(kShape),
                                         dpu_factor(kShape))
                                      .times.total() -
                                  filter);
  }
  ledger.check(std::abs(native - rep.slowest_host_seconds) <=
                   1e-9 * rep.slowest_host_seconds,
               "per-host reports disagree with the cluster's slowest host");
  return rep.coord_filter_seconds + rep.broadcast_seconds + scaled +
         rep.gather_seconds + rep.coord_merge_seconds;
}

}  // namespace

RunResult run_online_multihost(const RunConfig& cfg) {
  RunResult out;
  out.param("dataset", "sift-like n=120000 dim=128 pq_m=16");
  out.param("index",
            "256 clusters sharded over 3 hosts, 64 DPUs per host, nprobe 32");
  out.param("queries",
            "2048 Zipf(1.0)-region queries, 4500 more as the request pool");
  out.param("loop", "open, seeded Poisson arrivals via serve::simulate_load");
  add_load_params(out, kCapacityQps);

  State st;
  Ledger& ledger = out.ledger;
  const double setup_s = timed_setups(
      kSetupReps, ledger, [&] { return set_up(st, cfg.seed); });

  std::map<std::string, double> layer;
  if (!cfg.trace) {
    // Timed closed loop: full batches through the cluster, whole passes
    // until the budget is spent. (Host time of the open-loop executor's
    // two-request batches is mostly thread-pool wake-up latency and swung
    // by 30% between runs; the traced run reports it per stage.)
    const auto batches =
        core::split_batches(st.in->queries.queries, kMaxBatch);
    HostSamples host;
    std::uint64_t ref_digest = 0;
    bool first = true;
    const double t0 = now_s();
    do {
      Digest pd;
      for (const data::Dataset& b : batches) {
        const double tb = now_s();
        const core::MultiHostReport r = st.cluster->search(b);
        host.add(now_s() - tb, b.n);
        hash_neighbors(pd, r.neighbors);
        pd.f64(r.seconds);
      }
      ledger.ok(st.in->queries.queries.n);
      if (first) {
        ref_digest = pd.value();
        first = false;
      } else {
        ledger.check(pd.value() == ref_digest,
                     "a repeated pass changed neighbors or sim seconds");
      }
    } while (now_s() - t0 < cfg.seconds);

    // Untimed from here: the open loop, the capacity run, at-scale, recall.
    Recorder quiet;
    const serve::BatchExecutor exec = executor(st, quiet);
    OpenLoop ol = measure_open_loop(st.in->load_pool, exec, kCapacityQps,
                                    cfg.seed);
    find_max_qps(ol, st.in->load_pool, exec, kCapacityQps, cfg.seed);

    const core::MultiHostPipelineReport cap = capacity_run(st);
    // At scale over the first half of the batches: each host search runs
    // again outside the cluster, which costs run time.
    double scaled_s = 0;
    std::size_t scaled_q = 0;
    for (std::size_t b = 0; b < batches.size() / 2; ++b) {
      scaled_s += at_scale_seconds(st, batches[b], cap.slots[b].report, ledger);
      scaled_q += batches[b].n;
    }
    const auto tl = core::multihost_timeline(cap);
    // No rotation here: the late window is the second half.
    const std::size_t nb = cap.slots.size(), first_late = nb / 2;
    std::size_t late_q = 0;
    for (std::size_t i = first_late; i < nb; ++i) {
      late_q += cap.slots[i].report.neighbors.size();
    }
    const double late_s = tl[nb - 1].post_end - tl[first_late - 1].post_end;

    const data::Dataset sample =
        rows(st.in->queries.queries, 0, kRecallSample);
    const auto exact = data::exact_topk(st.in->base, sample, kShape.k);
    std::vector<std::vector<common::Neighbor>> got;
    for (const auto& s : cap.slots) {
      for (const auto& nbrs : s.report.neighbors) {
        if (got.size() < sample.n) got.push_back(nbrs);
      }
    }
    const double recall = recall_at_k(exact, got, kShape.k);
    ledger.check(recall >= 0.5, "recall@10 below the 0.5 floor");
    ledger.ok(cap.n_queries);

    Digest d;
    d.u64(ref_digest);
    out.add("sim_qps", cap.qps, "1/s");
    out.add("sim_qps_1b", static_cast<double>(scaled_q) / scaled_s, "1/s");
    out.add("sim_post_drift_qps", static_cast<double>(late_q) / late_s, "1/s");
    d.f64(cap.qps);
    d.f64(scaled_s);
    d.f64(late_s);
    add_open_loop_metrics(out, ol, d);
    out.add("recall_at_10", recall, "fraction");
    d.f64(recall);
    add_host_metrics(out, host);
    out.add("setup_s", setup_s, "s");
    out.digest = d.value();
  } else {
    // Traced run: untraced and traced r50 streams alternate for the
    // overhead share; then one traced stream also replays every 4th batch
    // stage by stage on each host for the stage and kernel metrics.
    PimLayer pim;
    SpanLog log(true);
    std::vector<core::MultiHostReport> reports;
    std::vector<double> plain_s, traced_s;
    const data::Dataset& pool = st.in->load_pool;
    const double r50 = 0.5 * kCapacityQps;
    OpenLoop serve_pass;
    {
      Recorder rec;
      serve_pass =
          measure_open_loop(pool, executor(st, rec), kCapacityQps, cfg.seed);
    }
    const double t0 = now_s();
    do {
      Recorder plain;
      double ts = now_s();
      measure_rate(pool, executor(st, plain), r50, cfg.seed, 1);
      plain_s.push_back(now_s() - ts);

      SpanLog pass_log(true);
      Recorder rec;
      rec.log = &pass_log;
      ts = now_s();
      measure_rate(pool, executor(st, rec), r50, cfg.seed, 1);
      traced_s.push_back(now_s() - ts);
    } while (now_s() - t0 < cfg.seconds);
    {
      Recorder rec;
      rec.log = &log;
      rec.reports = &reports;
      rec.replay_every = 4;
      rec.replay_layer = &pim;
      measure_rate(pool, executor(st, rec), r50, cfg.seed, 1);
    }

    pim.emit(layer, log);

    double coord_filter = 0, network = 0, merge = 0, slowest = 0, hb = 0;
    for (const core::MultiHostReport& r : reports) {
      coord_filter += r.coord_filter_seconds;
      network += r.network_seconds;
      merge += r.coord_merge_seconds;
      slowest += r.slowest_host_seconds;
      std::vector<double> busy;
      for (const core::MultiHostHostSlot& h : r.host_slots) {
        if (h.active) busy.push_back(h.host_seconds + h.device_seconds);
      }
      double mx = 0, sum = 0;
      for (double v : busy) {
        mx = std::max(mx, v);
        sum += v;
      }
      hb += sum > 0 ? mx / (sum / static_cast<double>(busy.size())) : 0;
    }
    const double nr = std::max<double>(1, static_cast<double>(reports.size()));
    layer["multihost.coord_filter_sim_s"] = coord_filter / nr;
    layer["multihost.network_sim_s"] = network / nr;
    layer["multihost.coord_merge_sim_s"] = merge / nr;
    layer["multihost.slowest_host_sim_s"] = slowest / nr;
    layer["multihost.host_balance"] = hb / nr;

    double wait = 0, fill = 0, deadline = 0, batches = 0, rejected = 0;
    double streams = 0;
    for (const RatePoint* rp : {&serve_pass.r50, &serve_pass.r90}) {
      for (const serve::LoadgenResult& r : rp->runs) {
        wait += r.mean_queue_wait * 1e3;
        fill += r.mean_batch_fill;
        deadline += static_cast<double>(r.deadline_closes);
        batches += static_cast<double>(r.n_batches);
        rejected += static_cast<double>(r.n_rejected);
        streams += 1;
      }
    }
    wait /= streams;
    fill /= streams;
    layer["serve.queue_wait_ms"] = wait;
    layer["serve.batch_fill"] = fill;
    layer["serve.deadline_close_share"] = batches > 0 ? deadline / batches : 0;
    layer["serve.rejected"] = rejected;

    const core::MultiHostPipelineReport cap = capacity_run(st);
    layer["core.overlap_saving"] =
        1.0 - cap.elapsed_seconds / cap.serial_seconds;
    layer["obs.trace_overhead_share"] = median(traced_s) / median(plain_s) - 1;
    double image = 0;
    for (std::size_t h = 0; h < st.cluster->n_hosts(); ++h) {
      if (st.cluster->host_active(h)) {
        image += static_cast<double>(
            st.cluster->host_engine(h).load_image_bytes());
      }
    }
    add_setup_layers(layer, *st.in, st.engine_load_s, image);
    (void)setup_s;
    emit_per_layer(out, layer);
    Digest d;
    for (const RatePoint* rp : {&serve_pass.r50, &serve_pass.r90}) {
      for (const serve::LoadgenResult& r : rp->runs) {
        d.f64(r.p50);
        d.f64(r.p99);
      }
    }
    out.digest = d.value();
  }
  return out;
}

}  // namespace perfbench
