// Shared set-up, open-loop load and metric plumbing of the workloads.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.hpp"
#include "data/ground_truth.hpp"
#include "obs/trace.hpp"
#include "pim/energy.hpp"
#include "workloads.hpp"

namespace perfbench {

Inputs make_inputs(const Shape& shape, std::uint64_t seed) {
  Inputs in;
  double t0 = now_s();
  data::SyntheticSpec spec = data::sift1b_like(shape.n, kDataSeed);
  spec.shuffle = shape.shuffle;
  in.base = data::generate_synthetic(spec);
  in.gen_s = now_s() - t0;

  ivf::IvfBuildOptions build;
  build.n_clusters = shape.n_clusters;
  build.pq_m = spec.pq_m();
  build.coarse_iters = 8;
  build.pq_iters = 8;
  build.coarse_train_points = std::min<std::size_t>(shape.n, 40'000);
  build.pq_train_points = std::min<std::size_t>(shape.n, 30'000);
  build.seed = kDataSeed + 1;
  t0 = now_s();
  in.index = ivf::IvfIndex::build(in.base, build, &in.build_stats);
  in.build_s = now_s() - t0;

  t0 = now_s();
  data::WorkloadSpec wspec;
  wspec.n_queries = shape.n_queries;
  wspec.zipf_exponent = shape.zipf;
  wspec.seed = seed;
  in.queries = data::generate_workload(in.base, wspec, shape.n_regions);
  data::WorkloadSpec lspec = wspec;
  lspec.seed = seed + 1000;
  lspec.n_queries = kStreams * kRequests;
  in.load_pool =
      data::generate_workload(in.base, lspec, shape.n_regions).queries;
  // Placement sees an earlier, fixed history, never the evaluation queries.
  data::WorkloadSpec hspec = wspec;
  hspec.seed = kDataSeed + 2;
  hspec.n_queries = 2 * shape.n_queries;
  const data::QueryWorkload history =
      data::generate_workload(in.base, hspec, shape.n_regions);
  in.stats = ivf::collect_stats(
      in.index, ivf::filter_batch(in.index, history.queries, shape.nprobe));
  in.stats_s = now_s() - t0;
  return in;
}

core::UpAnnsOptions engine_options(const Shape& shape) {
  core::UpAnnsOptions o = core::UpAnnsOptions::upanns();
  o.n_dpus = shape.n_dpus;
  o.nprobe = shape.nprobe;
  o.k = shape.k;
  return o;
}

std::uint64_t index_digest(const ivf::IvfIndex& index) {
  Digest d;
  for (const ivf::InvertedList& l : index.lists()) {
    d.u64(l.ids.size());
    d.bytes(l.ids.data(), l.ids.size() * sizeof(std::uint32_t));
    d.bytes(l.codes.data(), l.codes.size());
  }
  const auto c = index.centroids();
  d.bytes(c.data(), c.size() * sizeof(float));
  return d.value();
}

double recall_at_k(const std::vector<std::vector<common::Neighbor>>& exact,
                   const std::vector<std::vector<common::Neighbor>>& got,
                   std::size_t k) {
  if (exact.empty() || exact.size() != got.size()) return 0;
  double hits = 0;
  for (std::size_t q = 0; q < exact.size(); ++q) {
    const std::size_t ke = std::min(k, exact[q].size());
    for (std::size_t i = 0; i < std::min(k, got[q].size()); ++i) {
      for (std::size_t j = 0; j < ke; ++j) {
        if (got[q][i].id == exact[q][j].id) {
          hits += 1;
          break;
        }
      }
    }
  }
  return hits / static_cast<double>(exact.size() * k);
}

data::Dataset rows(const data::Dataset& d, std::size_t start, std::size_t n) {
  data::Dataset out;
  out.dim = d.dim;
  out.n = n;
  out.values.reserve(n * d.dim);
  for (std::size_t i = 0; i < n; ++i) {
    const float* r = d.row((start + i) % d.n);
    out.values.insert(out.values.end(), r, r + d.dim);
  }
  return out;
}

double data_factor(const Shape& shape) {
  return (kPaperPoints / kPaperIvf) /
         (static_cast<double>(shape.n) /
          static_cast<double>(shape.n_clusters));
}

double dpu_factor(const Shape& shape) {
  return static_cast<double>(shape.n_dpus) / kPaperDpus;
}

// ---------------------------------------------------------- open-loop load

namespace {

// Sum of the unit-rate exponential gaps serve::simulate_load draws for
// `n` arrivals under `seed`: the realized arrival span at rate r is this
// over r. Used to tell a growing backlog from a slow arrival draw.
double unit_arrival_span(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  double s = 0;
  for (std::size_t i = 0; i < n; ++i) s += -std::log1p(-rng.uniform());
  return s;
}

}  // namespace

serve::BatchExecutor stream_executor(core::BatchStream& stream) {
  return [&stream](const data::Dataset& batch) {
    const core::BatchSlot& slot = stream.run_batch(batch);
    serve::ExecResult r;
    r.neighbors = slot.report.neighbors;
    r.sim_seconds = slot.host_seconds + slot.device_seconds;
    if (stream.n_batches() >= 256) stream.finish();
    return r;
  };
}

RatePoint measure_rate(const data::Dataset& pool,
                       const serve::BatchExecutor& exec, double rate,
                       std::uint64_t seed, std::size_t streams) {
  RatePoint p;
  p.rate = rate;
  p.meets = true;
  std::vector<double> p50, tail;
  for (std::size_t k = 0; k < streams; ++k) {
    serve::LoadgenOptions lo;
    lo.offered_qps = rate;
    lo.n_requests = kRequests;
    lo.policy.max_batch = kMaxBatch;
    lo.policy.deadline_seconds = kDeadlineS;
    lo.queue_capacity = kQueueCapacity;
    lo.seed = seed * 1000 + k;
    lo.poisson = true;
    lo.slo_seconds = kSloMs * 1e-3;
    const serve::LoadgenResult r =
        serve::simulate_load(rows(pool, k * kRequests, kRequests), exec, lo);
    // simulate_load reports p50 and p99; the tail rule picks p99 whenever at
    // least ten requests lie beyond it, which n_requests guarantees.
    p.tail_q = tail_quantile(r.n_completed);
    // No growing backlog: the completion rate reaches 0.98 of the rate the
    // requests actually arrived at, allowing one SLO to drain the last batch.
    const double window =
        unit_arrival_span(kRequests, lo.seed) / rate + kSloMs * 1e-3;
    p.meets = p.meets && r.n_rejected == 0 && p.tail_q == 0.99 &&
              r.achieved_qps >= 0.98 * static_cast<double>(kRequests) / window;
    p50.push_back(r.p50 * 1e3);
    tail.push_back(r.p99 * 1e3);
    p.runs.push_back(r);
  }
  p.p50_ms = median(p50);
  p.tail_ms = median(tail);
  p.meets = p.meets && p.tail_ms <= kSloMs;
  return p;
}

OpenLoop measure_open_loop(const data::Dataset& pool,
                           const serve::BatchExecutor& exec,
                           double capacity_qps, std::uint64_t seed) {
  OpenLoop ol;
  ol.r50 = measure_rate(pool, exec, 0.5 * capacity_qps, seed, kStreams);
  ol.r90 = measure_rate(pool, exec, 0.9 * capacity_qps, seed, kStreams);
  return ol;
}

void find_max_qps(OpenLoop& ol, const data::Dataset& pool,
                  const serve::BatchExecutor& exec, double capacity_qps,
                  std::uint64_t seed) {
  // r50 and r90 are rungs 0 and 2; the others are measured on demand.
  const auto rung = [&](std::size_t i) -> RatePoint {
    if (i == 0) return ol.r50;
    if (i == 2) return ol.r90;
    ol.probes.push_back(
        measure_rate(pool, exec, kLadder[i] * capacity_qps, seed, kStreams));
    return ol.probes.back();
  };
  std::size_t i = 2;
  RatePoint pass = rung(i), fail;
  if (pass.meets) {
    for (;;) {
      if (i + 1 == std::size(kLadder)) {
        ol.max_qps = pass.rate;  // the whole ladder passes
        return;
      }
      fail = rung(++i);
      if (!fail.meets) break;
      pass = fail;
    }
  } else {
    fail = pass;
    do {
      if (i == 0) {
        ol.max_qps = 0;  // even r50 misses
        return;
      }
      pass = rung(--i);
      if (!pass.meets) fail = pass;
    } while (!pass.meets);
  }
  // Where the median tail crosses the SLO between the passing rung and the
  // failing one above it; the passing rung when the failure was not latency.
  ol.max_qps = pass.rate;
  if (fail.tail_ms > kSloMs && fail.tail_ms > pass.tail_ms) {
    ol.max_qps += (fail.rate - pass.rate) * (kSloMs - pass.tail_ms) /
                  (fail.tail_ms - pass.tail_ms);
  }
}

void add_open_loop_metrics(RunResult& out, const OpenLoop& ol,
                           Digest& digest) {
  for (const RatePoint* p : {&ol.r50, &ol.r90}) {
    const std::string suffix = p == &ol.r50 ? ".r50" : ".r90";
    out.add("sim_latency_p50_ms" + suffix, p->p50_ms, "ms");
    out.add("sim_latency_tail_ms" + suffix, p->tail_ms, "ms");
    std::size_t batches = 0, completed = 0;
    double fill = 0;
    for (const serve::LoadgenResult& r : p->runs) {
      batches += r.n_batches;
      completed += r.n_completed;
      fill += r.mean_batch_fill / static_cast<double>(p->runs.size());
    }
    char line[240];
    std::snprintf(line, sizeof line,
                  "open loop %s: %.1f req/s offered, %zu streams of %zu "
                  "requests, tail = p%g per stream (median over streams), "
                  "%zu batches, fill %.3f",
                  suffix.c_str() + 1, p->rate, p->runs.size(),
                  completed / std::max<std::size_t>(1, p->runs.size()),
                  p->tail_q * 100, batches, fill);
    out.notes.push_back(line);
  }
  out.add("sim_max_qps_at_slo", ol.max_qps, "1/s");

  std::vector<const RatePoint*> all = {&ol.r50, &ol.r90};
  for (const RatePoint& p : ol.probes) all.push_back(&p);
  std::string ladder = "ladder (rate req/s: median tail ms):";
  for (const RatePoint* p : all) {
    char rung[64];
    std::snprintf(rung, sizeof rung, " %.1f: %.2f%s", p->rate, p->tail_ms,
                  p->meets ? "" : " (misses)");
    ladder += rung;
  }
  out.notes.push_back(ladder);
  for (const RatePoint* p : all) {
    for (const serve::LoadgenResult& r : p->runs) {
      out.ledger.ok(r.n_completed);
      if (r.n_rejected > 0) {
        out.ledger.fail("open-loop requests rejected", r.n_rejected);
      }
      digest.f64(r.p50);
      digest.f64(r.p99);
      digest.f64(r.makespan_seconds);
      digest.u64(r.n_batches);
    }
  }
  digest.f64(ol.max_qps);
}

void add_load_params(RunResult& out, double capacity_qps) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", capacity_qps);
  out.param("frozen_capacity_qps", buf);
  std::snprintf(buf, sizeof buf, "%.1f", 0.5 * capacity_qps);
  out.param("rate_r50_qps", buf);
  std::snprintf(buf, sizeof buf, "%.1f", 0.9 * capacity_qps);
  out.param("rate_r90_qps", buf);
  std::snprintf(buf, sizeof buf, "%.2f", kSloMs);
  out.param("slo_tail_ms", buf);
  out.param("max_batch", std::to_string(kMaxBatch));
  std::snprintf(buf, sizeof buf, "%.1f", kDeadlineS * 1e3);
  out.param("deadline_ms", buf);
  out.param("requests_per_stream", std::to_string(kRequests));
  out.param("streams_per_rate", std::to_string(kStreams));
}

// ------------------------------------------------------------ host metrics

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_host_metrics(RunResult& out, const HostSamples& h) {
  // Queries per busy second over eight consecutive chunks of batches, then
  // the median: a burst of interference from outside the process moves one
  // chunk, not the result.
  const std::size_t n = h.batch_s.size();
  const std::size_t chunks = std::min<std::size_t>(8, n);
  std::vector<double> rates;
  for (std::size_t c = 0; c < chunks; ++c) {
    double busy = 0, queries = 0;
    for (std::size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
      busy += h.batch_s[i];
      queries += static_cast<double>(h.batch_n[i]);
    }
    if (busy > 0) rates.push_back(queries / busy);
  }
  const Summary s = summarize(h.batch_s);
  out.add("host_qps", median(rates), "1/s");
  out.add("host_batch_p50_ms", s.p50 * 1e3, "ms");
  // The batch tail is printed, not gated: a few slow stretches from other
  // tenants of the machine moved it by 28% between runs of one seed.
  char line[220];
  std::snprintf(line, sizeof line,
                "host batches: %zu timed, tail p%g %.3f ms, %zu queries in "
                "%.3f s, host_qps = median over %zu chunks",
                s.n, s.tail_q * 100, s.tail * 1e3, h.queries, h.busy_s,
                chunks);
  out.notes.push_back(line);
}

void hash_neighbors(Digest& d,
                    const std::vector<std::vector<common::Neighbor>>& nb) {
  for (const auto& list : nb) {
    d.u64(list.size());
    for (const common::Neighbor& n : list) d.u64(n.id);
  }
}

// --------------------------------------------------------------- per layer

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"data.gen_s", "s"},
        {"ivf.build_s", "s"},
        {"quant.coarse_kmeans_s", "s"},
        {"quant.pq_train_s", "s"},
        {"ivf.assign_s", "s"},
        {"ivf.encode_s", "s"},
        {"core.engine_load_s", "s"},
        {"pim.mram_image_bytes", "bytes"},
    };
    for (const char* st : {"cluster-filter", "alg2-schedule", "uniform-push",
                           "kernel-launch", "gather", "host-merge"}) {
      v.push_back({std::string("stage.") + st + ".host_s", "s"});
      v.push_back({std::string("stage.") + st + ".sim_s", "s"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"pim.lut_sim_s", "s"},
        {"pim.scan_sim_s", "s"},
        {"pim.topk_sim_s", "s"},
        {"pim.critical_lut_sim_s", "s"},
        {"pim.critical_scan_sim_s", "s"},
        {"pim.instructions_per_query", "count"},
        {"pim.scanned_records_per_query", "count"},
        {"pim.host_ns_per_scanned_record", "ns"},
        {"pim.balance_ratio", "ratio"},
        {"core.schedule_balance", "ratio"},
        {"core.schedule_model_gap", "ratio"},
        {"pim.bytes_pushed_per_batch", "bytes"},
        {"pim.bytes_gathered_per_batch", "bytes"},
        {"core.merge_pruned_share", "fraction"},
        {"core.cae_length_reduction", "fraction"},
        {"core.overlap_saving", "fraction"},
        {"core.overlap_host_gap", "ratio"},
        {"multihost.coord_filter_sim_s", "s"},
        {"multihost.network_sim_s", "s"},
        {"multihost.coord_merge_sim_s", "s"},
        {"multihost.slowest_host_sim_s", "s"},
        {"multihost.host_balance", "ratio"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.batch_fill", "fraction"},
        {"serve.deadline_close_share", "fraction"},
        {"serve.rejected", "count"},
        {"ivf.upsert_host_us", "us"},
        {"ivf.remove_host_us", "us"},
        {"ivf.compact_host_s", "s"},
        {"core.patch.sim_s", "s"},
        {"core.patch.image_share", "fraction"},
        {"core.adapt.actions", "count"},
        {"core.adapt.sim_s", "s"},
        {"core.adapt.image_share", "fraction"},
        {"core.adapt.balance_post", "ratio"},
        {"obs.trace_overhead_share", "fraction"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return kList;
}

void emit_per_layer(RunResult& out,
                    const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    out.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& m : per_layer_metrics()) known |= m.first == name;
    out.ledger.check(known, "unlisted per-layer metric " + name);
  }
}

void PimLayer::add(const core::SearchReport& r) {
  ++batches;
  queries += r.neighbors.size();
  for (const core::StageStep& st : r.trace) stage_sim[st.name] += st.seconds;
  if (!r.pim) return;
  const core::PimExtras& px = *r.pim;
  for (const auto& d : px.dpu_stage_seconds) {
    lut += d.lut;
    scan += d.dist;
    topk += d.topk;
  }
  crit_lut += r.times.lut_build;
  crit_scan += r.times.distance_calc;
  instructions += static_cast<double>(px.total_instructions);
  scanned += static_cast<double>(px.scanned_records);
  balance += px.balance_ratio;
  sched_balance += px.schedule_balance;
  pushed += static_cast<double>(px.bytes_pushed);
  gathered += static_cast<double>(px.bytes_gathered);
  pruned += static_cast<double>(px.merge_pruned);
  compared += static_cast<double>(px.merge_pruned + px.merge_insertions);
  cae += px.length_reduction;
}

void PimLayer::emit(std::map<std::string, double>& v,
                    const SpanLog& log) const {
  for (const auto& [name, t] : log.by_name()) {
    if (name.rfind("stage.", 0) != 0) continue;
    v[name + ".host_s"] = t.self / static_cast<double>(t.count);
    if (name == "stage.kernel-launch" && scanned > 0) {
      v["pim.host_ns_per_scanned_record"] = t.total / scanned * 1e9;
    }
  }
  if (batches == 0) return;
  const double b = static_cast<double>(batches);
  const double q = std::max<double>(1, static_cast<double>(queries));
  for (const auto& [name, s] : stage_sim) {
    v["stage." + name + ".sim_s"] = s / b;
  }
  v["pim.lut_sim_s"] = lut / b;
  v["pim.scan_sim_s"] = scan / b;
  v["pim.topk_sim_s"] = topk / b;
  v["pim.critical_lut_sim_s"] = crit_lut / b;
  v["pim.critical_scan_sim_s"] = crit_scan / b;
  v["pim.instructions_per_query"] = instructions / q;
  v["pim.scanned_records_per_query"] = scanned / q;
  v["pim.balance_ratio"] = balance / b;
  v["core.schedule_balance"] = sched_balance / b;
  v["core.schedule_model_gap"] =
      sched_balance > 0 ? balance / sched_balance : 0;
  v["pim.bytes_pushed_per_batch"] = pushed / b;
  v["pim.bytes_gathered_per_batch"] = gathered / b;
  v["core.merge_pruned_share"] = compared > 0 ? pruned / compared : 0;
  v["core.cae_length_reduction"] = cae / b;
}

void add_setup_layers(std::map<std::string, double>& v, const Inputs& in,
                      double engine_load_s, double mram_image_bytes) {
  v["data.gen_s"] = in.gen_s;
  v["ivf.build_s"] = in.build_s;
  v["quant.coarse_kmeans_s"] = in.build_stats.kmeans_seconds;
  v["quant.pq_train_s"] = in.build_stats.pq_train_seconds;
  v["ivf.assign_s"] = in.build_stats.assign_seconds;
  v["ivf.encode_s"] = in.build_stats.encode_seconds;
  v["core.engine_load_s"] = engine_load_s;
  v["pim.mram_image_bytes"] = mram_image_bytes;
}

// ------------------------------------------------------------- staged run

core::SearchReport run_staged(
    core::QueryPipeline& pl, const data::Dataset& batch,
    const std::vector<std::vector<std::uint32_t>>* probes, SpanLog& log,
    std::uint64_t batch_id, std::int64_t parent) {
  core::ClusterFilterStage filter;
  core::ScheduleStage schedule;
  core::PushStage push;
  core::LaunchStage launch;
  core::GatherStage gather;
  core::MergeStage merge;
  core::QueryStage* const stages[] = {&filter, &schedule, &push,
                                      &launch, &gather,   &merge};

  core::BatchContext ctx;
  ctx.queries = &batch;
  ctx.probes = probes;
  ctx.report.pim.emplace();
  for (core::QueryStage* st : stages) {
    double seconds = 0;
    {
      ScopedSpan span(log, std::string("stage.") + st->name(), batch_id,
                      parent);
      seconds = st->run(pl, ctx);
    }
    ctx.report.trace.push_back({st->name(), seconds, st->side()});
  }
  ctx.report.pim->n_dpus = pl.options().n_dpus;
  const double total = ctx.report.times.total();
  ctx.report.qps = total > 0 ? static_cast<double>(batch.n) / total : 0;
  ctx.report.qps_per_watt = pim::qps_per_watt(
      ctx.report.qps, pim::Platform::kPim, pl.options().n_dpus);
  return ctx.report;
}

double timeline_qps(const core::BatchPipelineReport& rep, std::size_t first,
                    std::size_t last) {
  const std::vector<obs::BatchWindows> tl = obs::pipeline_timeline(rep);
  std::size_t nq = 0;
  for (std::size_t i = first; i <= last; ++i) {
    nq += rep.slots[i].report.neighbors.size();
  }
  const double t0 = first == 0 ? 0.0 : tl[first - 1].device_end;
  const double span = tl[last].device_end - t0;
  return span > 0 ? static_cast<double>(nq) / span : 0;
}

}  // namespace perfbench
