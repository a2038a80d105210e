// offline_batch: the paper's Fig 10/19 operating point. Pre-formed batches
// of 128 Zipf-region queries run closed loop through core::BatchStream (the
// engine under core::BatchPipeline) with overlap on; LUT build and the
// Alg-2 schedule bound simulated time, scan emulation bounds host time.
#include <memory>

#include "data/ground_truth.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const Shape kShape = [] {
  Shape s;
  s.n_clusters = 256;
  s.nprobe = 32;
  s.n_queries = 2048;
  s.batch = 128;
  return s;
}();

// Open-loop rate scale, frozen on the commit that defined the benchmark
// (see NOTES.md).
constexpr double kCapacityQps = 780;

struct State {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<core::UpAnnsEngine> engine;
  std::unique_ptr<core::BatchStream> stream;
  std::vector<data::Dataset> batches;
  double engine_load_s = 0;
};

struct Pass {
  core::BatchPipelineReport rep;
  std::uint64_t digest = 0;
  double wall_s = 0;
};

Pass run_pass(State& st, HostSamples* host) {
  Pass p;
  const double t0 = now_s();
  for (const data::Dataset& b : st.batches) {
    const double tb = now_s();
    st.stream->run_batch(b);
    if (host) host->add(now_s() - tb, b.n);
  }
  p.rep = st.stream->finish();
  p.wall_s = now_s() - t0;
  Digest d;
  for (const core::BatchSlot& s : p.rep.slots) {
    hash_neighbors(d, s.report.neighbors);
    d.f64(s.report.times.total());
    d.f64(s.host_seconds);
    d.f64(s.device_seconds);
  }
  d.f64(p.rep.elapsed_seconds);
  p.digest = d.value();
  return p;
}

// Data, index, stats, engine load and one warm-up pass (kernel pool
// construction and first touch), all inside set-up.
std::uint64_t set_up(State& st, std::uint64_t seed) {
  st.stream.reset();  // users before what they reference
  st.engine.reset();
  st = State{};
  st.in = std::make_unique<Inputs>(make_inputs(kShape, seed));
  const double t0 = now_s();
  st.engine = std::make_unique<core::UpAnnsEngine>(
      st.in->index, st.in->stats, engine_options(kShape));
  st.engine_load_s = now_s() - t0;
  st.stream = std::make_unique<core::BatchStream>(
      *st.engine, core::BatchPipelineOptions{.overlap = true});
  st.batches = core::split_batches(st.in->queries.queries, kShape.batch);
  run_pass(st, nullptr);
  return index_digest(st.in->index);
}

// The stage-by-stage run must reproduce the pipeline's neighbors and
// per-batch simulated seconds bit for bit.
void check_staged(State& st, const Pass& ref, SpanLog& log, Ledger& ledger,
                  PimLayer* layer) {
  core::QueryPipeline pl(*st.engine);
  for (std::size_t b = 0; b < st.batches.size(); ++b) {
    std::int64_t root = log.open("batch", b);
    const core::SearchReport r =
        run_staged(pl, st.batches[b], nullptr, log, b, root);
    log.close(root);
    const core::SearchReport& want = ref.rep.slots[b].report;
    ledger.check(r.neighbors == want.neighbors,
                 "staged run changed neighbors of batch " + std::to_string(b));
    ledger.check(r.times.total() == want.times.total(),
                 "staged run changed sim seconds of batch " +
                     std::to_string(b));
    if (layer) layer->add(r);
  }
}

}  // namespace

RunResult run_offline_batch(const RunConfig& cfg) {
  RunResult out;
  out.param("dataset", "sift-like n=120000 dim=128 pq_m=16");
  out.param("index", "256 clusters, 64 DPUs, nprobe 32, k 10");
  out.param("queries", "2048 Zipf(1.0)-region queries in 16 batches of 128");
  out.param("loop", "closed, BatchStream with overlap on");
  add_load_params(out, kCapacityQps);

  State st;
  Ledger& ledger = out.ledger;
  const double setup_s = timed_setups(
      kSetupReps, ledger, [&] { return set_up(st, cfg.seed); });
  const Pass ref = run_pass(st, nullptr);
  ledger.ok(ref.rep.n_queries);

  // Recall on a fixed sample against brute force.
  const data::Dataset sample = rows(st.in->queries.queries, 0, kRecallSample);
  const auto exact = data::exact_topk(st.in->base, sample, kShape.k);
  std::vector<std::vector<common::Neighbor>> got;
  for (const core::BatchSlot& s : ref.rep.slots) {
    for (const auto& nb : s.report.neighbors) {
      if (got.size() < sample.n) got.push_back(nb);
    }
  }
  const double recall = recall_at_k(exact, got, kShape.k);
  ledger.check(recall >= 0.5, "recall@10 below the 0.5 floor");

  std::map<std::string, double> layer;
  if (!cfg.trace) {
    // Timed closed loop: whole passes until the budget is spent.
    HostSamples host;
    const double t0 = now_s();
    do {
      const Pass p = run_pass(st, &host);
      ledger.check(p.digest == ref.digest,
                   "a repeated pass changed neighbors or sim seconds");
      ledger.ok(p.rep.n_queries);
    } while (now_s() - t0 < cfg.seconds);

    SpanLog off(false);
    check_staged(st, ref, off, ledger, nullptr);

    Digest d;
    d.u64(ref.digest);
    const double df = data_factor(kShape), pf = dpu_factor(kShape);
    double scaled_s = 0;
    for (const core::BatchSlot& s : ref.rep.slots) {
      scaled_s += s.report.at_scale(df, pf).times.total();
    }
    const std::size_t nb = ref.rep.slots.size();
    out.add("sim_qps", ref.rep.qps, "1/s");
    out.add("sim_qps_1b", static_cast<double>(ref.rep.n_queries) / scaled_s,
            "1/s");
    // No rotation here: the late window is the second half.
    out.add("sim_post_drift_qps", timeline_qps(ref.rep, nb / 2, nb - 1),
            "1/s");
    d.f64(ref.rep.qps);
    d.f64(scaled_s);

    // Open loop on the same warm stream.
    const serve::BatchExecutor exec = stream_executor(*st.stream);
    const data::Dataset& pool = st.in->load_pool;
    OpenLoop ol = measure_open_loop(pool, exec, kCapacityQps, cfg.seed);
    find_max_qps(ol, pool, exec, kCapacityQps, cfg.seed);
    st.stream->finish();
    add_open_loop_metrics(out, ol, d);

    out.add("recall_at_10", recall, "fraction");
    d.f64(recall);
    add_host_metrics(out, host);
    out.add("setup_s", setup_s, "s");
    out.digest = d.value();
  } else {
    // Traced run: the overlap/serial host gap first, alternating which
    // accounting mode goes first, then traced stage-by-stage passes
    // alternating with untraced pipeline passes.
    core::BatchStream serial(*st.engine,
                             core::BatchPipelineOptions{.overlap = false});
    std::vector<double> on_s, off_s;
    const auto serial_pass = [&] {
      const double t0 = now_s();
      for (const data::Dataset& b : st.batches) serial.run_batch(b);
      const core::BatchPipelineReport r = serial.finish();
      ledger.check(r.slots.size() == st.batches.size(), "serial pass size");
      return now_s() - t0;
    };
    serial_pass();  // warm the serial stream's kernel pool
    for (int rep = 0; rep < 6; ++rep) {
      if (rep % 2 == 0) {
        on_s.push_back(run_pass(st, nullptr).wall_s);
        off_s.push_back(serial_pass());
      } else {
        off_s.push_back(serial_pass());
        on_s.push_back(run_pass(st, nullptr).wall_s);
      }
    }
    layer["core.overlap_host_gap"] = median(off_s) / median(on_s) - 1.0;

    PimLayer pim;
    SpanLog log(true);
    std::vector<double> traced_s, plain_s;
    const double t0 = now_s();
    do {
      plain_s.push_back(run_pass(st, nullptr).wall_s);
      const double tp = now_s();
      check_staged(st, ref, log, ledger, &pim);
      traced_s.push_back(now_s() - tp);
    } while (now_s() - t0 < cfg.seconds);

    pim.emit(layer, log);
    layer["core.overlap_saving"] =
        1.0 - ref.rep.elapsed_seconds / ref.rep.serial_seconds;
    layer["obs.trace_overhead_share"] = median(traced_s) / median(plain_s) - 1;
    add_setup_layers(layer, *st.in, st.engine_load_s,
                     static_cast<double>(st.engine->load_image_bytes()));
    (void)setup_s;
    emit_per_layer(out, layer);
    out.digest = ref.digest;
  }
  return out;
}

}  // namespace perfbench
