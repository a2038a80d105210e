// drift_writes: a single-host updatable engine behind core::BatchStream with
// adapt=copies. Fewer, longer lists (32 clusters, nprobe 4) make scan the
// larger kernel share. Queries follow a region-granular Zipf(1.5) whose hot
// set rotates halfway through the pass; before every batch the workload
// upserts and removes about 5% of the batch size, then compacts. The only
// workload where index mutation, MRAM patching and the adaptive controller
// do work.
#include <memory>
#include <string>
#include <unordered_map>

#include "data/ground_truth.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const Shape kShape = [] {
  Shape s;
  s.n_clusters = 32;
  s.nprobe = 4;
  s.n_queries = 3072;  // per phase: 24 batches of 128
  s.batch = 128;
  s.zipf = 1.5;
  s.n_regions = 32;
  s.shuffle = false;
  return s;
}();

constexpr std::size_t kWarmup = 2;   // untimed read-only batches per pass
constexpr std::size_t kPhase = 24;   // batches per popularity phase
constexpr std::size_t kShift = 16;   // hot-set rotation, in regions
constexpr std::size_t kInserts = 2;  // new ids per batch
constexpr std::size_t kReplaces = 1; // existing ids moved per batch
constexpr std::size_t kRemoves = 3;  // ids tombstoned per batch

// Open-loop rate scale, frozen on the commit that defined the benchmark
// (see NOTES.md).
constexpr double kCapacityQps = 3800;

/// Mirror of the live set, for the removed-id check and exact recall.
struct LiveSet {
  std::size_t n_base = 0;
  std::vector<std::uint8_t> dead;  ///< by id
  /// Batch before which each id was removed (-1 = never removed).
  std::vector<std::int64_t> removed_at;
  std::vector<std::vector<float>> added;  ///< rows of ids n_base..
  std::unordered_map<std::uint32_t, std::vector<float>> moved;
};

struct State {
  std::unique_ptr<Inputs> in;
  data::Dataset phase2;
  std::vector<data::Dataset> batches;  ///< kPhase of phase 1, then phase 2
  /// Base point each query of `batches` was drawn near, in batch order.
  std::vector<std::uint32_t> sources;
  // Per pass:
  std::unique_ptr<ivf::IvfIndex> index;
  std::unique_ptr<core::UpAnnsEngine> engine;
  std::unique_ptr<core::BatchStream> stream;
  LiveSet live;
  double engine_load_s = 0;
};

struct Pass {
  core::BatchPipelineReport rep;
  std::uint64_t digest = 0;
  double host_s = 0;  ///< timed writes + batches
  std::size_t upserted = 0, removed = 0, compacts = 0;
};

core::BatchPipelineOptions stream_options() {
  core::BatchPipelineOptions o;
  o.overlap = true;
  o.adapt = core::AdaptMode::kCopies;
  // Thresholds above the sampling noise of one phase make the controller
  // act on the rotation (a few batches after it, once per pass) rather than
  // on noise; with the defaults its timing, and with it throughput, swung
  // by 20% between seeds. Replica sizing still follows the sampled traffic,
  // so post-drift throughput keeps a spread of about 15% over seeds.
  o.adaptive.window_batches = 4;
  o.adaptive.minor_threshold = 0.15;
  o.adaptive.copy_change_fraction = 0.2;
  return o;
}

/// Fresh copy of the built index, a fresh updatable engine and stream, and
/// the untimed warm-up batches.
void reset(State& st) {
  st.stream.reset();
  st.engine.reset();
  st.index = std::make_unique<ivf::IvfIndex>(st.in->index);
  const double t0 = now_s();
  st.engine = std::make_unique<core::UpAnnsEngine>(*st.index, st.in->stats,
                                                   engine_options(kShape));
  st.engine_load_s = now_s() - t0;
  st.stream = std::make_unique<core::BatchStream>(*st.engine, stream_options());
  for (std::size_t i = 0; i < kWarmup; ++i) st.stream->run_batch(st.batches[i]);
  st.live = LiveSet{};
  st.live.n_base = st.in->base.n;
  st.live.dead.assign(st.in->base.n, 0);
  st.live.removed_at.assign(st.in->base.n, -1);
}

std::uint64_t set_up(State& st, std::uint64_t seed) {
  st.stream.reset();  // users before what they reference
  st.engine.reset();
  st = State{};
  st.in = std::make_unique<Inputs>(make_inputs(kShape, seed));
  data::WorkloadSpec w;
  w.n_queries = kShape.n_queries;
  w.zipf_exponent = kShape.zipf;
  w.seed = seed + 1;
  w.popularity_shift = kShift;
  data::QueryWorkload phase2 =
      data::generate_workload(st.in->base, w, kShape.n_regions);
  st.phase2 = std::move(phase2.queries);
  st.batches = core::split_batches(st.in->queries.queries, kShape.batch);
  for (data::Dataset& b : core::split_batches(st.phase2, kShape.batch)) {
    st.batches.push_back(std::move(b));
  }
  st.sources = st.in->queries.source_points;
  st.sources.insert(st.sources.end(), phase2.source_points.begin(),
                    phase2.source_points.end());
  reset(st);
  return index_digest(st.in->index);
}

/// Upserts and removes before one batch, then compaction. Writes follow
/// the traffic: the batch's first queries become new points, the base point
/// behind the next one moves onto it, and the base points behind the
/// following ones are removed (content churn where users look).
void write_before(State& st, const data::Dataset& batch, std::size_t b,
                  SpanLog& log, std::int64_t parent, Pass& p,
                  Ledger& ledger) {
  LiveSet& live = st.live;
  const std::uint32_t* src = st.sources.data() + b * kShape.batch;
  std::size_t row = 0;
  // The next query row whose base point is still live and not yet used.
  std::vector<std::uint32_t> used;
  const auto next_live_source = [&]() -> std::int64_t {
    for (; row < batch.n; ++row) {
      const std::uint32_t id = src[row];
      bool dup = false;
      for (std::uint32_t u : used) dup |= u == id;
      if (!live.dead[id] && !dup) {
        used.push_back(id);
        return row++;
      }
    }
    return -1;
  };

  std::vector<std::uint32_t> ids;
  std::vector<float> vecs;
  for (; row < kInserts; ++row) {
    ids.push_back(static_cast<std::uint32_t>(live.dead.size()));
    live.dead.push_back(0);
    live.removed_at.push_back(-1);
    live.added.emplace_back(batch.row(row), batch.row(row) + batch.dim);
    vecs.insert(vecs.end(), batch.row(row), batch.row(row) + batch.dim);
  }
  for (std::size_t i = 0; i < kReplaces; ++i) {
    const std::int64_t r = next_live_source();
    if (r < 0) break;
    const float* v = batch.row(static_cast<std::size_t>(r));
    ids.push_back(src[r]);
    live.moved[src[r]].assign(v, v + batch.dim);
    vecs.insert(vecs.end(), v, v + batch.dim);
  }
  try {
    ScopedSpan s(log, "ivf.upsert", b, parent);
    st.engine->upsert(ids, vecs);
    ledger.ok(ids.size());
  } catch (const std::exception& e) {
    ledger.fail(std::string("upsert failed: ") + e.what(), ids.size());
  }
  p.upserted += ids.size();

  ids.clear();
  for (std::size_t i = 0; i < kRemoves; ++i) {
    const std::int64_t r = next_live_source();
    if (r < 0) break;
    ids.push_back(src[r]);
  }
  std::size_t n_removed = 0;
  {
    ScopedSpan s(log, "ivf.remove", b, parent);
    n_removed = st.engine->remove(ids);
  }
  for (std::uint32_t x : ids) {
    live.dead[x] = 1;
    live.removed_at[x] = static_cast<std::int64_t>(b);
    live.moved.erase(x);
  }
  ledger.check(ids.size() == kRemoves && n_removed == ids.size(),
               "remove missed a live id");
  p.removed += ids.size();
  {
    ScopedSpan s(log, "ivf.compact", b, parent);
    st.engine->compact(0.0);
  }
  ++p.compacts;
}

Pass run_pass(State& st, Ledger& ledger, SpanLog& log, HostSamples* host) {
  reset(st);
  Pass p;
  for (std::size_t i = 0; i < st.batches.size(); ++i) {
    const data::Dataset& b = st.batches[i];
    const double t0 = now_s();
    {
      ScopedSpan root(log, "batch", i);
      write_before(st, b, i, log, root.id(), p, ledger);
      ScopedSpan run(log, "core.run_batch", i, root.id());
      st.stream->run_batch(b);
    }
    const double dt = now_s() - t0;
    p.host_s += dt;
    if (host) host->add(dt, b.n);
    ledger.ok(b.n);
  }
  p.rep = st.stream->finish();

  Digest d;
  bool clean = true;
  for (const core::BatchSlot& s : p.rep.slots) {
    hash_neighbors(d, s.report.neighbors);
    d.f64(s.report.times.total());
    d.f64(s.patch_seconds);
    d.f64(s.adapt_seconds);
    d.u64(static_cast<std::uint64_t>(s.adapt_action));
  }
  d.f64(p.rep.elapsed_seconds);
  p.digest = d.value();
  // A removed id must never come back in the batch it was removed before or
  // any later one (ids are never re-inserted after a remove).
  for (std::size_t i = kWarmup; i < p.rep.slots.size(); ++i) {
    const auto batch = static_cast<std::int64_t>(i - kWarmup);
    for (const auto& nb : p.rep.slots[i].report.neighbors) {
      for (const common::Neighbor& n : nb) {
        const std::int64_t at =
            n.id < st.live.removed_at.size() ? st.live.removed_at[n.id] : -1;
        clean &= at < 0 || at > batch;
      }
    }
  }
  ledger.check(clean, "a removed id was returned");
  bool adapted = false;
  for (std::size_t i = kWarmup + kPhase; i < p.rep.slots.size(); ++i) {
    adapted |= p.rep.slots[i].adapt_action != core::AdaptAction::kNone;
  }
  ledger.check(adapted, "the adapt controller never acted after the rotation");
  return p;
}

/// recall@10 of the final engine against exact search over the live set.
double final_recall(State& st) {
  const data::Dataset sample = rows(st.phase2, 0, kRecallSample);
  const core::SearchReport got = st.engine->search(sample);
  data::Dataset live;
  live.dim = st.in->base.dim;
  std::vector<std::uint32_t> id_of;
  for (std::uint32_t id = 0; id < st.live.dead.size(); ++id) {
    if (st.live.dead[id]) continue;
    const float* row = nullptr;
    if (id >= st.live.n_base) {
      row = st.live.added[id - st.live.n_base].data();
    } else if (const auto it = st.live.moved.find(id);
               it != st.live.moved.end()) {
      row = it->second.data();
    } else {
      row = st.in->base.row(id);
    }
    live.values.insert(live.values.end(), row, row + live.dim);
    id_of.push_back(id);
  }
  live.n = id_of.size();
  auto exact = data::exact_topk(live, sample, kShape.k);
  for (auto& list : exact) {
    for (common::Neighbor& n : list) n.id = id_of[n.id];
  }
  return recall_at_k(exact, got.neighbors, kShape.k);
}

}  // namespace

RunResult run_drift_writes(const RunConfig& cfg) {
  RunResult out;
  out.param("dataset", "sift-like n=120000 dim=128 pq_m=16, cluster-ordered");
  out.param("index", "32 clusters, 64 DPUs, nprobe 4, k 10, updatable");
  out.param("queries",
            "Zipf(1.5) over 32 regions, 24 batches of 128, then the hot set "
            "rotates by 16 regions for 24 more");
  out.param("writes", "per batch: 2 inserts, 1 moved id, 3 removes, compact");
  out.param("loop", "closed, BatchStream with overlap on and adapt=copies");
  add_load_params(out, kCapacityQps);

  State st;
  Ledger& ledger = out.ledger;
  const double setup_s = timed_setups(
      kSetupReps, ledger, [&] { return set_up(st, cfg.seed); });
  const std::size_t main_first = kWarmup;
  const std::size_t main_last = kWarmup + 2 * kPhase - 1;

  std::map<std::string, double> layer;
  if (!cfg.trace) {
    SpanLog off(false);
    HostSamples host;
    Pass ref;
    bool first = true;
    const double t0 = now_s();
    do {
      Pass p = run_pass(st, ledger, off, &host);
      if (first) {
        ref = std::move(p);
        first = false;
      } else {
        ledger.check(p.digest == ref.digest,
                     "a repeated pass changed neighbors or sim seconds");
      }
    } while (now_s() - t0 < cfg.seconds);
    const double recall = final_recall(st);
    ledger.check(recall >= 0.25, "recall@10 below the 0.25 floor");

    std::string acts = "adapt actions before main batches:";
    for (std::size_t i = main_first; i <= main_last; ++i) {
      const core::BatchSlot& s = ref.rep.slots[i];
      if (s.adapt_action != core::AdaptAction::kNone) {
        acts += ' ';
        acts += std::to_string(i - main_first);
        acts += ':';
        acts += core::adapt_action_name(s.adapt_action);
      }
    }
    out.notes.push_back(acts);

    Digest d;
    d.u64(ref.digest);
    double scaled_s = 0;
    std::size_t nq = 0;
    for (std::size_t i = main_first; i <= main_last; ++i) {
      scaled_s += ref.rep.slots[i].report
                      .at_scale(data_factor(kShape), dpu_factor(kShape))
                      .times.total();
      nq += ref.rep.slots[i].report.neighbors.size();
    }
    out.add("sim_qps", timeline_qps(ref.rep, main_first, main_last), "1/s");
    out.add("sim_qps_1b", static_cast<double>(nq) / scaled_s, "1/s");
    out.add("sim_post_drift_qps",
            timeline_qps(ref.rep, main_last + 1 - kPhase / 2, main_last),
            "1/s");
    d.f64(scaled_s);

    // Open loop: the traffic the placement was built for, on a freshly
    // loaded engine, reads only and with the controller off — the read-path
    // latency of this long-list shape. The post-adaptation placement, and
    // the unadapted one under rotated traffic, differ between seeds enough
    // to move the knee by a quarter or more.
    reset(st);
    core::BatchStream reads(*st.engine, core::BatchPipelineOptions{});
    const serve::BatchExecutor exec = stream_executor(reads);
    const data::Dataset& pool = st.in->load_pool;
    OpenLoop ol = measure_open_loop(pool, exec, kCapacityQps, cfg.seed);
    find_max_qps(ol, pool, exec, kCapacityQps, cfg.seed);
    reads.finish();
    add_open_loop_metrics(out, ol, d);
    out.add("recall_at_10", recall, "fraction");
    d.f64(recall);
    add_host_metrics(out, host);
    out.add("setup_s", setup_s, "s");
    out.digest = d.value();
  } else {
    // Traced run: untraced and traced passes alternate; the traced ones
    // record a span per write call and per batch.
    SpanLog off(false), log(true);
    std::vector<double> plain_s, traced_s;
    Pass traced;
    const double t0 = now_s();
    do {
      plain_s.push_back(run_pass(st, ledger, off, nullptr).host_s);
      traced = run_pass(st, ledger, log, nullptr);
      traced_s.push_back(traced.host_s);
    } while (now_s() - t0 < cfg.seconds);

    const auto totals = log.by_name();
    const auto mean_of = [&](const char* name, double per) {
      const auto it = totals.find(name);
      return it == totals.end() || per <= 0 ? 0.0 : it->second.total / per;
    };
    const double passes = static_cast<double>(traced_s.size());
    layer["ivf.upsert_host_us"] =
        mean_of("ivf.upsert", passes * static_cast<double>(traced.upserted)) *
        1e6;
    layer["ivf.remove_host_us"] =
        mean_of("ivf.remove", passes * static_cast<double>(traced.removed)) *
        1e6;
    layer["ivf.compact_host_s"] =
        mean_of("ivf.compact", passes * static_cast<double>(traced.compacts));

    const core::BatchPipelineReport& rep = traced.rep;
    const double image = static_cast<double>(st.engine->load_image_bytes());
    PimLayer pim;
    double patch_s = 0, patch_bytes = 0, adapt_s = 0, adapt_bytes = 0;
    double actions = 0, post = 0;
    for (std::size_t i = main_first; i <= main_last; ++i) {
      const core::BatchSlot& s = rep.slots[i];
      pim.add(s.report);
      patch_s += s.patch_seconds;
      patch_bytes += static_cast<double>(s.patch_bytes);
      adapt_s += s.adapt_seconds;
      adapt_bytes += static_cast<double>(s.adapt_bytes);
      if (s.adapt_action != core::AdaptAction::kNone) {
        actions += 1;
        post += s.report.pim ? s.report.pim->balance_ratio : 0;
      }
    }
    const double nb = static_cast<double>(main_last - main_first + 1);
    pim.emit(layer, log);
    layer["core.patch.sim_s"] = patch_s / nb;
    layer["core.patch.image_share"] = patch_bytes / nb / image;
    layer["core.adapt.actions"] = actions;
    layer["core.adapt.sim_s"] = adapt_s;
    layer["core.adapt.image_share"] = adapt_bytes / image;
    layer["core.adapt.balance_post"] = actions > 0 ? post / actions : 0;
    layer["core.overlap_saving"] =
        1.0 - rep.elapsed_seconds / rep.serial_seconds;
    layer["obs.trace_overhead_share"] = median(traced_s) / median(plain_s) - 1;
    add_setup_layers(layer, *st.in, st.engine_load_s, image);
    (void)setup_s;
    emit_per_layer(out, layer);
    out.digest = traced.digest;
  }
  return out;
}

}  // namespace perfbench
