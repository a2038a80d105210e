// The three benchmark workloads and what they share: input generation from
// the seed, the repeated set-up, the open-loop rate ladder and the metric
// list each run returns. See NOTES.md for why each workload exists and which
// layer metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/multihost.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "data/query_workload.hpp"
#include "harness.hpp"
#include "ivf/cluster_stats.hpp"
#include "ivf/ivf_index.hpp"
#include "serve/loadgen.hpp"

namespace perfbench {

using namespace upanns;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;
  Ledger ledger;
  /// Hash of every neighbor id and every simulated value of one pass.
  std::uint64_t digest = 0;
  /// Workload parameters, frozen rates and SLO, for the provenance note.
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<std::string> notes;  ///< extra human-readable lines

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void param(std::string key, std::string value) {
    params.emplace_back(std::move(key), std::move(value));
  }
};

RunResult run_offline_batch(const RunConfig& cfg);
RunResult run_online_multihost(const RunConfig& cfg);
RunResult run_drift_writes(const RunConfig& cfg);

// ------------------------------------------------------------ shared parts

/// Index and traffic shape of one workload.
struct Shape {
  std::size_t n = 120'000;
  std::size_t n_clusters = 256;
  std::size_t n_dpus = 64;
  std::size_t nprobe = 32;
  std::size_t k = 10;
  std::size_t n_queries = 1024;  ///< evaluation queries of one pass
  std::size_t batch = 128;
  double zipf = 1.0;
  std::size_t n_regions = 256;   ///< popularity granularity of the queries
  bool shuffle = true;           ///< false keeps regions cluster-contiguous
};

/// Everything set-up produces before an engine is loaded.
struct Inputs {
  data::Dataset base;
  ivf::IvfIndex index;
  ivf::BuildStats build_stats;
  data::QueryWorkload queries;
  /// Open-loop request pool: kStreams * kRequests queries of the same
  /// distribution, so every arrival stream carries its own queries.
  data::Dataset load_pool;
  ivf::ClusterStats stats;
  double gen_s = 0;
  double build_s = 0;
  double stats_s = 0;
};

/// The base set, the index and the placement history are the deployed
/// system and use this fixed seed; the run's --seed draws the evaluation
/// queries, the arrivals and the write stream. Varying the database with the
/// seed would move simulated throughput by about 25% between seeds, which no
/// regression bound could absorb.
inline constexpr std::uint64_t kDataSeed = 7;

/// Data generation, index build, query generation and placement stats.
/// Deterministic in (shape, seed).
Inputs make_inputs(const Shape& shape, std::uint64_t seed);

core::UpAnnsOptions engine_options(const Shape& shape);

/// Hash of the built index (list ids and codes) — equal for every set-up of
/// one seed.
std::uint64_t index_digest(const ivf::IvfIndex& index);

/// recall@k of `got` against exact lists whose ids are already mapped.
double recall_at_k(const std::vector<std::vector<common::Neighbor>>& exact,
                   const std::vector<std::vector<common::Neighbor>>& got,
                   std::size_t k);

/// `n` rows of a dataset from row `start` on, wrapping around.
data::Dataset rows(const data::Dataset& d, std::size_t start, std::size_t n);

inline constexpr std::size_t kRecallSample = 512;
inline constexpr double kPaperPoints = 1e9;
inline constexpr double kPaperIvf = 4096;
inline constexpr double kPaperDpus = 896;

/// SearchReport::at_scale factors for 1B points on 896 DPUs.
double data_factor(const Shape& shape);
double dpu_factor(const Shape& shape);

// ---------------------------------------------------------- open-loop load

/// Open-loop settings shared by every workload. Each workload freezes its
/// own capacity_qps: about 0.9 x the rate at which the median tail reached
/// the SLO on the commit that defined the benchmark. r50 and r90 are fixed
/// multiples of it, so later changes are measured at the same offered load.
inline constexpr double kSloMs = 15;              ///< tail-latency SLO
inline constexpr std::size_t kMaxBatch = 64;
inline constexpr double kDeadlineS = 2e-3;
inline constexpr std::size_t kRequests = 1500;    ///< per arrival stream
inline constexpr std::size_t kStreams = 3;        ///< streams per rate
inline constexpr std::size_t kQueueCapacity = 1024;

/// serve::stream_executor's contract over a BatchStream, closing the stream
/// every 256 batches so a long open-loop run keeps bounded memory (closing
/// changes no neighbor and no simulated second of later batches).
serve::BatchExecutor stream_executor(core::BatchStream& stream);

/// One offered rate, measured over one or more seeded Poisson streams.
struct RatePoint {
  double rate = 0;
  std::vector<serve::LoadgenResult> runs;
  double p50_ms = 0;   ///< median over streams of each stream's p50
  double tail_ms = 0;  ///< median over streams of each stream's tail
  double tail_q = 0;   ///< the percentile the tail rule picked per stream
  bool meets = false;  ///< tail within SLO, no rejections, no backlog
};

/// `streams` runs of serve::simulate_load at `rate`; stream k has arrival
/// seed seed * 1000 + k and carries pool rows k * kRequests onwards.
RatePoint measure_rate(const data::Dataset& pool,
                       const serve::BatchExecutor& exec, double rate,
                       std::uint64_t seed, std::size_t streams);

struct OpenLoop {
  RatePoint r50, r90;
  std::vector<RatePoint> probes;  ///< single-stream probes above r90
  double max_qps = 0;
};

/// r50 and r90 (0.5 and 0.9 x capacity_qps), kStreams streams each.
OpenLoop measure_open_loop(const data::Dataset& pool,
                           const serve::BatchExecutor& exec,
                           double capacity_qps, std::uint64_t seed);

/// Rate ladder of the max-rate search, as multiples of capacity_qps.
inline constexpr double kLadder[] = {0.5, 0.7, 0.9, 1.1, 1.3};

/// Highest rate that meets the SLO: walk the ladder from r90 up while rungs
/// pass, or down until one does (0 when even r50 misses), then interpolate
/// linearly to where the median tail crosses the SLO between the highest
/// passing rung and the failing rung above it. Rungs use kStreams streams
/// like r50 and r90.
void find_max_qps(OpenLoop& ol, const data::Dataset& pool,
                  const serve::BatchExecutor& exec, double capacity_qps,
                  std::uint64_t seed);

/// Adds the five open-loop end-to-end metrics, books every request and
/// rejection in the ledger and folds the sim results into the digest.
void add_open_loop_metrics(RunResult& out, const OpenLoop& ol, Digest& digest);

void add_load_params(RunResult& out, double capacity_qps);

// ------------------------------------------------------------ set-up timing

/// Runs `once` (a full set-up returning its index digest) `reps` times,
/// checks every repetition built the same index, and returns the median
/// wall time.
template <class F>
double timed_setups(int reps, Ledger& ledger, F&& once) {
  std::vector<double> secs;
  std::uint64_t first = 0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    const std::uint64_t d = once();
    secs.push_back(now_s() - t0);
    if (r == 0) {
      first = d;
    } else {
      ledger.check(d == first, "set-up is not deterministic for one seed");
    }
  }
  return median(secs);
}

inline constexpr int kSetupReps = 3;

double peak_rss_mb();

/// Host time of each timed batch (closed loop) or executed request batch.
struct HostSamples {
  std::vector<double> batch_s;
  std::vector<std::size_t> batch_n;  ///< queries per batch
  std::size_t queries = 0;
  double busy_s = 0;
  void add(double s, std::size_t nq) {
    batch_s.push_back(s);
    batch_n.push_back(nq);
    busy_s += s;
    queries += nq;
  }
};

void add_host_metrics(RunResult& out, const HostSamples& h);

void hash_neighbors(Digest& d,
                    const std::vector<std::vector<common::Neighbor>>& nb);

/// Per-layer metric names every traced run reports (0 where the layer does
/// no work on that workload).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fill `out.metrics` in per_layer_metrics() order from `values`, with 0 for
/// anything the workload did not measure.
void emit_per_layer(RunResult& out,
                    const std::map<std::string, double>& values);

/// The data/quant/ivf layer metrics of one set-up.
void add_setup_layers(std::map<std::string, double>& v, const Inputs& in,
                      double engine_load_s, double mram_image_bytes);

/// Accumulates the pim/balance/transfer layer metrics of PIM batch reports.
struct PimLayer {
  std::size_t batches = 0, queries = 0;
  double lut = 0, scan = 0, topk = 0, crit_lut = 0, crit_scan = 0;
  double instructions = 0, scanned = 0;
  double balance = 0, sched_balance = 0;
  double pushed = 0, gathered = 0, pruned = 0, compared = 0, cae = 0;
  std::map<std::string, double> stage_sim;  ///< summed per stage name

  void add(const core::SearchReport& r);
  /// Also turns the stage spans in `log` (self time per batch) into
  /// stage.<name>.host_s and the kernel-launch spans into host ns per
  /// scanned record.
  void emit(std::map<std::string, double>& v, const SpanLog& log) const;
};

/// Drive one batch through the six public QueryStage objects one at a time,
/// with a span per stage under `parent`, assembling the report the way
/// QueryPipeline::run does. `probes` == nullptr lets the filter stage
/// compute them.
core::SearchReport run_staged(
    core::QueryPipeline& pl, const data::Dataset& batch,
    const std::vector<std::vector<std::uint32_t>>* probes, SpanLog& log,
    std::uint64_t batch_id, std::int64_t parent);

/// Sim queries/s of slots [first, last] of a single-host pipeline report,
/// read off its overlapped timeline.
double timeline_qps(const core::BatchPipelineReport& rep, std::size_t first,
                    std::size_t last);

}  // namespace perfbench
