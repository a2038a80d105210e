// The online query path, decomposed into named stage objects.
//
// QueryPipeline runs one batch through six individually timed stages:
//
//   cluster-filter  (host)    coarse filtering + per-query fixed-point
//                             tables on the CPU roofline
//   alg2-schedule   (host)    Algorithm 2 replica selection / balancing
//   uniform-push    (device)  launch-input build + uniform-size MRAM push
//   kernel-launch   (device)  DPU kernels, max-over-DPU critical path
//   gather          (device)  per-DPU top-k result readback
//   host-merge      (host)    final k-way merge on the host
//
// Each stage books its simulated seconds into exactly one bucket of
// SearchReport::times and reports the same seconds in the SearchReport
// trace, so the trace always sums to times.total().
//
// BatchPipeline streams a sequence of query batches through the stages with
// double-buffering: the leading host stages (filter + schedule) of batch
// i+1 overlap the device-bound remainder of batch i, the classic two-phase
// software pipeline of the paper's Fig 5 host orchestration. Simulated
// elapsed time is h_0 + sum_i max(d_i, h_{i+1}) + d_last; with overlap
// disabled (--no-overlap in the CLI) it is exactly the serial sum of the
// per-batch totals. Results are bit-identical either way — overlap changes
// only the time accounting, never the execution order of a batch's stages.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "core/dpu_kernel.hpp"
#include "core/engine.hpp"
#include "core/scheduler.hpp"
#include "data/dataset.hpp"
#include "obs/metrics.hpp"
#include "pim/dpu.hpp"

namespace upanns::core {

/// Mutable state threaded through the stages of one batch.
struct BatchContext {
  const data::Dataset* queries = nullptr;
  const std::vector<std::vector<std::uint32_t>>* probes = nullptr;
  std::vector<std::vector<std::uint32_t>> owned_probes;  ///< when filtering here

  /// Pushed query rows in UpANNS modes, one per batch row: the query's u16
  /// table (KeyCodec::query_table), built once per query by the filter
  /// stage and host-mirrored into every DPU the query is pushed to.
  /// PIM-naive rows are the query vectors themselves.
  std::vector<std::uint16_t> query_tables;
  /// Per batch row, the table offset o_q the host keeps (UpANNS modes).
  std::vector<double> query_offsets;

  Schedule sched;
  std::vector<DpuLaunchInput> inputs;
  std::vector<std::size_t> push_bytes;
  /// Borrowed from QueryPipeline's kernel pool (rebind per batch); nullptr
  /// for idle DPUs. Valid for the lifetime of the batch only.
  std::vector<QueryKernel*> kernels;
  pim::PimSystem::LaunchStats launch;
  std::vector<std::vector<std::vector<common::Neighbor>>> per_query_lists;
  std::size_t max_gather = 0;

  SearchReport report;
};

/// One named online stage. run() performs the stage, books its cost into
/// ctx.report.times, and returns the simulated seconds it booked (the
/// pipeline appends that to the report trace).
class QueryStage {
 public:
  virtual ~QueryStage() = default;
  virtual const char* name() const = 0;
  virtual StageSide side() const = 0;
  virtual double run(QueryPipeline& pl, BatchContext& ctx) = 0;
};

class ClusterFilterStage final : public QueryStage {
 public:
  const char* name() const override { return "cluster-filter"; }
  StageSide side() const override { return StageSide::kHost; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

class ScheduleStage final : public QueryStage {
 public:
  const char* name() const override { return "alg2-schedule"; }
  StageSide side() const override { return StageSide::kHost; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

class PushStage final : public QueryStage {
 public:
  const char* name() const override { return "uniform-push"; }
  StageSide side() const override { return StageSide::kDevice; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

class LaunchStage final : public QueryStage {
 public:
  const char* name() const override { return "kernel-launch"; }
  StageSide side() const override { return StageSide::kDevice; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

class GatherStage final : public QueryStage {
 public:
  const char* name() const override { return "gather"; }
  StageSide side() const override { return StageSide::kDevice; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

class MergeStage final : public QueryStage {
 public:
  const char* name() const override { return "host-merge"; }
  StageSide side() const override { return StageSide::kHost; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

/// Runs one batch through the six stages. Engine internals funnel through
/// the accessors below (the engine befriends only this class).
class QueryPipeline {
 public:
  explicit QueryPipeline(UpAnnsEngine& engine);

  /// probes == nullptr -> the filter stage computes them (options().nprobe).
  /// batch_id / first_query_id are the stable telemetry ids stamped into
  /// SearchReport::query_costs when the engine has a span log attached
  /// (obs/span.hpp); they are ignored otherwise, so standalone searches can
  /// leave them defaulted. probes_out, when non-null, receives the batch's
  /// probe lists after the stages ran (moved out when the filter stage
  /// computed them) — the adaptive serving loop feeds them to its drift
  /// controller; null skips the capture entirely.
  SearchReport run(const data::Dataset& queries,
                   const std::vector<std::vector<std::uint32_t>>* probes,
                   std::uint64_t batch_id = 0,
                   std::uint64_t first_query_id = 0,
                   std::vector<std::vector<std::uint32_t>>* probes_out =
                       nullptr);

  UpAnnsEngine& engine() { return engine_; }
  const ivf::IvfIndex& index() const { return engine_.index_; }
  const UpAnnsOptions& options() const { return engine_.options_; }
  const Placement& placement() const { return engine_.placement_; }
  pim::PimSystem& system() { return *engine_.system_; }
  KernelMode mode() const { return engine_.mode_; }
  const KeyCodec& key_codec() const { return engine_.key_codec_; }
  UpAnnsEngine::PerDpu& per_dpu(std::size_t d) { return engine_.per_dpu_[d]; }
  /// Empty (inlined no-op) when the engine has no registry attached.
  obs::MetricsSink sink() const { return engine_.metrics_; }
  /// Null when no span log is attached (per-query cost capture skipped).
  obs::SpanLog* spans() const { return engine_.spans_; }

  /// Kernel pool: constructs DPU d's kernel on first use, rebinds it to the
  /// new launch input afterwards. Mode, pruning and the static layout are
  /// per-engine constants, so reuse across batches is sound; the returned
  /// pointer stays owned by the pipeline and must not outlive it.
  QueryKernel* acquire_kernel(std::size_t d, const DpuLaunchInput& input);

  /// Drop every pooled kernel. Required after UpAnnsEngine::relocate(): a
  /// relocation rebuilds the per-DPU layout objects the pooled kernels hold
  /// references into, so they must be reconstructed on next use.
  void reset_kernels() { kernel_pool_.clear(); }

 private:
  UpAnnsEngine& engine_;
  std::vector<std::unique_ptr<QueryStage>> stages_;
  std::vector<std::unique_ptr<QueryKernel>> kernel_pool_;
};

struct BatchPipelineOptions {
  /// Overlap host stages of batch i+1 with device stages of batch i. False
  /// reproduces the serial per-batch totals exactly (CLI --no-overlap).
  bool overlap = true;
  /// Book per-query `query.latency_seconds` (cumulative + rolling window)
  /// from the simulated timeline when the run finishes. The online serve
  /// layer (src/serve/) turns this off and books measured enqueue→complete
  /// latencies under the same name instead, so the metric never mixes the
  /// simulated and wall-clock time bases.
  bool book_query_latency = true;
  /// Online adaptive replication (paper Sec 4.1.2): after each batch the
  /// stream feeds the probe histogram and per-DPU busy seconds into an
  /// AdaptiveController; a recommendation made at the end of batch i is
  /// applied before batch i+1 runs (a drain point), its MRAM cost folded
  /// into that slot's device phase like a mutation patch. kOff (the
  /// default) skips the controller entirely and is byte-identical to a
  /// build without the feature.
  AdaptMode adapt = AdaptMode::kOff;
  /// Controller tuning when adapt != kOff. window_batches doubles as the
  /// decision cooldown: at least that many batches are observed after every
  /// action (or stream start) before the controller may act again.
  AdaptiveOptions adaptive{};
};

/// One scheduled batch in a pipeline run.
struct BatchSlot {
  double host_seconds = 0;    ///< leading host stages (filter + schedule)
  double device_seconds = 0;  ///< everything after the host prefix
  /// Incremental MRAM patch applied before this batch (updatable engines
  /// with pending mutations only; folded into device_seconds).
  double patch_seconds = 0;
  std::uint64_t patch_bytes = 0;
  /// Adaptive-replication work applied before this batch — a copy-adjust
  /// MRAM load or a full relocation, decided at the end of an earlier batch
  /// (BatchPipelineOptions::adapt). Folded into device_seconds like the
  /// mutation patch; zero whenever the controller did not act.
  double adapt_seconds = 0;
  std::uint64_t adapt_bytes = 0;
  AdaptAction adapt_action = AdaptAction::kNone;
  double adapt_drift = 0;  ///< controller drift at decision time
  SearchReport report;
};

struct BatchPipelineReport {
  std::vector<BatchSlot> slots;
  double serial_seconds = 0;   ///< sum of per-batch totals (no-overlap time)
  double elapsed_seconds = 0;  ///< simulated end-to-end time of this run
  bool overlapped = true;
  std::size_t n_queries = 0;
  double qps = 0;              ///< n_queries / elapsed_seconds
};

/// Simulated host seconds of ClusterFilterStage for an nq-query batch:
/// coarse filtering plus, in UpANNS modes, one fixed-point query table per
/// query (KeyCodec::query_table), both on the CPU roofline. The multi-host coordinator charges its
/// one shared pass with the same function.
double cluster_filter_seconds(const ivf::IvfIndex& index, std::size_t nq,
                              std::size_t k, KernelMode mode);

/// Sum of the leading StageSide::kHost trace entries of a report — the host
/// prefix (filter + schedule) that the batch pipelines overlap with the
/// previous batch's device phase. Shared by BatchPipeline and the
/// multi-host per-host accounting (core/multihost.cpp).
double leading_host_seconds(const SearchReport& report);

/// Incremental (continuous) variant of BatchPipeline: batches are fed one
/// at a time as they become available — the entry point the online serve
/// layer (src/serve/) uses, where batch boundaries are decided by a
/// deadline batcher instead of known up front. Accounting is identical to
/// BatchPipeline::run over the same batch sequence (BatchPipeline is
/// implemented on top of this class), including pending-mutation MRAM
/// patches, slot metrics, span assembly and the overlap recurrence.
class BatchStream {
 public:
  explicit BatchStream(UpAnnsEngine& engine, BatchPipelineOptions opts = {});

  /// Apply any pending mutations as one MRAM patch, then run `batch`
  /// through the six stages. The returned slot reference stays valid until
  /// finish(). Query/batch telemetry ids continue across calls.
  const BatchSlot& run_batch(const data::Dataset& batch);

  std::size_t n_batches() const { return out_.slots.size(); }
  std::size_t n_queries() const { return out_.n_queries; }
  UpAnnsEngine& engine() { return engine_; }

  /// Close the stream: compute the overlapped elapsed time, book the
  /// pipeline metrics and spans, and return the report. The stream resets
  /// and can be reused for a fresh run afterwards.
  BatchPipelineReport finish();

 private:
  void apply_pending_adaptation(BatchSlot& slot);
  void observe_and_decide(
      const std::vector<std::vector<std::uint32_t>>& probes,
      const BatchSlot& slot);

  UpAnnsEngine& engine_;
  BatchPipelineOptions opts_;
  QueryPipeline pipeline_;
  BatchPipelineReport out_;
  std::uint64_t first_query_id_ = 0;

  // Drift-loop state (adapt != kOff only). The controller survives finish()
  // so a reused stream keeps its traffic estimate across runs.
  std::unique_ptr<AdaptiveController> adapt_;
  AdaptReport pending_;             ///< decision awaiting the next drain point
  std::vector<double> pending_freqs_;  ///< profile the decision was sized for
  std::size_t observed_since_action_ = 0;
  bool adapt_applied_last_ = false;  ///< book post-action balance next batch
};

/// Streams query batches through the engine with double-buffered time
/// accounting (see file comment). Execution itself stays serial, so
/// per-query neighbors are bit-identical with overlap on or off.
class BatchPipeline {
 public:
  explicit BatchPipeline(UpAnnsEngine& engine, BatchPipelineOptions opts = {});

  BatchPipelineReport run(const std::vector<data::Dataset>& batches);

  /// Mixed read/write workload: `mutate(i)` runs before batch i and may
  /// issue engine upsert/remove/compact calls. Pending mutations are then
  /// applied as one incremental MRAM patch (UpAnnsEngine::patch_dpus) whose
  /// cost is charged to the slot's device phase — the patch occupies the
  /// MRAM bus, so it cannot overlap the batch's own device stages, but the
  /// next batch's host prefix still overlaps it like any device work. A
  /// null hook (or one that never mutates) reproduces the read-only run
  /// bit-for-bit.
  using MutationHook = std::function<void(std::size_t batch_index)>;
  BatchPipelineReport run(const std::vector<data::Dataset>& batches,
                          const MutationHook& mutate);

 private:
  UpAnnsEngine& engine_;
  BatchPipelineOptions opts_;
};

/// Split a query set into consecutive batches of `batch_size` (the last one
/// may be short). Rows are copied; the input stays valid independently.
std::vector<data::Dataset> split_batches(const data::Dataset& queries,
                                         std::size_t batch_size);

}  // namespace upanns::core
