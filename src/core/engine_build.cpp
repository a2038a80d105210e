// Offline half of UpAnnsEngine: codebook quantization, cluster encoding
// (Opt3), replica placement (Opt1) and MRAM image construction. The online
// query path lives in core/pipeline.cpp.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "common/fastround.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"

namespace upanns::core {

UpAnnsEngine::UpAnnsEngine(ivf::IvfIndex& index, const ivf::ClusterStats& stats,
                           UpAnnsOptions options)
    : UpAnnsEngine(static_cast<const ivf::IvfIndex&>(index), stats,
                   std::move(options)) {
  mutable_index_ = &index;
}

UpAnnsEngine::UpAnnsEngine(const ivf::IvfIndex& index,
                           const ivf::ClusterStats& stats,
                           UpAnnsOptions options)
    : index_(index), options_(std::move(options)) {
  if (options_.n_dpus == 0) throw std::invalid_argument("n_dpus == 0");
  options_.placement.n_dpus = options_.n_dpus;

  mode_ = kernel_mode_of(options_);

  // --- Quantize the PQ codebooks to int8 (the WRAM-resident form; paper
  // Sec 4.2.1 budgets D x 256 bytes). One scale per subspace.
  const auto& pq = index_.pq();
  const std::size_t m = pq.m();
  const std::size_t dsub = pq.dsub();
  codebook_q_.resize(m * 256 * dsub);
  codebook_scales_.resize(m);
  const std::span<const float> cb = pq.codebooks();
  for (std::size_t s = 0; s < m; ++s) {
    float mx = 0.f;
    for (std::size_t i = 0; i < 256 * dsub; ++i) {
      mx = std::max(mx, std::abs(cb[s * 256 * dsub + i]));
    }
    const float scale = mx > 0.f ? mx / 127.f : 1.f;
    codebook_scales_[s] = scale;
    for (std::size_t i = 0; i < 256 * dsub; ++i) {
      // round_nonneg on |r| == lround's round-half-away-from-zero here
      // (|r| <= 127 by the scale construction), minus the libm call.
      const float r = cb[s * 256 * dsub + i] / scale;
      codebook_q_[s * 256 * dsub + i] = static_cast<std::int8_t>(
          r < 0.f ? -common::round_nonneg(-r) : common::round_nonneg(r));
    }
  }
  if (mode_ != KernelMode::kNaiveRaw) {
    key_codec_ = KeyCodec(
        LutCodebook(codebook_q_.data(), codebook_scales_.data(), m, dsub),
        index_.centroids().data(), index_.n_clusters(), index_.dim());
  }

  // --- Encode every cluster once (replicas share the encoding).
  encodings_.resize(index_.n_clusters());
  norms_.resize(index_.n_clusters());
  double weighted_reduction = 0;
  std::size_t total_records = 0;
  common::ThreadPool::global().parallel_for(
      0, index_.n_clusters(), [&](std::size_t c) { encode_cluster(c); }, 1);
  for (std::size_t c = 0; c < index_.n_clusters(); ++c) {
    weighted_reduction += encodings_[c].length_reduction() *
                          static_cast<double>(encodings_[c].n_records);
    total_records += encodings_[c].n_records;
  }
  build_length_reduction_ =
      total_records > 0 ? weighted_reduction / static_cast<double>(total_records)
                        : 0;

  // --- The cluster-workload model Algorithms 1 and 2 balance, from the
  // cycles this build's kernel charges (DESIGN.md §4).
  workload_model_ = calibrate_workload_model(stats);

  // --- Place and load.
  placement_ = options_.opt_placement
                   ? place_clusters(index_, stats, options_.placement,
                                    workload_model_)
                   : place_random(index_, stats, options_.placement,
                                  options_.seed);
  set_placement_frequencies(stats.frequencies);
  load_dpus(stats);
}

WorkloadModel UpAnnsEngine::calibrate_workload_model(
    const ivf::ClusterStats& stats) const {
  // PIM-naive keeps the paper's per-record model with its random placement
  // and naive schedule.
  if (mode_ == KernelMode::kNaiveRaw) return {};

  // The list a probe scans on average: the frequency-weighted mean size of
  // the non-empty lists placement sees (the plain mean when nothing was
  // probed), so per_record carries a pair's chunk rounding and barrier.
  double probed = 0, weighted = 0, total = 0, lists = 0;
  for (std::size_t c = 0; c < stats.sizes.size(); ++c) {
    if (stats.sizes[c] == 0) continue;
    const auto size = static_cast<double>(stats.sizes[c]);
    probed += stats.frequencies[c];
    weighted += stats.frequencies[c] * size;
    total += size;
    lists += 1;
  }
  if (lists == 0) return {};
  const auto n = static_cast<std::size_t>(std::max(
      1.0, std::round(probed > 0 ? weighted / probed : total / lists)));

  // A scratch DPU holds one synthetic list of n records, laid out as the
  // loader lays a list: each record carries the build's mean token count
  // (its CAE length reduction spread over the records) and a pseudo-random
  // norm term, which scatters the keys over the tasklet heaps as real data
  // does. Only the build's shape, its mean token count and the placement
  // stats enter, not the list contents, so an engine patched after
  // mutations (direct tokens) keeps the model a fresh build over the
  // mutated index with the same stats derives.
  const std::size_t m = index_.pq_m();
  const double tokens =
      static_cast<double>(m) * (1.0 - build_length_reduction_);
  CaeClusterEncoding enc;
  enc.m = m;
  enc.n_records = n;
  std::vector<std::uint32_t> norms(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto len = static_cast<std::uint16_t>(
        std::floor(static_cast<double>(r + 1) * tokens) -
        std::floor(static_cast<double>(r) * tokens));
    enc.tokens.push_back(len);
    for (std::size_t pos = 0; pos < len; ++pos) {
      enc.tokens.push_back(static_cast<std::uint16_t>(pos * 256));
    }
    enc.total_tokens += len;
    norms[r] = (static_cast<std::uint32_t>(r) * 2654435761u) >> 12;
  }
  ClusterImage img;
  build_record_stream(enc, norms, img.records, img.chunk_index);
  img.stream.resize(img.records.size() * sizeof(std::uint16_t));
  std::memcpy(img.stream.data(), img.records.data(), img.stream.size());
  img.stream_elems = img.records.size();
  img.ids.resize(n);
  std::iota(img.ids.begin(), img.ids.end(), 0u);
  img.n_records = static_cast<std::uint32_t>(n);

  pim::Dpu dpu(0);
  DpuStaticLayout layout;
  layout.dim = index_.dim();
  layout.m = m;
  layout.dsub = index_.pq().dsub();
  layout.unit = key_codec_.unit();
  std::vector<MramRun> runs;
  layout.clusters.push_back(load_replica(dpu, 0, img, runs));
  write_runs(dpu, runs);

  // One query on the list, pushed and launched as PushStage and
  // LaunchStage do, at whole-chunk reads: the read granularity is a
  // runtime knob (Fig 17 sweeps it on a built engine) and leaves placement
  // alone.
  const std::vector<std::uint16_t> table(key_codec_.table_size(), 0);
  const std::size_t row_bytes = query_row_bytes(layout, mode_);
  DpuLaunchInput input;
  input.k = options_.k;
  input.query_rows = {0};
  input.items = {{0, 0, 0}};
  dpu.mram_mirror(table.data(), input.query_rows.data(), 1, row_bytes,
                  "calibration-query");
  input.results_off = dpu.mram_alloc(input.k * 8, "calibration-results");
  QueryKernel kernel(layout, input, mode_, options_.opt_prune_topk);
  KernelStageCycles stages;
  try {
    stages = kernel.attribute_stages(
        dpu.run(kernel, options_.n_tasklets).phase_cycles);
  } catch (const pim::WramOverflow&) {
    // The kernel does not fit this configuration: nothing can launch, and
    // the first search reports the overflow.
    return {};
  }

  // per_record: the scan's cycles per record of the list. per_query: the
  // query's S0 and S5 cycles, plus one more row on the busiest DPU, which
  // pads the uniform push (its table row) and gather (its k results) of
  // every DPU.
  WorkloadModel model;
  model.per_record =
      static_cast<double>(stages.distance) / static_cast<double>(n);
  model.per_query =
      static_cast<double>(stages.per_query) +
      pim::TransferEngine::uniform(options_.n_dpus, row_bytes + input.k * 8)
              .seconds *
          hw::kDpuFreqHz;
  return model;
}

void UpAnnsEngine::set_placement_frequencies(
    const std::vector<double>& frequencies) {
  placement_frequencies_ = frequencies;
  placement_frequencies_.resize(index_.n_clusters(), 0.0);
  double total = 0;
  for (double f : placement_frequencies_) total += f;
  if (total > 0) {
    for (double& f : placement_frequencies_) f /= total;
  }
}

void UpAnnsEngine::set_k(std::size_t k) {
  if (k == 0) throw std::invalid_argument("set_k: k == 0");
  options_.k = k;
}

void UpAnnsEngine::set_nprobe(std::size_t nprobe) {
  if (nprobe == 0) throw std::invalid_argument("set_nprobe: nprobe == 0");
  options_.nprobe = nprobe;
}

void UpAnnsEngine::set_mram_read_vectors(std::size_t vectors) {
  // 0 is valid: one maximal DMA per chunk (Fig 17 rightmost point).
  options_.mram_read_vectors = vectors;
}

void UpAnnsEngine::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (system_) system_->set_metrics(registry);
}

UpAnnsEngine::PatchStats UpAnnsEngine::relocate(const ivf::ClusterStats& stats) {
  // A relocate rebuilds every MRAM image from the shared encodings, so any
  // pending index mutations must land in the encodings first.
  if (updatable()) {
    for (std::size_t c = 0; c < index_.n_clusters(); ++c) {
      refresh_encoding(c);
    }
  }
  workload_model_ = calibrate_workload_model(stats);
  placement_ = options_.opt_placement
                   ? place_clusters(index_, stats, options_.placement,
                                    workload_model_)
                   : place_random(index_, stats, options_.placement,
                                  options_.seed);
  set_placement_frequencies(stats.frequencies);
  const RunLengths lengths = load_dpus(stats);

  // Charge the reload like every other static-region write so the online
  // pipelines can fold a drain-point relocation into a batch slot.
  const pim::TransferStats xfer = scatter_charge(lengths);
  PatchStats out;
  out.bytes_written = load_image_bytes_;
  out.lists_patched = placement_.total_replicas;
  out.seconds = xfer.seconds;
  out.apply_seconds = xfer.apply_seconds;
  pim::TransferEngine::record(obs::MetricsSink(metrics_), "relocate", xfer);
  return out;
}

void UpAnnsEngine::encode_cluster(std::size_t c) {
  const ivf::InvertedList& list = index_.list(c);
  const std::size_t m = index_.pq_m();
  switch (mode_) {
    case KernelMode::kCae:
    case KernelMode::kDirectTokens:
      encodings_[c] = mode_ == KernelMode::kCae
                          ? cae_encode_cluster(list, m, options_.cae)
                          : direct_encode_cluster(list, m);
      norms_[c].clear();
      key_codec_.record_norms(c, index_.centroid(c), list.codes.data(),
                              list.size(), norms_[c]);
      break;
    case KernelMode::kNaiveRaw:
      // Raw mode streams the original codes; keep only bookkeeping.
      encodings_[c] = CaeClusterEncoding{};
      encodings_[c].m = m;
      encodings_[c].n_records = list.size();
      encodings_[c].total_tokens = list.size() * m;
      break;
  }
}

void UpAnnsEngine::refresh_encoding(std::size_t c) {
  const ivf::InvertedList& list = index_.list(c);
  CaeClusterEncoding& enc = encodings_[c];
  if (list.compact_epoch != enc_compact_[c]) {
    // Slots physically moved — the stream must be rebuilt (which also
    // re-mines CAE combos over the surviving codes).
    encode_cluster(c);
    enc_compact_[c] = list.compact_epoch;
    return;
  }
  if (list.size() <= enc.n_records) return;  // removes only: stream unchanged
  const std::size_t m = index_.pq_m();
  if (mode_ == KernelMode::kNaiveRaw) {
    enc.total_tokens += (list.size() - enc.n_records) * m;
    enc.n_records = list.size();
    return;
  }
  key_codec_.record_norms(c, index_.centroid(c), list.code(enc.n_records, m),
                          list.size() - enc.n_records, norms_[c]);
  // Append direct-address tokens for the new records. Mixing direct tokens
  // into a CAE stream is exact: a distance is an order-independent u32 sum
  // of LUT entries, so an appended record scores bit-identically to the
  // combo-compressed form a full re-encode might choose.
  for (std::size_t r = enc.n_records; r < list.size(); ++r) {
    const std::uint8_t* code = list.code(r, m);
    enc.tokens.push_back(static_cast<std::uint16_t>(m));
    for (std::size_t pos = 0; pos < m; ++pos) {
      enc.tokens.push_back(static_cast<std::uint16_t>(pos * 256 + code[pos]));
    }
    enc.total_tokens += m;
    ++enc.n_records;
  }
}

std::size_t UpAnnsEngine::slack_bytes(std::size_t bytes) const {
  const double s = std::max(0.0, options_.mram_list_slack);
  const auto padded = static_cast<std::size_t>(
      std::ceil(static_cast<double>(bytes) * (1.0 + s)));
  return (padded + 7) / 8 * 8;
}

void UpAnnsEngine::build_cluster_image(std::uint32_t c,
                                       ClusterImage& out) const {
  const ivf::InvertedList& list = index_.list(c);
  const CaeClusterEncoding& enc = encodings_[c];
  assert(enc.n_records == list.size());
  out.n_records = static_cast<std::uint32_t>(list.size());
  out.n_tombstones = list.n_tombstones;

  out.ids.assign(list.ids.begin(), list.ids.end());
  if (list.has_tombstones()) {
    for (std::size_t i = 0; i < out.ids.size(); ++i) {
      if (list.is_dead(i)) out.ids[i] = kTombstoneId;
    }
  }

  out.chunk_index.clear();
  out.combos.clear();
  if (mode_ == KernelMode::kNaiveRaw) {
    out.stream.assign(list.codes.begin(), list.codes.end());
    out.stream_elems = list.codes.size();
    return;
  }
  build_record_stream(enc, norms_[c], out.records, out.chunk_index);
  out.stream.resize(out.records.size() * sizeof(std::uint16_t));
  if (!out.records.empty()) {
    std::memcpy(out.stream.data(), out.records.data(), out.stream.size());
  }
  out.stream_elems = out.records.size();

  if (!enc.combos.empty()) {
    out.combos.resize(enc.combos.size() * 4);
    for (std::size_t i = 0; i < enc.combos.size(); ++i) {
      out.combos[4 * i + 0] = enc.combos[i].pos;
      out.combos[4 * i + 1] = enc.combos[i].c0;
      out.combos[4 * i + 2] = enc.combos[i].c1;
      out.combos[4 * i + 3] = enc.combos[i].c2;
    }
  }
}

void UpAnnsEngine::snapshot_loaded_state() {
  loaded_gen_.resize(index_.n_clusters());
  enc_compact_.resize(index_.n_clusters());
  for (std::size_t c = 0; c < index_.n_clusters(); ++c) {
    loaded_gen_[c] = index_.list(c).generation;
    enc_compact_[c] = index_.list(c).compact_epoch;
  }
  loaded_epoch_ = index_.mutation_epoch();
}

DpuClusterData UpAnnsEngine::load_replica(pim::Dpu& dpu, std::uint32_t c,
                                          const ClusterImage& img,
                                          std::vector<MramRun>& runs) const {
  // List regions are over-allocated by mram_list_slack so streaming inserts
  // patch in place. The slack is pure address-space: DMA costs are charged
  // per byte moved, never per offset, so read-only results are unchanged.
  DpuClusterData cd;
  cd.cluster_id = c;
  cd.n_records = img.n_records;
  cd.n_tombstones = img.n_tombstones;

  const std::size_t ids_bytes = img.ids.size() * sizeof(std::uint32_t);
  cd.ids_cap = slack_bytes(ids_bytes);
  cd.ids_off = dpu.mram_alloc_reuse(cd.ids_cap, "ids");
  if (ids_bytes > 0) runs.push_back({cd.ids_off, img.ids.data(), ids_bytes});

  cd.stream_cap = slack_bytes(img.stream.size());
  cd.stream_off = dpu.mram_alloc_reuse(
      cd.stream_cap, mode_ == KernelMode::kNaiveRaw ? "codes" : "tokens");
  if (!img.stream.empty()) {
    runs.push_back({cd.stream_off, img.stream.data(), img.stream.size()});
  }
  cd.stream_len = img.stream_elems;

  const std::size_t chunk_bytes =
      img.chunk_index.size() * sizeof(std::uint32_t);
  cd.n_chunks = static_cast<std::uint32_t>(img.chunk_index.size());
  if (chunk_bytes > 0) {
    cd.chunk_cap = slack_bytes(chunk_bytes);
    cd.chunk_index_off = dpu.mram_alloc_reuse(cd.chunk_cap, "chunk-index");
    runs.push_back({cd.chunk_index_off, img.chunk_index.data(), chunk_bytes});
  }

  cd.n_combos = static_cast<std::uint32_t>(img.combos.size() / 4);
  if (!img.combos.empty()) {
    cd.combos_cap = slack_bytes(img.combos.size());
    cd.combos_off = dpu.mram_alloc_reuse(cd.combos_cap, "combos");
    runs.push_back({cd.combos_off, img.combos.data(), img.combos.size()});
  }

  // Only the PIM-naive S0 forms residuals on the DPU; in the UpANNS modes
  // the centroid enters through K_pair and the records' norm terms.
  if (mode_ == KernelMode::kNaiveRaw) {
    const std::size_t centroid_bytes = index_.dim() * sizeof(float);
    cd.centroid_off = dpu.mram_alloc_reuse(centroid_bytes, "centroid");
    runs.push_back({cd.centroid_off, index_.centroid(c), centroid_bytes});
  }
  return cd;
}

void UpAnnsEngine::release_replica(pim::Dpu& dpu,
                                   const DpuClusterData& cd) const {
  if (cd.ids_cap > 0) dpu.mram_release(cd.ids_off, cd.ids_cap);
  if (cd.stream_cap > 0) dpu.mram_release(cd.stream_off, cd.stream_cap);
  if (cd.chunk_cap > 0) dpu.mram_release(cd.chunk_index_off, cd.chunk_cap);
  if (cd.combos_cap > 0) dpu.mram_release(cd.combos_off, cd.combos_cap);
  if (mode_ == KernelMode::kNaiveRaw) {
    dpu.mram_release(cd.centroid_off, index_.dim() * sizeof(float));
  }
}

void UpAnnsEngine::write_runs(pim::Dpu& dpu, const std::vector<MramRun>& runs) {
  for (const MramRun& r : runs) dpu.host_write(r.off, r.src, r.len);
}

pim::TransferStats UpAnnsEngine::scatter_charge(
    const RunLengths& lengths) const {
  std::vector<std::size_t> free_bytes(options_.n_dpus);
  for (std::size_t d = 0; d < options_.n_dpus; ++d) {
    free_bytes[d] = hw::kMramBytes - per_dpu_[d].static_mark;
  }
  return pim::TransferEngine::scatter(lengths, free_bytes,
                                      options_.n_tasklets);
}

UpAnnsEngine::RunLengths UpAnnsEngine::load_dpus(const ivf::ClusterStats&) {
  system_ = std::make_unique<pim::PimSystem>(options_.n_dpus);
  system_->set_metrics(metrics_);  // relocate() rebuilds the system
  per_dpu_.assign(options_.n_dpus, PerDpu{});

  // Each DPU's image lands as soon as it is laid out: the system is fresh
  // and serves nothing until the load returns.
  RunLengths lengths(options_.n_dpus);
  common::ThreadPool::global().parallel_for(
      0, options_.n_dpus,
      [&](std::size_t d) {
        pim::Dpu& dpu = system_->dpu(d);
        PerDpu& pd = per_dpu_[d];
        std::vector<MramRun> runs;
        const auto commit = [&] {
          write_runs(dpu, runs);
          for (const MramRun& r : runs) lengths[d].push_back(r.len);
          runs.clear();
        };
        pd.cluster_slot.assign(index_.n_clusters(), -1);
        pd.layout.dim = index_.dim();
        pd.layout.m = index_.pq_m();
        pd.layout.dsub = index_.pq().dsub();
        pd.layout.unit = key_codec_.unit();

        // Only the PIM-naive kernel builds LUTs from the codebook; UpANNS
        // kernels load each query's host-quantized table instead.
        if (mode_ == KernelMode::kNaiveRaw) {
          pd.layout.codebook_off =
              dpu.mram_alloc(codebook_q_.size(), "codebook");
          runs.push_back({pd.layout.codebook_off, codebook_q_.data(),
                          codebook_q_.size()});
          const std::size_t scale_bytes =
              codebook_scales_.size() * sizeof(float);
          pd.layout.cb_scale_off = dpu.mram_alloc(scale_bytes, "cb-scales");
          runs.push_back(
              {pd.layout.cb_scale_off, codebook_scales_.data(), scale_bytes});
        }

        ClusterImage img;  // reused per replica, so each commits at once
        for (std::uint32_t c : placement_.dpu_clusters[d]) {
          pd.cluster_slot[c] =
              static_cast<std::int32_t>(pd.layout.clusters.size());
          build_cluster_image(c, img);
          pd.layout.clusters.push_back(load_replica(dpu, c, img, runs));
          commit();
        }
        commit();
        pd.static_mark = dpu.mram_mark();
      },
      1);

  load_image_bytes_ = 0;
  for (const std::vector<std::size_t>& dpu_lengths : lengths) {
    for (std::size_t len : dpu_lengths) load_image_bytes_ += len;
  }
  snapshot_loaded_state();
  return lengths;
}

}  // namespace upanns::core
