#include "core/dpu_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/fastround.hpp"
#include "common/simd_dispatch.hpp"
#include "common/thread_pool.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace upanns::core {

namespace {

// Instruction-cost constants (per-element issue slots). Derived from the
// DPU ISA: loads/stores/ALU ops are single-issue; there is no hardware
// 32-bit multiply, which is why direct-address tokens save the 2-op address
// arithmetic the raw-code path pays per element.
constexpr std::uint64_t kInstrLutPerDim = 3;      // load cb, dequant-sub, fma
constexpr std::uint64_t kInstrLutPerEntry = 3;    // max-track, store, loop
constexpr std::uint64_t kInstrQuantPerEntry = 3;  // load, scale, store
constexpr std::uint64_t kInstrComboPerSlot = 8;   // 3 loads + 2 adds + store + addr
constexpr std::uint64_t kInstrTokenScan = 3;      // load token, LUT load, add
constexpr std::uint64_t kInstrRawScan = 4;        // + running-base addressing
// header, loop, compare, and the key seed: the UpANNS modes load n_r and add
// K_pair where kNaiveRaw scales its integer sum into a float distance.
constexpr std::uint64_t kInstrRecordOverhead = 5;
constexpr std::uint64_t kInstrResidualPerDim = 3; // load, sub, store
constexpr std::uint64_t kInstrTombstoneMask = 1;  // id-vs-sentinel select
// Per-query S0, per tasklet: slice address, size, DMA issue, loop.
constexpr std::uint64_t kInstrTableSlice = 4;

std::uint64_t heap_push_cost(std::size_t k) {
  std::uint64_t lg = 1;
  while ((1ull << lg) < k + 1) ++lg;
  return 2 * lg + 4;
}

std::atomic<std::uint64_t> g_hot_path_allocations{0};

}  // namespace

std::uint64_t hot_path_allocations() {
  return g_hot_path_allocations.load(std::memory_order_relaxed);
}

namespace detail {
void note_hot_path_allocation() {
  g_hot_path_allocations.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

LutCodebook::LutCodebook(const std::int8_t* codes, const float* scales,
                         std::size_t m, std::size_t dsub)
    : m_(m), dsub_(dsub), yt_(m * dsub * 256) {
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t j = 0; j < 256; ++j) {
      for (std::size_t d = 0; d < dsub; ++d) {
        yt_[(s * dsub + d) * 256 + j] =
            scales[s] * static_cast<float>(codes[(s * 256 + j) * dsub + d]);
      }
    }
  }
}

void LutCodebook::query_table(const float* query, float* out) const {
  for (std::size_t s = 0; s < m_; ++s) {
    float* o = out + s * 256;
    std::fill(o, o + 256, 0.f);
    for (std::size_t d = 0; d < dsub_; ++d) {
      const float q = query[s * dsub_ + d];
      const float* y = yt_.data() + (s * dsub_ + d) * 256;
      for (std::size_t j = 0; j < 256; ++j) o[j] += q * y[j];
    }
    for (std::size_t j = 0; j < 256; ++j) o[j] *= -2.f;  // exact
  }
}

void LutCodebook::cluster_table(const float* centroid, float* out) const {
  float dot[256];
  for (std::size_t s = 0; s < m_; ++s) {
    float* o = out + s * 256;
    std::fill(o, o + 256, 0.f);
    std::fill(dot, dot + 256, 0.f);
    for (std::size_t d = 0; d < dsub_; ++d) {
      const float c = centroid[s * dsub_ + d];
      const float* y = yt_.data() + (s * dsub_ + d) * 256;
      for (std::size_t j = 0; j < 256; ++j) {
        o[j] += y[j] * y[j];
        dot[j] += c * y[j];
      }
    }
    for (std::size_t j = 0; j < 256; ++j) o[j] += 2.f * dot[j];
  }
}

KeyCodec::KeyCodec(LutCodebook codebook, const float* centroids,
                   std::size_t n_clusters, std::size_t dim)
    : codebook_(std::move(codebook)), dim_(dim), centre_(dim, 0.f) {
  const std::size_t m = codebook_.m();
  const std::size_t dsub = codebook_.dsub();
  if (n_clusters > 0) {
    std::vector<double> sum(dim, 0.0);
    for (std::size_t c = 0; c < n_clusters; ++c) {
      for (std::size_t d = 0; d < dim; ++d) sum[d] += centroids[c * dim + d];
    }
    for (std::size_t d = 0; d < dim; ++d) {
      centre_[d] = static_cast<float>(sum[d] / static_cast<double>(n_clusters));
    }
  }

  // Y_s from the codeword norms: C'(mu) = |y_sj|^2 (the centred table of a
  // centroid at mu itself).
  std::vector<float> scratch(dim), table(codebook_.table_size());
  centred_cluster_table(centre_.data(), scratch.data(), table.data());
  std::vector<double> y2(m, 0.0);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t j = 0; j < 256; ++j) {
      y2[s] = std::max(y2[s], static_cast<double>(table[s * 256 + j]));
    }
  }

  // R_s^2 = max over centroids and codewords of |c_s - mu_s|^2 + C'_s[j],
  // and min N = sum_s min_j C'_s[j] per cluster (its norm offset, once U is
  // known). Clusters are independent, so the parallel pass is deterministic.
  std::vector<double> r2(n_clusters * m, 0.0), min_norm(n_clusters, 0.0);
  common::ThreadPool::global().parallel_for(
      0, n_clusters,
      [&](std::size_t c) {
        std::vector<float> res(dim), t(codebook_.table_size());
        const float* ctr = centroids + c * dim;
        centred_cluster_table(ctr, res.data(), t.data());
        double n_min = 0.0;
        for (std::size_t s = 0; s < m; ++s) {
          double off2 = 0.0, hi = -std::numeric_limits<double>::infinity();
          float lo = std::numeric_limits<float>::infinity();
          for (std::size_t d = 0; d < dsub; ++d) {
            const double v = res[s * dsub + d];
            off2 += v * v;
          }
          for (std::size_t j = 0; j < 256; ++j) {
            hi = std::max(hi, static_cast<double>(t[s * 256 + j]));
            lo = std::min(lo, t[s * 256 + j]);
          }
          r2[c * m + s] = std::max(0.0, off2 + hi);
          n_min += lo;
        }
        min_norm[c] = n_min;
      },
      8);
  double unit = 0.0;
  for (std::size_t s = 0; s < m; ++s) {
    double r2_max = 0.0;
    for (std::size_t c = 0; c < n_clusters; ++c) {
      r2_max = std::max(r2_max, r2[c * m + s]);
    }
    unit = std::max(unit, 4.0 * std::sqrt(r2_max) * std::sqrt(y2[s]) / 65535.0);
  }
  // A degenerate codebook (every codeword zero) makes every table entry 0,
  // which any unit represents exactly.
  unit_ = unit > 0.0 && std::isfinite(unit) ? unit : 1.0;
  norm_offsets_.resize(n_clusters);
  for (std::size_t c = 0; c < n_clusters; ++c) {
    norm_offsets_[c] = static_cast<std::int32_t>(to_units(min_norm[c]));
  }
}

std::int64_t KeyCodec::to_units(double v) const {
  return std::llround(v / unit_);
}

void KeyCodec::centred_cluster_table(const float* centroid, float* scratch,
                                     float* table) const {
  for (std::size_t d = 0; d < dim_; ++d) scratch[d] = centroid[d] - centre_[d];
  codebook_.cluster_table(scratch, table);
}

double KeyCodec::query_table(const float* query, std::uint16_t* out,
                             std::size_t& saturated) const {
  thread_local std::vector<float> res, b;
  res.resize(dim_);
  b.resize(codebook_.table_size());
  for (std::size_t d = 0; d < dim_; ++d) res[d] = query[d] - centre_[d];
  codebook_.query_table(res.data(), b.data());
  double offset = 0.0;
  for (std::size_t s = 0; s < codebook_.m(); ++s) {
    const float* row = b.data() + s * 256;
    const float lo = *std::min_element(row, row + 256);
    offset += lo;
    for (std::size_t j = 0; j < 256; ++j) {
      const std::int64_t v = to_units(static_cast<double>(row[j]) - lo);
      if (v > 65535) ++saturated;
      out[s * 256 + j] = static_cast<std::uint16_t>(std::min<std::int64_t>(v, 65535));
    }
  }
  return offset;
}

void KeyCodec::record_norms(std::size_t c, const float* centroid,
                            const std::uint8_t* codes, std::size_t n,
                            std::vector<std::uint32_t>& out) const {
  if (n == 0) return;
  const std::size_t m = codebook_.m();
  std::vector<float> res(dim_), table(codebook_.table_size());
  centred_cluster_table(centroid, res.data(), table.data());
  for (std::size_t r = 0; r < n; ++r) {
    // Summed in subspace order, so N_r >= the cluster's min N term by term
    // and the rounded difference cannot go negative.
    double norm = 0.0;
    for (std::size_t s = 0; s < m; ++s) norm += table[s * 256 + codes[r * m + s]];
    out.push_back(static_cast<std::uint32_t>(to_units(norm) - norm_offsets_[c]));
  }
}

std::int32_t KeyCodec::pair_key(float coarse_dist, double query_offset,
                                std::size_t c) const {
  // Clamped to leave 2^30 of headroom for the table entries and n_r, so a
  // key does not wrap the DPU's 32-bit adds. Only a query hundreds of data
  // radii from every centroid reaches the clamp.
  constexpr std::int64_t kLimit = std::int64_t{1} << 30;
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(
      to_units(static_cast<double>(coarse_dist) + query_offset) +
          norm_offsets_[c],
      -kLimit, kLimit));
}

void build_record_stream(const CaeClusterEncoding& enc,
                         const std::vector<std::uint32_t>& norms,
                         std::vector<std::uint16_t>& stream,
                         std::vector<std::uint32_t>& chunk_index) {
  assert(norms.size() == enc.n_records);
  stream.clear();
  chunk_index.clear();
  stream.reserve(enc.tokens.size() + 2 * enc.n_records);
  std::size_t off = 0;
  for (std::size_t r = 0; r < enc.n_records; ++r) {
    if (r % kChunkRecords == 0) {
      chunk_index.push_back(static_cast<std::uint32_t>(stream.size()));
    }
    const std::uint16_t len = enc.tokens[off];
    stream.push_back(len);
    stream.push_back(static_cast<std::uint16_t>(norms[r] & 0xFFFFu));
    stream.push_back(static_cast<std::uint16_t>(norms[r] >> 16));
    stream.insert(stream.end(), enc.tokens.begin() + off + 1,
                  enc.tokens.begin() + off + 1 + len);
    off += 1 + len;
  }
}

QueryKernel::QueryKernel(const DpuStaticLayout& layout,
                         const DpuLaunchInput& input, KernelMode mode,
                         bool prune_topk)
    : layout_(layout),
      input_(&input),
      mode_(mode),
      prune_topk_(prune_topk),
      global_heap_(input.k) {
  // Constructing a kernel (LaunchStage pool growth) is a hot-path
  // allocation event; a warm serving loop rebinds instead.
  detail::note_hot_path_allocation();
  rebind(input);
}

void QueryKernel::rebind(const DpuLaunchInput& input) {
  input_ = &input;
  // Rebuild the phase program in place: items arrive grouped by query. In
  // the UpANNS modes each query opens with its table load; kNaiveRaw builds
  // a LUT per item instead. Every item then gets its combo sums (kCae) and
  // scan, and each query closes with one merge phase. program_ keeps its
  // capacity across batches.
  program_.clear();
  const bool naive = mode_ == KernelMode::kNaiveRaw;
  for (std::uint32_t i = 0; i < input_->items.size(); ++i) {
    const bool first_of_query =
        i == 0 ||
        input_->items[i - 1].query_local != input_->items[i].query_local;
    if (naive) {
      program_.push_back({Step::kLutBuild, i});
      program_.push_back({Step::kLutReduce, i});
      program_.push_back({Step::kLutQuantize, i});
    } else if (first_of_query) {
      program_.push_back({Step::kQueryTable, i});
    }
    if (mode_ == KernelMode::kCae && cluster_of(i).n_combos > 0) {
      program_.push_back({Step::kComboSums, i});
    }
    program_.push_back({Step::kDistance, i});
    const bool last_of_query =
        i + 1 == input_->items.size() ||
        input_->items[i + 1].query_local != input_->items[i].query_local;
    if (last_of_query) {
      program_.push_back({Step::kMerge, i});
    }
  }
}

void QueryKernel::setup(pim::Dpu& dpu, unsigned n_tasklets) {
  dpu_ = &dpu;
  pim::WramAllocator& wram = dpu.wram();
  wram.reset();

  const std::size_t m = layout_.m;
  const std::size_t k = input_->k;
  const bool naive = mode_ == KernelMode::kNaiveRaw;

  // Fixed-region layout (paper Fig 6). Heaps and the partial-sum cache live
  // below the LUT; in kNaiveRaw the codebook is last so it can be rewound
  // and reused as per-tasklet read buffers during the distance stage.
  const std::size_t heap_bytes = (n_tasklets + 1) * k * 8;
  wram.alloc(heap_bytes, "topk-heaps");

  std::uint32_t max_combos = 0;
  for (const auto& item : input_->items) {
    max_combos = std::max(max_combos,
                          layout_.clusters[item.cluster_slot].n_combos);
  }
  if (mode_ == KernelMode::kCae && max_combos > 0) {
    wram.alloc(max_combos * sizeof(std::uint32_t), "combo-partial-sums");
  }
  query_row_bytes_ = query_row_bytes(layout_, mode_);
  std::size_t mark = 0;
  if (naive) {
    wram.alloc(layout_.dim * sizeof(float), "query-residual");
    // Float LUT region; the u16 LUT compacts into its first half in place.
    wram.alloc(m * 256 * sizeof(float), "lut");
    mark = wram.mark();
    wram.alloc(m * 256 * layout_.dsub, "codebook");
  } else {
    wram.alloc(m * 256 * sizeof(std::uint16_t), "lut");
    mark = wram.mark();
  }

  // Per-tasklet stream buffers must hold a full chunk (plus its ids) so
  // records never straddle buffers; verify the distance-stage working set
  // fits (in kNaiveRaw, in place of the rewound codebook).
  const std::size_t elem_size = naive ? 1 : 2;
  const std::size_t chunk_stream_bytes =
      kChunkRecords * (m + (naive ? 0 : kRecordHeaderElems)) * elem_size;
  per_tasklet_buf_bytes_ =
      (chunk_stream_bytes + kChunkRecords * sizeof(std::uint32_t) + 7) / 8 * 8;
  wram.rewind(mark);
  for (unsigned t = 0; t < n_tasklets; ++t) {
    wram.alloc(per_tasklet_buf_bytes_, "stream-buffer");
  }

  // Functional mirrors, reused from the scratch arena across launches.
  if (naive) {
    KernelScratch::assign(scratch_.lut_f32, m * 256, 0.f);
    KernelScratch::assign(scratch_.lut_u16, m * 256,
                          static_cast<std::uint16_t>(0));
    KernelScratch::assign(scratch_.residual, layout_.dim, 0.f);
    KernelScratch::assign(scratch_.tasklet_max,
                          static_cast<std::size_t>(n_tasklets), 0.f);
  }
  KernelScratch::assign(scratch_.token_table, m * 256 + max_combos,
                        static_cast<std::uint32_t>(0));
  if (local_heaps_.size() != n_tasklets ||
      (!local_heaps_.empty() && local_heaps_.front().capacity() != k)) {
    detail::note_hot_path_allocation();
    local_heaps_.clear();
    local_heaps_.reserve(n_tasklets);
    for (unsigned t = 0; t < n_tasklets; ++t) local_heaps_.emplace_back(k);
  } else {
    for (auto& h : local_heaps_) h.clear();
  }
  if (global_heap_.capacity() != k) {
    detail::note_hot_path_allocation();
    global_heap_ = KeyHeap(k);
  } else {
    global_heap_.clear();
  }

  // Per-launch statistics restart with every run — reused kernel objects
  // must report exactly what a freshly constructed one would.
  merge_insertions_ = 0;
  merge_pruned_ = 0;
  scanned_elements_ = 0;
  scanned_records_ = 0;
}

unsigned QueryKernel::n_phases() const {
  return static_cast<unsigned>(program_.size());
}

void QueryKernel::run_phase(unsigned phase, pim::TaskletCtx& ctx) {
  const Phase& p = program_[phase];
  switch (p.step) {
    case Step::kQueryTable: return phase_query_table(p, ctx);
    case Step::kLutBuild: return phase_lut_build(p, ctx);
    case Step::kLutReduce: return phase_lut_reduce(ctx);
    case Step::kLutQuantize: return phase_lut_quantize(ctx);
    case Step::kComboSums: return phase_combo_sums(p, ctx);
    case Step::kDistance: return phase_distance(p, ctx);
    case Step::kMerge: return phase_merge(p, ctx);
  }
}

namespace {

#if defined(__SSE2__)
/// SSE2 LUT block for the dominant dsub == 8 shape: 8 codebook entries are
/// 64 contiguous bytes, so an 8x8 byte transpose yields per-dimension
/// columns and the 8 accumulation chains become two 4-lane vectors. Every
/// lane performs the same IEEE mul/sub/add sequence, in the same order, as
/// one entry of the scalar loop — results are bit-identical (there is no
/// FMA contraction: SSE2 has no fused ops). local_max folds through
/// max-vectors, which is order-insensitive for the non-NaN sums involved.
inline void lut_block8_dsub8(const std::int8_t* entry, const float* res,
                             const __m128 scale_v, float* out, __m128& max_lo,
                             __m128& max_hi) {
  const __m128i r01 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(entry));
  const __m128i r23 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(entry + 16));
  const __m128i r45 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(entry + 32));
  const __m128i r67 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(entry + 48));
  // Transpose rows (one per entry) into columns (one per dimension).
  const __m128i t0 = _mm_unpacklo_epi8(r01, _mm_srli_si128(r01, 8));
  const __m128i t1 = _mm_unpacklo_epi8(r23, _mm_srli_si128(r23, 8));
  const __m128i t2 = _mm_unpacklo_epi8(r45, _mm_srli_si128(r45, 8));
  const __m128i t3 = _mm_unpacklo_epi8(r67, _mm_srli_si128(r67, 8));
  const __m128i u0 = _mm_unpacklo_epi16(t0, t1);
  const __m128i u1 = _mm_unpackhi_epi16(t0, t1);
  const __m128i u2 = _mm_unpacklo_epi16(t2, t3);
  const __m128i u3 = _mm_unpackhi_epi16(t2, t3);
  const __m128i cols[4] = {
      _mm_unpacklo_epi32(u0, u2), _mm_unpackhi_epi32(u0, u2),
      _mm_unpacklo_epi32(u1, u3), _mm_unpackhi_epi32(u1, u3)};

  __m128 acc_lo = _mm_setzero_ps();
  __m128 acc_hi = _mm_setzero_ps();
  for (std::size_t d = 0; d < 8; ++d) {
    // cols[d/2] holds column d in its low 8 bytes, column d+1 in the high.
    const __m128i col8 = (d & 1) ? _mm_srli_si128(cols[d / 2], 8) : cols[d / 2];
    // Sign-extend 8 x s8 -> 2 x (4 x f32); exact for the s8 range.
    const __m128i s16 = _mm_srai_epi16(_mm_unpacklo_epi8(col8, col8), 8);
    const __m128 f_lo =
        _mm_cvtepi32_ps(_mm_srai_epi32(_mm_unpacklo_epi16(s16, s16), 16));
    const __m128 f_hi =
        _mm_cvtepi32_ps(_mm_srai_epi32(_mm_unpackhi_epi16(s16, s16), 16));
    const __m128 res_v = _mm_set1_ps(res[d]);
    const __m128 d_lo = _mm_sub_ps(res_v, _mm_mul_ps(scale_v, f_lo));
    const __m128 d_hi = _mm_sub_ps(res_v, _mm_mul_ps(scale_v, f_hi));
    acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(d_lo, d_lo));
    acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(d_hi, d_hi));
  }
  _mm_storeu_ps(out, acc_lo);
  _mm_storeu_ps(out + 4, acc_hi);
  max_lo = _mm_max_ps(max_lo, acc_lo);
  max_hi = _mm_max_ps(max_hi, acc_hi);
}

/// AVX2 variant of lut_block8_dsub8: the same 8x8 byte transpose, then one
/// 8-lane float chain instead of two 4-lane halves. _mm256_cvtepi8_epi32
/// sign-extends exactly like the unpack/srai pair, and mul/sub/add stay
/// separate ops (no FMA contraction), so every lane runs the identical IEEE
/// sequence — bit-exact against the SSE2 and scalar paths.
__attribute__((target("avx2"))) inline void lut_block8_dsub8_avx2(
    const std::int8_t* entry, const float* res, const __m256 scale_v,
    float* out, __m256& max_v) {
  const __m128i r01 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(entry));
  const __m128i r23 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(entry + 16));
  const __m128i r45 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(entry + 32));
  const __m128i r67 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(entry + 48));
  const __m128i t0 = _mm_unpacklo_epi8(r01, _mm_srli_si128(r01, 8));
  const __m128i t1 = _mm_unpacklo_epi8(r23, _mm_srli_si128(r23, 8));
  const __m128i t2 = _mm_unpacklo_epi8(r45, _mm_srli_si128(r45, 8));
  const __m128i t3 = _mm_unpacklo_epi8(r67, _mm_srli_si128(r67, 8));
  const __m128i u0 = _mm_unpacklo_epi16(t0, t1);
  const __m128i u1 = _mm_unpackhi_epi16(t0, t1);
  const __m128i u2 = _mm_unpacklo_epi16(t2, t3);
  const __m128i u3 = _mm_unpackhi_epi16(t2, t3);
  const __m128i cols[4] = {
      _mm_unpacklo_epi32(u0, u2), _mm_unpackhi_epi32(u0, u2),
      _mm_unpacklo_epi32(u1, u3), _mm_unpackhi_epi32(u1, u3)};

  __m256 acc = _mm256_setzero_ps();
  for (std::size_t d = 0; d < 8; ++d) {
    const __m128i col8 = (d & 1) ? _mm_srli_si128(cols[d / 2], 8) : cols[d / 2];
    const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(col8));
    const __m256 res_v = _mm256_set1_ps(res[d]);
    const __m256 diff = _mm256_sub_ps(res_v, _mm256_mul_ps(scale_v, f));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
  _mm256_storeu_ps(out, acc);
  max_v = _mm256_max_ps(max_v, acc);
}

/// A run of n LUT entries (n % 8 == 0) of one subspace at SSE2 (dsub == 8),
/// starting at the run's first codebook entry. Returns the run max.
float lut_run_dsub8_sse2(const std::int8_t* cb, const float* res, float scale,
                         float* out, std::size_t n) {
  const __m128 scale_v = _mm_set1_ps(scale);
  __m128 max_lo = _mm_setzero_ps();
  __m128 max_hi = _mm_setzero_ps();
  for (std::size_t c = 0; c < n; c += 8) {
    lut_block8_dsub8(cb + c * 8, res, scale_v, out + c, max_lo, max_hi);
  }
  alignas(16) float mx[4];
  _mm_store_ps(mx, _mm_max_ps(max_lo, max_hi));
  return std::max(std::max(mx[0], mx[1]), std::max(mx[2], mx[3]));
}

/// AVX2 form of lut_run_dsub8_sse2.
__attribute__((target("avx2"))) float lut_run_dsub8_avx2(
    const std::int8_t* cb, const float* res, float scale, float* out,
    std::size_t n) {
  const __m256 scale_v = _mm256_set1_ps(scale);
  __m256 mx = _mm256_setzero_ps();
  for (std::size_t c = 0; c < n; c += 8) {
    lut_block8_dsub8_avx2(cb + c * 8, res, scale_v, out + c, mx);
  }
  alignas(32) float tmp[8];
  _mm256_store_ps(tmp, mx);
  float run_max = tmp[0];
  for (std::size_t j = 1; j < 8; ++j) run_max = std::max(run_max, tmp[j]);
  return run_max;
}
#endif  // __SSE2__

/// Scalar form for any dsub. Entries go 8 at a time: each entry's
/// accumulation keeps its exact per-dimension operation order (bit-identical
/// to the one-entry-at-a-time loop), but the eight chains are independent,
/// which hides the FP add latency that otherwise serializes this loop.
float lut_run_scalar(const std::int8_t* cb, const float* res, float scale,
                     float* out, std::size_t n, std::size_t dsub) {
  float run_max = 0.f;
  for (std::size_t c = 0; c < n; c += 8) {
    const std::int8_t* entry = cb + c * dsub;
    float acc[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    for (std::size_t d = 0; d < dsub; ++d) {
      for (std::size_t u = 0; u < 8; ++u) {
        const float diff =
            res[d] - scale * static_cast<float>(entry[u * dsub + d]);
        acc[u] += diff * diff;
      }
    }
    for (std::size_t u = 0; u < 8; ++u) {
      out[c + u] = acc[u];
      run_max = std::max(run_max, acc[u]);
    }
  }
  return run_max;
}

/// LUT entries [lo, hi) of S0 owned by one tasklet.
struct LutRange {
  std::size_t lo;
  std::size_t hi;
};

/// Equal contiguous split of the m*256 LUT entries in 8-entry blocks (the
/// ceil split S2 also uses). 256 % 8 == 0, so a block never crosses a
/// subspace and every range boundary is a block boundary.
LutRange lut_range(std::size_t m, unsigned tasklet, unsigned n_tasklets) {
  constexpr std::size_t kBlock = 8;
  static_assert(256 % kBlock == 0, "a LUT block must never cross a subspace");
  const std::size_t n_blocks = m * (256 / kBlock);
  const std::size_t per = (n_blocks + n_tasklets - 1) / n_tasklets;
  const std::size_t lo = std::min(n_blocks, tasklet * per);
  const std::size_t hi = std::min(n_blocks, lo + per);
  return {lo * kBlock, hi * kBlock};
}

}  // namespace

void QueryKernel::phase_query_table(const Phase& p, pim::TaskletCtx& ctx) {
  // The query's table is already quantized on the host: each tasklet DMAs
  // its block range of the mirrored row into the WRAM LUT region, with the
  // same 8-entry block split S0 uses in kNaiveRaw. The widening into the
  // token table is a host-side convenience of the simulator, not charged.
  const LutRange r = lut_range(layout_.m, ctx.id(), ctx.n_tasklets());
  if (r.lo == r.hi) return;
  const std::size_t row =
      static_cast<std::size_t>(input_->items[p.item].query_local) *
      query_row_bytes_;
  const std::uint16_t* table = ctx.mirror_view_as<std::uint16_t>(
      row + r.lo * sizeof(std::uint16_t), (r.hi - r.lo) * sizeof(std::uint16_t));
  std::copy(table, table + (r.hi - r.lo), scratch_.token_table.data() + r.lo);
  ctx.instr(kInstrTableSlice);
}

void QueryKernel::phase_lut_build(const Phase& p, pim::TaskletCtx& ctx) {
  const DpuClusterData& cl = cluster_of(p.item);
  const std::size_t dsub = layout_.dsub;
  const std::size_t m = layout_.m;

  // Tasklets split the m*256 LUT entries into equal contiguous ranges of
  // 8-entry blocks, so every tasklet issues the same instruction count (to
  // within one block) and the phase runs at the revolver's issue bound
  // instead of the busiest tasklet's path. A tasklet with no block idles.
  const LutRange r = lut_range(m, ctx.id(), ctx.n_tasklets());
  if (r.lo == r.hi) {
    scratch_.tasklet_max[ctx.id()] = 0.f;
    return;
  }
  const std::size_t s_lo = r.lo / 256;
  const std::size_t s_hi = (r.hi + 255) / 256;

  // Each tasklet materializes the residual slices of the subspaces it
  // touches instead of reading a residual another tasklet writes in the
  // same phase. A subspace shared by two ranges is written by both with
  // identical values, so any interleaving reads the right ones. Query and
  // centroid are read-only, so borrowed MRAM views replace staging copies.
  const std::size_t res_lo = s_lo * dsub;
  const std::size_t res_n = (s_hi - s_lo) * dsub;
  const std::size_t q_row =
      static_cast<std::size_t>(input_->items[p.item].query_local) *
      query_row_bytes_;
  const float* query = ctx.mirror_view_as<float>(
      q_row + res_lo * sizeof(float), res_n * sizeof(float));
  const float* centroid = ctx.mram_view_as<float>(
      cl.centroid_off + res_lo * sizeof(float), res_n * sizeof(float));
  float* residual = scratch_.residual.data() + res_lo;
  for (std::size_t d = 0; d < res_n; ++d) residual[d] = query[d] - centroid[d];
  ctx.instr(res_n * kInstrResidualPerDim);

  // The tasklet's codebook range is one contiguous MRAM view (charged in
  // DMAs of at most 2048 B); the range is walked as per-subspace runs so the
  // SIMD routines take one horizontal max per run, not per block.
  const float* scales =
      ctx.mram_view_as<float>(layout_.cb_scale_off, m * sizeof(float));
  const std::int8_t* cb = ctx.mram_view_as<std::int8_t>(
      layout_.codebook_off + r.lo * dsub, (r.hi - r.lo) * dsub);
#if defined(__SSE2__)
  const common::SimdLevel simd =
      dsub == 8 ? common::simd_active_level() : common::SimdLevel::kScalar;
#endif
  float local_max = 0.f;
  for (std::size_t s = s_lo; s < s_hi; ++s) {
    const std::size_t e_lo = std::max(r.lo, s * 256);
    const std::size_t e_hi = std::min(r.hi, (s + 1) * 256);
    const std::int8_t* run_cb = cb + (e_lo - r.lo) * dsub;
    const float* res = scratch_.residual.data() + s * dsub;
    float* out = scratch_.lut_f32.data() + e_lo;
    const std::size_t n = e_hi - e_lo;
    float run_max;
#if defined(__SSE2__)
    if (simd == common::SimdLevel::kAvx2) {
      run_max = lut_run_dsub8_avx2(run_cb, res, scales[s], out, n);
    } else if (simd == common::SimdLevel::kSse2) {
      run_max = lut_run_dsub8_sse2(run_cb, res, scales[s], out, n);
    } else
#endif
    {
      run_max = lut_run_scalar(run_cb, res, scales[s], out, n, dsub);
    }
    local_max = std::max(local_max, run_max);
  }
  ctx.instr((r.hi - r.lo) * (dsub * kInstrLutPerDim + kInstrLutPerEntry));
  scratch_.tasklet_max[ctx.id()] = local_max;
}

void QueryKernel::phase_lut_reduce(pim::TaskletCtx& ctx) {
  if (ctx.id() != 0) return;
  float mx = 0.f;
  for (float v : scratch_.tasklet_max) mx = std::max(mx, v);
  lut_scale_ = mx > 0.f ? mx / 65000.f : 1.f;
  ctx.instr(scratch_.tasklet_max.size() + 6);
}

void QueryKernel::phase_lut_quantize(pim::TaskletCtx& ctx) {
  // Compact f32 -> u16 in place (front-to-back is safe); each tasklet takes
  // a contiguous slice. The widened token_table mirror is a host-side
  // convenience for the branchless distance scan — the modeled DPU reads
  // the u16 LUT via direct addressing, so no extra instructions are charged.
  const std::size_t total = scratch_.lut_f32.size();
  const std::size_t per = (total + ctx.n_tasklets() - 1) / ctx.n_tasklets();
  const std::size_t lo = ctx.id() * per;
  const std::size_t hi = std::min(total, lo + per);
  const float inv = 1.f / lut_scale_;
  const float* lut_f32 = scratch_.lut_f32.data();
  std::uint16_t* lut_u16 = scratch_.lut_u16.data();
  std::uint32_t* tokens = scratch_.token_table.data();
  for (std::size_t i = lo; i < hi; ++i) {
    const float q = common::round_nonneg(std::min(65535.f, lut_f32[i] * inv));
    lut_u16[i] = static_cast<std::uint16_t>(q);
    tokens[i] = static_cast<std::uint32_t>(lut_u16[i]);
  }
  if (hi > lo) ctx.instr((hi - lo) * kInstrQuantPerEntry);
}

void QueryKernel::phase_combo_sums(const Phase& p, pim::TaskletCtx& ctx) {
  const DpuClusterData& cl = cluster_of(p.item);
  const std::size_t n = cl.n_combos;
  const std::size_t per = (n + ctx.n_tasklets() - 1) / ctx.n_tasklets();
  const std::size_t lo = ctx.id() * per;
  const std::size_t hi = std::min(n, lo + per);
  if (lo >= hi) return;

  // The table half of token_table holds the query's u16 entries widened,
  // so each slot is the exact u32 sum of its three entries.
  const std::size_t lut_span = layout_.m * 256;
  std::uint32_t* table = scratch_.token_table.data();
  const std::uint8_t* defs =
      ctx.mram_view(cl.combos_off + lo * 4, (hi - lo) * 4);
  for (std::size_t s = lo; s < hi; ++s) {
    const std::uint8_t* d = defs + (s - lo) * 4;
    const std::size_t pos = d[0];
    table[lut_span + s] = table[pos * 256 + d[1]] +
                          table[(pos + 1) * 256 + d[2]] +
                          table[(pos + 2) * 256 + d[3]];
  }
  ctx.instr((hi - lo) * kInstrComboPerSlot);
}

namespace {

#if defined(__SSE2__)
/// AVX2 token scan: 8 u16 tokens widen to u32 lanes and gather their table
/// entries. u32 addition wraps mod 2^32 in any order, so the lane-parallel
/// sum is exactly the scalar loop's value — the serve path stays
/// byte-identical across SIMD levels.
__attribute__((target("avx2"))) std::uint32_t token_sum_avx2(
    const std::uint32_t* table, const std::uint16_t* toks, std::size_t len) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t t = 0;
  for (; t + 8 <= len; t += 8) {
    const __m128i t16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(toks + t));
    const __m256i idx = _mm256_cvtepu16_epi32(t16);
    acc = _mm256_add_epi32(acc, _mm256_i32gather_epi32(
                                    reinterpret_cast<const int*>(table), idx, 4));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
  std::uint32_t sum = static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
  for (; t < len; ++t) sum += table[toks[t]];
  return sum;
}

/// AVX2 raw-code scan: indices are pos*256 + code[pos] into the widened
/// token table, whose first m*256 entries mirror the u16 LUT exactly.
__attribute__((target("avx2"))) std::uint32_t raw_sum_avx2(
    const std::uint32_t* table, const std::uint8_t* code, std::size_t m) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i lane_off =
      _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
  std::size_t pos = 0;
  for (; pos + 8 <= m; pos += 8) {
    const __m128i c8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(code + pos));
    const __m256i idx = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_cvtepu8_epi32(c8), lane_off),
        _mm256_set1_epi32(static_cast<int>(pos * 256)));
    acc = _mm256_add_epi32(acc, _mm256_i32gather_epi32(
                                    reinterpret_cast<const int*>(table), idx, 4));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
  std::uint32_t sum = static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
  for (; pos < m; ++pos) sum += table[pos * 256 + code[pos]];
  return sum;
}
#endif  // __SSE2__

}  // namespace

void QueryKernel::phase_distance(const Phase& p, pim::TaskletCtx& ctx) {
  const DpuClusterData& cl = cluster_of(p.item);
  const std::size_t m = layout_.m;
  const std::size_t k = input_->k;
  const bool raw = mode_ == KernelMode::kNaiveRaw;
  const std::size_t elem_size = raw ? 1 : 2;
  const std::size_t read_bytes = input_->mram_read_bytes > 0
                                     ? pim::DpuCostModel::legalize_transfer(
                                           input_->mram_read_bytes)
                                     : hw::kMramMaxTransfer;
  const std::uint64_t push_cost = heap_push_cost(k);
  KeyHeap& heap = local_heaps_[ctx.id()];
  // Tombstone masking is hoisted per cluster: fully live clusters (the
  // read-only serving case) take the exact pre-mutability path — no extra
  // branch, no extra instruction charge.
  const bool masked = cl.n_tombstones != 0;

  // Mode-correct chunk working set: raw mode streams m u8 codes per record;
  // token mode adds the record header. This is the per-tasklet WRAM buffer
  // the cost model charges — it must agree with setup()'s budget.
  const std::size_t chunk_capacity_bytes =
      kChunkRecords * (m + (raw ? 0 : kRecordHeaderElems)) * elem_size;
  assert((chunk_capacity_bytes + kChunkRecords * sizeof(std::uint32_t) + 7) /
             8 * 8 ==
         per_tasklet_buf_bytes_);

  const std::uint32_t* chunk_index = nullptr;
  if (!raw && cl.n_chunks > 0) {
    // Chunk-index accounting: each tasklet is charged one DMA for the slice
    // of offsets it owns — there is no separate tasklet-0 staging pass (the
    // seed double-charged here: a 4-instruction stage on tasklet 0 *and* the
    // per-tasklet slice DMA). The borrowed view spans the whole table
    // because strided chunk starts read beyond the slice functionally.
    // test_hot_path.cpp pins the charged dma_cycles. See DESIGN.md §9.
    const std::size_t own =
        (cl.n_chunks + ctx.n_tasklets() - 1) / ctx.n_tasklets();
    const std::size_t own_bytes =
        std::min<std::size_t>(own * sizeof(std::uint32_t),
                              cl.n_chunks * sizeof(std::uint32_t));
    chunk_index = reinterpret_cast<const std::uint32_t*>(
        ctx.mram_view(cl.chunk_index_off, own_bytes));
  }

  // Hoisted table pointer: ctx.instr / heap pushes store through other
  // members, so without a local the compiler must conservatively reload the
  // vector data pointer on every token.
  const std::uint32_t* token_table = scratch_.token_table.data();
  const float dist_scale = lut_scale_;
  // The pair's key seed; u32 arithmetic wraps like the DPU's 32-bit adds,
  // and the sum reads back as the signed key.
  const std::uint32_t pair_key =
      static_cast<std::uint32_t>(input_->items[p.item].pair_key);
#if defined(__SSE2__)
  const bool use_avx2 =
      common::simd_active_level() == common::SimdLevel::kAvx2;
#endif

  std::uint64_t scanned_elems = 0;
  std::uint64_t scanned_recs = 0;
  for (std::uint32_t ci = ctx.id(); ci * kChunkRecords < cl.n_records;
       ci += ctx.n_tasklets()) {
    const std::size_t rec_lo = static_cast<std::size_t>(ci) * kChunkRecords;
    const std::size_t rec_hi =
        std::min<std::size_t>(cl.n_records, rec_lo + kChunkRecords);
    const std::size_t n_rec = rec_hi - rec_lo;

    // Ids for this chunk: one DMA, borrowed in place.
    const std::uint32_t* ids = reinterpret_cast<const std::uint32_t*>(
        ctx.mram_view(cl.ids_off + rec_lo * sizeof(std::uint32_t),
                      n_rec * sizeof(std::uint32_t)));

    // Stream span of this chunk.
    std::size_t elem_lo, elem_hi;
    if (raw) {
      elem_lo = rec_lo * m;
      elem_hi = rec_hi * m;
    } else {
      elem_lo = chunk_index[ci];
      elem_hi = (static_cast<std::size_t>(ci) + 1 < cl.n_chunks)
                    ? chunk_index[ci + 1]
                    : cl.stream_len;
    }
    const std::size_t span_bytes = (elem_hi - elem_lo) * elem_size;
    assert(span_bytes <= chunk_capacity_bytes);
    // View the span at the configured read granularity (fig 17's knob):
    // smaller reads => more DMA setups => higher latency. The pieces are
    // contiguous in MRAM, so the first view covers the whole span.
    const std::uint8_t* chunk_stream = nullptr;
    {
      std::size_t done = 0;
      while (done < span_bytes) {
        const std::size_t piece = std::min(read_bytes, span_bytes - done);
        const std::uint8_t* piece_view =
            ctx.mram_view(cl.stream_off + elem_lo * elem_size + done, piece);
        if (done == 0) chunk_stream = piece_view;
        done += piece;
      }
    }

    // Scan records. Instruction charges accumulate in locals and are
    // flushed once per chunk — the charge is an additive sum, so the phase
    // totals are identical to the per-record flushes of the original loop.
    const std::uint16_t* tokens =
        reinterpret_cast<const std::uint16_t*>(chunk_stream);
    std::size_t chunk_elems = 0;
    std::uint64_t chunk_pushes = 0;
    std::size_t cursor = 0;  // element cursor within the chunk span
    for (std::size_t r = 0; r < n_rec; ++r) {
      std::int32_t key;
      if (raw) {
        const std::uint8_t* code = chunk_stream + r * m;
        std::uint32_t acc = 0;
#if defined(__SSE2__)
        if (use_avx2) {
          acc = raw_sum_avx2(token_table, code, m);
        } else
#endif
        {
          for (std::size_t pos = 0; pos < m; ++pos) {
            acc += token_table[pos * 256 + code[pos]];
          }
        }
        const float dist = static_cast<float>(acc) * dist_scale;
        std::memcpy(&key, &dist, sizeof(key));
        chunk_elems += m;
      } else {
        // Header [len][n_r low][n_r high], then one unconditional load per
        // token: base tokens and combo tokens land in adjacent halves of
        // token_table, exactly like the direct WRAM addresses they model —
        // no per-token range branch.
        const std::uint16_t len = tokens[cursor];
        std::uint32_t acc =
            pair_key + (static_cast<std::uint32_t>(tokens[cursor + 1]) |
                        static_cast<std::uint32_t>(tokens[cursor + 2]) << 16);
        cursor += kRecordHeaderElems;
#if defined(__SSE2__)
        if (use_avx2) {
          acc += token_sum_avx2(token_table, tokens + cursor, len);
        } else
#endif
        {
          for (std::uint16_t t = 0; t < len; ++t) {
            acc += token_table[tokens[cursor + t]];
          }
        }
        key = static_cast<std::int32_t>(acc);
        cursor += len;
        chunk_elems += len;
      }
      // Tombstoned slots still stream (their tokens are in the chunk) but
      // never enter a heap: on hardware this is a compare-and-select on the
      // id, charged once per record only when the cluster has tombstones.
      const std::uint32_t id = ids[r];
      if (!masked || id != kTombstoneId) {
        if (heap.push({key, id})) ++chunk_pushes;
      }
    }
    ctx.instr(chunk_elems * (raw ? kInstrRawScan : kInstrTokenScan) +
              n_rec * (kInstrRecordOverhead +
                       (masked ? kInstrTombstoneMask : 0)) +
              chunk_pushes * push_cost);
    scanned_elems += chunk_elems;
    scanned_recs += n_rec;
  }
  // Shared counters: tasklets run sequentially in the simulator, so plain
  // accumulation is deterministic.
  scanned_elements_ += scanned_elems;
  scanned_records_ += scanned_recs;
}

void QueryKernel::phase_merge(const Phase& p, pim::TaskletCtx& ctx) {
  const std::size_t k = input_->k;
  const std::uint64_t push_cost = heap_push_cost(k);

  // Convert this tasklet's max-heap to ascending (min-first) order — the
  // paper's min-heap trick that enables pruning — then feed the DPU heap
  // under the semaphore. The extraction reuses the arena's sorted buffer.
  KeyHeap& heap = local_heaps_[ctx.id()];
  const std::size_t n = heap.size();
  if (n > scratch_.sorted.capacity()) detail::note_hot_path_allocation();
  heap.take_sorted_into(scratch_.sorted);
  const std::vector<KeyedNeighbor>& sorted = scratch_.sorted;
  if (n > 1) {
    std::uint64_t lg = 1;
    while ((1ull << lg) < n) ++lg;
    ctx.instr(2 * n * lg);  // heapsort into min order
  }
  // Without pruning (PIM-naive), every local element enters the critical
  // section with full insert-call overhead — sem_take, call, root compare,
  // sem_give — whether or not it survives. The pruned path checks the
  // threshold first (2 ops) and, thanks to the min-first order, abandons the
  // whole remainder of the heap at the first failure; this is the "68% of
  // redundant comparisons" Opt4 skips.
  constexpr std::uint64_t kNaiveInsertOverhead = 8;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (prune_topk_) {
      ctx.critical_instr(2);  // sem_take + threshold compare
      if (global_heap_.full() && !(sorted[i] < global_heap_.worst())) {
        // `sorted` is ascending in the same total order the heap rejects
        // by, so everything after the first failing entry prunes wholesale.
        merge_pruned_ += sorted.size() - i;
        break;
      }
    } else {
      ctx.critical_instr(kNaiveInsertOverhead);
    }
    if (global_heap_.push(sorted[i])) {
      ctx.critical_instr(push_cost);
    }
    ++merge_insertions_;
  }

  // The last tasklet (runs last in the simulator's deterministic order)
  // flushes the aggregated top-k keys to MRAM for the host to gather: the
  // host converts UpANNS keys to U * key (the DPU has no FPU), kNaiveRaw
  // keys are already float bits.
  if (ctx.id() + 1 == ctx.n_tasklets()) {
    if (global_heap_.size() > scratch_.result.capacity()) {
      detail::note_hot_path_allocation();
    }
    global_heap_.take_sorted_into(scratch_.result);
    KernelScratch::assign(scratch_.packed, 2 * k, 0xFFFFFFFFu);
    for (std::size_t i = 0; i < scratch_.result.size(); ++i) {
      scratch_.packed[2 * i] =
          static_cast<std::uint32_t>(scratch_.result[i].key);
      scratch_.packed[2 * i + 1] = scratch_.result[i].id;
    }
    const std::size_t slot =
        input_->results_off +
        static_cast<std::size_t>(input_->items[p.item].query_local) * k * 8;
    ctx.mram_write(slot, scratch_.packed.data(),
                   scratch_.packed.size() * sizeof(std::uint32_t));
    ctx.instr(2 * k);
    for (auto& h : local_heaps_) h.clear();
  }
}

KernelStageCycles QueryKernel::attribute_stages(
    const std::vector<std::uint64_t>& phase_cycles) const {
  KernelStageCycles out;
  assert(phase_cycles.size() == program_.size());
  for (std::size_t i = 0; i < program_.size(); ++i) {
    switch (program_[i].step) {
      case Step::kQueryTable:
        out.lut_build += phase_cycles[i];
        out.per_query += phase_cycles[i];
        break;
      case Step::kLutBuild:
      case Step::kLutReduce:
      case Step::kLutQuantize:
      case Step::kComboSums:
        out.lut_build += phase_cycles[i];
        break;
      case Step::kDistance:
        out.distance += phase_cycles[i];
        break;
      case Step::kMerge:
        out.topk += phase_cycles[i];
        out.per_query += phase_cycles[i];
        break;
    }
  }
  return out;
}

}  // namespace upanns::core
