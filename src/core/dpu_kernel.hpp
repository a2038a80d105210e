// The UpANNS per-DPU query kernel (paper Fig 6) — Opt2 and Opt4 live here.
//
// The UpANNS modes (kDirectTokens, kCae) score records with integer keys on
// one fixed-point unit U (DESIGN.md §6): the host quantizes each query's
// table once per batch, the engine stores each record's norm term n_r in its
// stream header at load, and a (query, cluster) pair only adds its K_pair.
// Barrier-separated stages on up to 24 tasklets:
//   S0  per query, at its first assignment: the tasklets split the DMA of
//       the query's u16 table (m*256 entries, host-mirrored) into the WRAM
//       LUT region in 8-entry blocks                    [Barrier 1]
//   S3  per assignment (kCae): co-occurrence partial sums — exact u32 sums
//       of three table entries — into the WRAM cache    [Barrier 2]
//   S4  per assignment: tasklets stream encoded-record chunks from MRAM;
//       a record's key starts at K_pair + n_r and adds one table entry per
//       token; thread-local bounded max-heaps keep the k smallest keys
//                                                       [Barrier 3]
//   S5  per query, after its last assignment: pruned merge of the
//       thread-local heaps into the DPU top-k heap, then the k (key, id)
//       results go to MRAM; the host converts a gathered key to the
//       distance U * key                                [Barrier 0]
//
// kNaiveRaw is the paper's PIM-naive baseline and keeps the per-pair LUT:
//   S0  float LUT |r_s - y_sj|^2 from the int8 codebook (tasklets split the
//       m*256 entries in 8-entry blocks), S1 scale reduction (tasklet 0),
//   S2  quantization to u16, then S4/S5 as above with the key being the
//       float distance's bit pattern (non-negative floats order like their
//       bits), over raw u8 codes with per-element address arithmetic.
// WRAM reuse (paper 4.2.2): the codebook is kNaiveRaw's *last* fixed
// allocation; before S4 the kernel rewinds the WRAM allocator to its mark
// and reuses that space for the per-tasklet MRAM read buffers. The UpANNS
// modes hold only the u16 table and the combo cache, so their read buffers
// follow the table directly. The allocator throws if a configuration would
// not fit real WRAM.
//
// The kernel runs in three modes:
//   kNaiveRaw     - PIM-naive: raw u8 PQ codes, per-element address
//                   arithmetic, unpruned top-k merge, codebook S0-S2.
//   kDirectTokens - UpANNS without CAE: u16 direct-address tokens.
//   kCae          - full UpANNS: CAE token streams + partial-sum cache.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/topk.hpp"
#include "core/cae.hpp"
#include "pim/dpu.hpp"

namespace upanns::core {

enum class KernelMode { kNaiveRaw, kDirectTokens, kCae };

/// Records per chunk of the streamed encoded-point data; each chunk carries
/// a token-offset entry in the chunk index so tasklets can start mid-stream.
inline constexpr std::size_t kChunkRecords = 16;

/// u16 elements of a record's header in the UpANNS token stream: the token
/// count, then the record's norm term n_r as a u32 (low half first).
inline constexpr std::size_t kRecordHeaderElems = 3;

/// Id sentinel marking a tombstoned slot in a cluster's MRAM id array. The
/// distance scan drops matching records with a branchless select; real ids
/// never collide with it (the result packer already reserves 0xFFFFFFFF for
/// "no neighbor").
inline constexpr std::uint32_t kTombstoneId = 0xFFFFFFFFu;

/// MRAM layout of one resident cluster replica (built by the engine).
/// The *_cap fields record the bytes reserved at each offset — the engine
/// over-allocates by UpAnnsOptions::mram_list_slack so a list that grows a
/// little patches in place instead of relocating.
struct DpuClusterData {
  std::uint32_t cluster_id = 0;
  std::uint32_t n_records = 0;
  std::uint32_t n_tombstones = 0; ///< sentinel slots in the id array
  std::size_t ids_off = 0;        ///< u32 x n_records
  std::size_t ids_cap = 0;        ///< bytes reserved at ids_off
  std::size_t stream_off = 0;     ///< u16 records (or u8 codes in kNaiveRaw)
  std::size_t stream_len = 0;     ///< element count (u16s, or bytes if raw)
  std::size_t stream_cap = 0;     ///< bytes reserved at stream_off
  std::size_t chunk_index_off = 0;///< u32 element offsets, one per chunk
  std::uint32_t n_chunks = 0;
  std::size_t chunk_cap = 0;      ///< bytes reserved at chunk_index_off
  std::size_t combos_off = 0;     ///< packed CaeCombo (4B each)
  std::uint32_t n_combos = 0;
  std::size_t combos_cap = 0;     ///< bytes reserved at combos_off
  std::size_t centroid_off = 0;   ///< float x dim (kNaiveRaw only)
};

/// Static per-DPU layout shared by all launches.
struct DpuStaticLayout {
  std::size_t dim = 0;
  std::size_t m = 0;
  std::size_t dsub = 0;
  std::size_t codebook_off = 0;   ///< int8, m x 256 x dsub (kNaiveRaw only)
  std::size_t cb_scale_off = 0;   ///< float x m, dequant scales (kNaiveRaw)
  double unit = 1.0;              ///< key unit U (UpANNS modes, KeyCodec)
  std::vector<DpuClusterData> clusters;  ///< resident replicas (slot order)
};

/// The dequantized int8 PQ codebook y_sj = scale_s * int8_sj — the exact
/// floats the kNaiveRaw S0 forms per dimension. Stored transposed as
/// [s][d][j] so the table builders run 256 independent chains per subspace;
/// every entry keeps a fixed per-dimension operation order, so tables are
/// identical whatever the host's vector width.
class LutCodebook {
 public:
  LutCodebook() = default;
  /// `codes` is m x 256 x dsub int8, `scales` m floats.
  LutCodebook(const std::int8_t* codes, const float* scales, std::size_t m,
              std::size_t dsub);

  std::size_t m() const { return m_; }
  std::size_t dsub() const { return dsub_; }
  /// Entries of one table: m * 256.
  std::size_t table_size() const { return m_ * 256; }

  /// Query table: out[s*256 + j] = -2 <q_s, y_sj>.
  void query_table(const float* query, float* out) const;
  /// Cluster table: out[s*256 + j] = |y_sj|^2 + 2 <c_s, y_sj>.
  void cluster_table(const float* centroid, float* out) const;

 private:
  std::size_t m_ = 0;
  std::size_t dsub_ = 0;
  std::vector<float> yt_;  ///< m x dsub x 256
};

/// The fixed-point distance keys of the UpANNS modes (DESIGN.md §6). With
/// mu the mean coarse centroid,
///   |q - c - y|^2 = |q - c|^2 + sum_s B_s[code_s] + N_r,
/// B = query_table(q - mu) depending only on the query and
/// N_r = sum_s C'_s[code_s], C' = cluster_table(c - mu), only on the record.
/// Each term is rounded to one unit U, so a DPU scores a record as
///   key = K_pair + sum_s table[token] + n_r,   distance ~ U * key.
/// mu and U derive from the frozen quantizers alone (U = max_s
/// 4 R_s Y_s / 65535 with R_s the largest |c_s + y_sj - mu_s| over every
/// centroid and codeword, Y_s the largest |y_sj|), so list mutations never
/// move them and a patched image stays byte-equal to a fresh load.
class KeyCodec {
 public:
  KeyCodec() = default;
  /// `centroids` is n_clusters x dim, row-major.
  KeyCodec(LutCodebook codebook, const float* centroids,
           std::size_t n_clusters, std::size_t dim);

  double unit() const { return unit_; }
  std::size_t table_size() const { return codebook_.table_size(); }

  /// One query's pushed table: out[s*256 + j] = round((B_s[j] -
  /// min_j B_s[j]) / U), saturated at 65535. Returns the offset
  /// o_q = sum_s min_j B_s[j] the host keeps; `saturated` counts the
  /// entries that hit the cap. Thread-safe.
  double query_table(const float* query, std::uint16_t* out,
                     std::size_t& saturated) const;

  /// Norm terms of `n` records of cluster `c` (codes n x m), appended to
  /// `out`: n_r = round(N_r / U) - nu_c, where nu_c = round(min N / U) is
  /// the cluster's norm offset, so every n_r is non-negative.
  void record_norms(std::size_t c, const float* centroid,
                    const std::uint8_t* codes, std::size_t n,
                    std::vector<std::uint32_t>& out) const;

  /// The pair term a push carries with an assignment: round((|q - c|^2 +
  /// o_q) / U) + nu_c, clamped to +-2^30. Folding o_q here leaves one
  /// multiply per gathered result (the host's U * key).
  std::int32_t pair_key(float coarse_dist, double query_offset,
                        std::size_t c) const;

 private:
  /// C' = cluster_table(centroid - mu) into `table`, `scratch` dim floats.
  void centred_cluster_table(const float* centroid, float* scratch,
                             float* table) const;
  std::int64_t to_units(double v) const;

  LutCodebook codebook_;
  std::size_t dim_ = 0;
  std::vector<float> centre_;             ///< mu, dim floats
  std::vector<std::int32_t> norm_offsets_;  ///< nu_c per cluster
  double unit_ = 1.0;
};

/// The distance U * key of a gathered UpANNS key, formed on the host
/// (GatherStage): the DPU has no FPU, so S5 ships the raw keys.
inline float key_distance(std::int32_t key, double unit) {
  return static_cast<float>(unit * static_cast<double>(key));
}

/// The UpANNS record stream of an encoded cluster: every [len][tokens]
/// record of `enc` with its norm term spliced into the header
/// (kRecordHeaderElems u16s), plus the chunk index (element offset of every
/// kChunkRecords-th record). `norms` holds one entry per record.
void build_record_stream(const CaeClusterEncoding& enc,
                         const std::vector<std::uint32_t>& norms,
                         std::vector<std::uint16_t>& stream,
                         std::vector<std::uint32_t>& chunk_index);

/// Bytes of one pushed query row: the u16 query table in UpANNS modes, the
/// float query vector in kNaiveRaw.
inline std::size_t query_row_bytes(const DpuStaticLayout& layout,
                                   KernelMode mode) {
  return mode == KernelMode::kNaiveRaw
             ? layout.dim * sizeof(float)
             : layout.m * 256 * sizeof(std::uint16_t);
}

/// Per-launch inputs, already pushed to the DPU by the host. Local query i's
/// row (query_row_bytes) is row i of the DPU's host-mirrored batch region:
/// every DPU a query is pushed to holds an identical copy, so the simulator
/// keeps one per batch row on the host (Dpu::mram_mirror).
struct DpuLaunchInput {
  /// Local query id -> batch row, in first-assignment order (the one query
  /// map: the push, the mirror and the gather all read it).
  std::vector<std::uint32_t> query_rows;
  std::size_t results_off = 0;    ///< k x (u32 dist, u32 id) per query
  std::size_t k = 10;
  std::size_t mram_read_bytes = 0;///< DMA granularity for the stream (fig 17)
  /// Assignments in query-grouped order: (local query idx, cluster slot),
  /// plus the pair's K_pair in UpANNS modes (KeyCodec::pair_key).
  struct Item {
    std::uint32_t query_local;
    std::uint32_t cluster_slot;
    std::int32_t pair_key = 0;
  };
  std::vector<Item> items;
};

/// Stage attribution of the kernel's phases, resolved after the run.
struct KernelStageCycles {
  std::uint64_t lut_build = 0;    ///< S0-S3 (paper folds partial sums here)
  std::uint64_t distance = 0;     ///< S4
  std::uint64_t topk = 0;         ///< S5
  /// The phases a DPU runs once per query it serves, within lut_build and
  /// topk: S5's merge, and in the UpANNS modes S0's table load.
  std::uint64_t per_query = 0;
};

/// A scanned record's candidate on the DPU: an integer key (UpANNS modes)
/// or a non-negative float distance's bit pattern (kNaiveRaw), which order
/// the same way, tie-broken on id.
struct KeyedNeighbor {
  std::int32_t key;
  std::uint32_t id;

  friend bool operator<(const KeyedNeighbor& a, const KeyedNeighbor& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }
};
using KeyHeap = common::BasicBoundedMaxHeap<KeyedNeighbor>;

/// Monotonic count of hot-path buffer growth events (scratch-arena capacity
/// growth, kernel/heap construction). After a warm-up batch the serving hot
/// path must not grow any arena, which the allocation-behavior tier-1 test
/// pins by sampling this counter across batches.
std::uint64_t hot_path_allocations();

namespace detail {
/// Bump hot_path_allocations(). Called whenever a hot-path buffer grows.
void note_hot_path_allocation();
}  // namespace detail

/// Reusable per-kernel scratch arena: the functional mirrors of WRAM state
/// plus the merge-stage extraction buffers. Everything is assigned (never
/// reconstructed) so capacity persists across phases, tasklets and launches;
/// capacity growth bumps hot_path_allocations(). Tasklets of one DPU run
/// sequentially in the simulator, so one arena per kernel suffices.
struct KernelScratch {
  std::vector<float> lut_f32;          ///< kNaiveRaw S0 output
  std::vector<float> tasklet_max;      ///< per-tasklet LUT max (S1 input)
  std::vector<std::uint16_t> lut_u16;  ///< kNaiveRaw S2 output
  /// Unified token table: the widened u16 table followed by combo sums, so
  /// the distance scan resolves any token with one unconditional load — the
  /// functional twin of the DPU's direct-address tokens (no branch on real
  /// hardware either).
  std::vector<std::uint32_t> token_table;
  std::vector<float> residual;           ///< kNaiveRaw S0
  std::vector<KeyedNeighbor> sorted;     ///< per-tasklet sorted extract (S5)
  std::vector<KeyedNeighbor> result;     ///< DPU-global sorted top-k (S5)
  std::vector<std::uint32_t> packed;     ///< MRAM result image (S5)

  /// assign() that records capacity growth in hot_path_allocations().
  template <typename T>
  static void assign(std::vector<T>& v, std::size_t n, const T& fill) {
    if (n > v.capacity()) detail::note_hot_path_allocation();
    v.assign(n, fill);
  }
};

class QueryKernel final : public pim::DpuKernel {
 public:
  QueryKernel(const DpuStaticLayout& layout, const DpuLaunchInput& input,
              KernelMode mode, bool prune_topk);

  /// Rebind to a new launch input and rebuild the phase program in place.
  /// Mode, pruning and the static layout are fixed for the kernel's
  /// lifetime; every scratch buffer keeps its capacity, which is what makes
  /// per-batch kernel reuse (LaunchStage pool) allocation-free once warm.
  void rebind(const DpuLaunchInput& input);

  void setup(pim::Dpu& dpu, unsigned n_tasklets) override;
  unsigned n_phases() const override;
  void run_phase(unsigned phase, pim::TaskletCtx& ctx) override;

  /// Map phase cycles (from DpuRunStats) onto pipeline stages.
  KernelStageCycles attribute_stages(
      const std::vector<std::uint64_t>& phase_cycles) const;

  /// Aggregate comparison-pruning statistics (Fig 15's mechanism).
  std::uint64_t merge_insertions() const { return merge_insertions_; }
  std::uint64_t merge_pruned() const { return merge_pruned_; }
  /// Aggregate scanned stream elements (CAE length-reduction visibility).
  std::uint64_t scanned_elements() const { return scanned_elements_; }
  std::uint64_t scanned_records() const { return scanned_records_; }

  /// WRAM mirrors, LUT scale and the last query's sorted keys as the last
  /// launch left them (tests compare them against references).
  const KernelScratch& scratch() const { return scratch_; }
  float lut_scale() const { return lut_scale_; }

 private:
  enum class Step : std::uint8_t {
    kQueryTable, kLutBuild, kLutReduce, kLutQuantize, kComboSums, kDistance,
    kMerge
  };
  struct Phase {
    Step step;
    std::uint32_t item;   ///< assignment index (kMerge: last item of query)
  };

  void phase_query_table(const Phase& p, pim::TaskletCtx& ctx);
  void phase_lut_build(const Phase& p, pim::TaskletCtx& ctx);
  void phase_lut_reduce(pim::TaskletCtx& ctx);
  void phase_lut_quantize(pim::TaskletCtx& ctx);
  void phase_combo_sums(const Phase& p, pim::TaskletCtx& ctx);
  void phase_distance(const Phase& p, pim::TaskletCtx& ctx);
  void phase_merge(const Phase& p, pim::TaskletCtx& ctx);

  const DpuClusterData& cluster_of(std::uint32_t item) const {
    return layout_.clusters[input_->items[item].cluster_slot];
  }

  const DpuStaticLayout& layout_;
  const DpuLaunchInput* input_;  ///< rebindable per batch (see rebind())
  KernelMode mode_;
  bool prune_topk_;
  pim::Dpu* dpu_ = nullptr;

  std::vector<Phase> program_;

  // --- WRAM-resident state (offsets into the DPU's WRAM arena).
  std::size_t query_row_bytes_ = 0;   ///< one mirrored query row
  std::size_t per_tasklet_buf_bytes_ = 0;

  // Functional state mirroring WRAM contents lives in the scratch arena;
  // heaps are modeled functionally but their WRAM footprint is charged in
  // setup(). All of it keeps capacity across launches.
  KernelScratch scratch_;
  float lut_scale_ = 1.f;
  std::vector<KeyHeap> local_heaps_;
  KeyHeap global_heap_;

  std::uint64_t merge_insertions_ = 0;
  std::uint64_t merge_pruned_ = 0;
  std::uint64_t scanned_elements_ = 0;
  std::uint64_t scanned_records_ = 0;
};

}  // namespace upanns::core
