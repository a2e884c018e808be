#include "core/heavy_product.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/trace.h"
#include "matrix/bit_rows.h"
#include "matrix/dense_matrix.h"
#include "matrix/row_compact.h"

namespace jpmm {
namespace {

// Process-wide heavy-product metrics (the registry returns the same
// instruments to every caller). Cached once: Get* takes a lock.
struct HeavyMetrics {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& kernel_dense = reg.GetCounter("jpmm_join_kernel_dense_blocks_total");
  Counter& kernel_csr_dense =
      reg.GetCounter("jpmm_join_kernel_csr_dense_blocks_total");
  Counter& kernel_csr_csr =
      reg.GetCounter("jpmm_join_kernel_csr_csr_blocks_total");
  Counter& partition_engaged = reg.GetCounter("jpmm_partition_engaged_total");
  Counter& partition_pruned =
      reg.GetCounter("jpmm_partition_blocks_pruned_total");
  Counter& grid_cache_hits =
      reg.GetCounter("jpmm_partition_grid_cache_hits_total");
  Counter& blocks_executed =
      reg.GetCounter("jpmm_join_heavy_blocks_executed_total");
  Counter& blocks_skipped =
      reg.GetCounter("jpmm_join_heavy_blocks_skipped_total");
  Counter& operand_cache_hits =
      reg.GetCounter("jpmm_heavy_operand_cache_hits_total");
  Counter& operand_bytes =
      reg.GetCounter("jpmm_join_heavy_operand_bytes_total");
  static HeavyMetrics& Get() {
    static HeavyMetrics m;
    return m;
  }
};

// Light-part metrics of one unit kind. Each kind registers its counters on
// its first run, so a process exports only the kinds it ran.
struct LightMetrics {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& executed;
  Counter& skipped;
  Histogram& light_ms =
      reg.GetHistogram("jpmm_join_light_pass_ms", DefaultLatencyBoundsMs());
  Histogram& heavy_ms =
      reg.GetHistogram("jpmm_join_heavy_pass_ms", DefaultLatencyBoundsMs());

  LightMetrics(const char* executed_name, const char* skipped_name)
      : executed(reg.GetCounter(executed_name)),
        skipped(reg.GetCounter(skipped_name)) {}

  static LightMetrics& Get(LightUnit unit) {
    if (unit == LightUnit::kStarSteps) {
      static LightMetrics steps("jpmm_star_light_steps_executed_total",
                                "jpmm_star_light_steps_skipped_total");
      return steps;
    }
    static LightMetrics chunks("jpmm_join_light_chunks_executed_total",
                               "jpmm_join_light_chunks_skipped_total");
    return chunks;
  }
};

uint64_t ChunkCount(uint64_t rows, size_t row_block) {
  return (rows + row_block - 1) / row_block;
}

// Index i of the band [bands[i], bands[i + 1]) that holds offset `at`.
size_t BandOf(const std::vector<uint32_t>& bands, uint64_t at) {
  return static_cast<size_t>(
             std::upper_bound(bands.begin(), bands.end(), at) -
             bands.begin()) -
         1;
}

// Per-worker kernel scratch, reused across chunks; a cache line of its own.
struct alignas(64) Scratch {
  std::vector<float> block;  // float kernels' output rows
  CsrScratch csr;            // CSR x CSR stamp counter
  SparseRowBlock sparse;     // CSR x CSR output rows
  // Rows gathered across column bands: (col, count) runs per chunk row.
  std::vector<std::vector<uint32_t>> gather_cols;
  std::vector<std::vector<uint32_t>> gather_counts;
};

// Where one kernel call left its output: the kernel, the window's width
// and how its local columns map to B's (HeavyRow::col_ids / col_base).
struct BlockOut {
  ProductKernel kernel = ProductKernel::kCsrCsr;
  size_t width = 0;
  const uint32_t* col_ids = nullptr;
  uint32_t col_base = 0;
};

// Row li of the last kernel's output in `ws`.
HeavyRow RowView(const Scratch& ws, const BlockOut& out, size_t li) {
  HeavyRow row;
  row.col_ids = out.col_ids;
  row.col_base = out.col_base;
  if (out.kernel == ProductKernel::kCsrCsr) {
    row.cols = ws.sparse.RowCols(li);
    row.counts = ws.sparse.RowCounts(li);
  } else {
    row.values = ws.block.data() + li * out.width;
    row.width = out.width;
  }
  return row;
}

// The first column of block `blk` that a symmetric chunk starting at
// shared position r0 computes, in the block's local numbering: r0 clamped
// to the block. CSR x CSR blocks keep the whole row (the caller drops the
// extra cells); a block wholly before the window returns its width.
size_t WindowStart(const BlockKernelChoice& blk, size_t r0) {
  const size_t width = blk.col_end - blk.col_begin;
  if (r0 >= blk.col_end) return width;
  if (blk.kernel == ProductKernel::kCsrCsr || r0 <= blk.col_begin) return 0;
  return r0 - blk.col_begin;
}

}  // namespace

size_t HeavyRow::Compact(size_t from, uint32_t* col_out,
                         uint32_t* count_out) const {
  if (values != nullptr) {
    return internal::SelectCompactRow(ActiveIsa())(
        values, from, width, col_base, col_ids, col_out, count_out);
  }
  return internal::CompactSparseRow(cols.data(), counts.data(), cols.size(),
                                    from, col_base, col_ids, col_out,
                                    count_out);
}

HeavyGates GateHeavyProduct(const HeavyShape& s, HeavyPathMode mode,
                            size_t row_block, int threads,
                            uint64_t max_bytes) {
  const uint64_t workers =
      std::min<uint64_t>(static_cast<uint64_t>(std::max(1, threads)),
                         std::max<uint64_t>(1, ChunkCount(s.rows, row_block)));
  const uint64_t csr = CsrBytes(s.rows, s.a_nnz) +
                       (s.same_operand ? 0 : CsrBytes(s.inner, s.b_nnz));
  // StampCounter (8 B/slot) + touched list (4 B/slot) per block worker.
  const uint64_t stamp = 12 * workers * s.cols;
  const uint64_t acc = 4 * workers * row_block * s.cols;
  const uint64_t b_dense = 4 * s.inner * s.cols;
  // The bit rows of A and of B^T, one set when B^T is A.
  const uint64_t bits = BitRowsBytes(s.rows, s.inner) +
                        (s.symmetric ? 0 : BitRowsBytes(s.cols, s.inner));
  // A kAuto plan may mix both float kernels, so the dense kernel's gate
  // counts every representation.
  const uint64_t all = csr + bits + b_dense + acc + stamp;
  const bool exact = s.inner < kMaxExactFloatCount;

  HeavyGates g;
  g.mode = exact || mode == HeavyPathMode::kAuto ? mode
                                                 : HeavyPathMode::kForceCsrCsr;
  switch (g.mode) {
    case HeavyPathMode::kForceDense:
      g.bytes = csr + bits + acc;
      break;
    case HeavyPathMode::kForceCsrDense:
      g.allow_dense = false;
      g.bytes = csr + b_dense + acc;
      break;
    case HeavyPathMode::kForceCsrCsr:
      g.allow_dense = false;
      g.allow_csr_dense = false;
      g.bytes = csr + stamp;
      break;
    case HeavyPathMode::kAuto:
      g.allow_dense = exact && all <= max_bytes;
      g.allow_csr_dense = exact && csr + b_dense + acc + stamp <= max_bytes;
      g.bytes = g.allow_dense       ? all
                : g.allow_csr_dense ? csr + b_dense + acc + stamp
                                    : csr + stamp;
      break;
  }
  return g;
}

struct PreparedProduct {
  PreparedProduct() = default;
  PreparedProduct(const PreparedProduct&) = delete;  // points into itself
  PreparedProduct& operator=(const PreparedProduct&) = delete;

  CsrMatrix own_a, own_b;  // the operands, when the product keeps them
  /// Every run's record before its chunk accounting: operand nnz, the
  /// decomposition, the block choices and the chunk total.
  HeavyRun plan;
  size_t row_block = 1;
  /// The density grid, or none for the uniform plan.
  std::optional<DensityGrid> grid;
  /// A symmetric product's (plan.symmetric) shared order on the grid is
  /// row_perm (col_perm, equal to it, is dropped); `position` is its
  /// inverse: original id -> position.
  std::vector<uint32_t> position;
  /// Row bands (the uniform plan's are its blocks) and column bands, and
  /// the scheduled (block index, column band) pairs of each row band.
  std::vector<uint32_t> row_bands;
  std::vector<uint32_t> col_bands;
  std::vector<std::vector<std::pair<size_t, size_t>>> band_blocks;
  /// The forms the kernels read: A in remapped row order (the operand
  /// itself on the uniform plan), B per column band, the dense B bands
  /// CSR x dense blocks read, and the bit rows of A and of the B^T bands
  /// dense blocks read. A symmetric product builds no B^T bands: B^T is A
  /// and the bands are row ranges of a_bits.
  const CsrMatrix* a_op = nullptr;
  CsrMatrix a_perm;
  std::vector<const CsrMatrix*> b_csr;
  std::vector<CsrMatrix> b_slice;
  std::vector<Matrix> b_dense;
  BitRows a_bits;
  std::vector<BitRows> bt_bits;
  uint64_t bytes = 0;  // resident bytes of everything above it holds
};

namespace {

uint64_t DenseBytes(const Matrix& m) {
  return 4 * static_cast<uint64_t>(m.rows()) * m.cols();
}

uint64_t OwnCsrBytes(const CsrMatrix& m) { return CsrBytes(m.rows(), m.nnz()); }

// Steps 1-3 into `out`, whose operands are a and b.
void Prepare(const CsrMatrix& a, const CsrMatrix& b, const HeavyProduct& p,
             PreparedProduct* out) {
  JPMM_CHECK(a.cols() == b.rows());
  JPMM_CHECK(p.row_block >= 1);
  PreparedProduct& pp = *out;
  const int threads = std::max(1, p.threads);
  const size_t rows = a.rows();
  const size_t inner = a.cols();
  const size_t cols = b.cols();
  const size_t row_block = p.row_block;
  const bool same_operand = &a == &b;
  const HeavyGates gates = GateHeavyProduct(
      HeavyShape{rows, inner, cols, a.nnz(), b.nnz(), same_operand,
                 p.symmetric},
      p.heavy_path, row_block, threads, p.max_matrix_bytes);
  TraceRecorder* const trace = p.trace;

  HeavyRun& run = pp.plan;
  run.a_nnz = a.nnz();
  run.b_nnz = b.nnz();
  run.heavy_density = a.Density();
  run.heavy_blocks_total = ChunkCount(rows, row_block);
  pp.row_block = row_block;

  // Both pricing steps (kAuto's block plan, and the grid in every mode)
  // read one set of rates, resolved here so a first-in-process measurement
  // shows as its own span.
  const SparseKernelRates* rates = p.rates;
  if (rates == nullptr && (gates.mode == HeavyPathMode::kAuto ||
                           p.partition != PartitionMode::kOff)) {
    TraceRecorder::Scope rates_scope(trace, "kernel-rates", p.trace_parent);
    rates = &SparseKernelRates::Default();
  }

  // ---- Decomposition. kForce engages the grid whenever a product exists;
  // kAuto only when the priced grid beats the uniform plan AND the permuted
  // operands + band slices fit what remains of the cap. Chunks stay
  // ceil(rows / row_block) either way (grid row bands snap to row_block),
  // so the accounting is mode-invariant.
  if (p.partition != PartitionMode::kOff) {
    const TraceRecorder::SpanId remap_span =
        TraceBegin(trace, "degree-remap", p.trace_parent);
    DensityGridOptions go;
    go.row_block = row_block;
    go.mode = gates.mode;
    go.rates = rates;
    go.allow_dense = gates.allow_dense;
    go.allow_csr_dense = gates.allow_csr_dense;
    DensityGrid grid = BuildDensityGrid(a, b, go);
    TraceEnd(trace, remap_span, "cache-miss");
    bool engage = p.partition == PartitionMode::kForce || grid.beneficial;
    if (engage) {
      bool grid_dense = false;
      bool grid_csr_dense = false;
      for (const BlockKernelChoice& blk : grid.blocks) {
        grid_dense |= blk.kernel == ProductKernel::kDenseGemm;
        grid_csr_dense |= blk.kernel == ProductKernel::kCsrDense;
      }
      // Extra working set of the remapped execution: a permuted copy of A
      // and per-band B slices (CSR always), the dense B slices of CSR x
      // dense blocks (bounded by the full dense B), and the bit rows of the
      // permuted A and (unless symmetric) of the B^T bands when dense
      // blocks run.
      uint64_t extra = CsrBytes(rows, a.nnz()) + CsrBytes(inner, b.nnz()) +
                       8 * static_cast<uint64_t>(grid.num_col_bands()) *
                           (inner + 1);
      if (grid_csr_dense) extra += 4 * static_cast<uint64_t>(inner) * cols;
      if (grid_dense) {
        extra += BitRowsBytes(rows, inner) +
                 (p.symmetric ? 0 : BitRowsBytes(cols, inner));
      }
      engage = gates.bytes + extra <= p.max_matrix_bytes;
    }
    if (engage) pp.grid = std::move(grid);
  }

  const bool symmetric = p.symmetric;
  run.symmetric = symmetric;
  if (symmetric) JPMM_CHECK(rows == cols && a.nnz() == b.nnz());
  if (pp.grid) {
    const DensityGrid& grid = *pp.grid;
    run.partition_used = true;
    run.partition_row_bands = grid.num_row_bands();
    run.partition_col_bands = grid.num_col_bands();
    run.partition_blocks_scheduled = grid.blocks.size();
    run.partition_blocks_pruned = grid.pruned_blocks;
    run.partition_signature = grid.Signature();
    run.block_choices = grid.blocks;
    pp.row_bands = grid.row_bands;
    pp.col_bands = grid.col_bands;
    // B = A^T: both stable sorts order ids by the same degree.
    if (symmetric) JPMM_CHECK(grid.row_perm == grid.col_perm);
  } else {
    run.partition_signature = "uniform";
    run.block_choices =
        PlanProductBlocks(a, b, row_block, gates.mode, rates,
                          gates.allow_dense, gates.allow_csr_dense, nullptr);
    for (const BlockKernelChoice& blk : run.block_choices) {
      pp.row_bands.push_back(blk.row_begin);
    }
    pp.row_bands.push_back(static_cast<uint32_t>(rows));
    pp.col_bands = {0, static_cast<uint32_t>(cols)};
  }

  // Scheduled (block, column band) pairs per row band, and which
  // representations each column band needs.
  const std::vector<uint32_t>& col_bands = pp.col_bands;
  const size_t ncb = col_bands.size() - 1;
  pp.band_blocks.resize(pp.row_bands.size() - 1);
  std::vector<uint8_t> band_any(ncb, 0);
  std::vector<uint8_t> band_csr_dense(ncb, 0);
  std::vector<uint8_t> band_dense(ncb, 0);
  for (size_t bi = 0; bi < run.block_choices.size(); ++bi) {
    const BlockKernelChoice& blk = run.block_choices[bi];
    const size_t j = BandOf(col_bands, blk.col_begin);
    pp.band_blocks[BandOf(pp.row_bands, blk.row_begin)].emplace_back(bi, j);
    band_any[j] = 1;
    switch (blk.kernel) {
      case ProductKernel::kDenseGemm:
        ++run.kernel_counts.dense;
        band_dense[j] = 1;
        break;
      case ProductKernel::kCsrDense:
        ++run.kernel_counts.csr_dense;
        band_csr_dense[j] = 1;
        break;
      case ProductKernel::kCsrCsr:
        ++run.kernel_counts.csr_csr;
        break;
    }
  }
  if (symmetric) {
    double scheduled = 0.0;
    double computed = 0.0;
    for (size_t r0 = 0; r0 < rows; r0 += row_block) {
      const double nrows = static_cast<double>(std::min(rows - r0, row_block));
      for (const auto& [bi, j] : pp.band_blocks[BandOf(pp.row_bands, r0)]) {
        const BlockKernelChoice& blk = run.block_choices[bi];
        const size_t width = blk.col_end - blk.col_begin;
        scheduled += nrows * static_cast<double>(width);
        computed += nrows * static_cast<double>(width - WindowStart(blk, r0));
      }
    }
    if (scheduled > 0.0) run.computed_cell_share = computed / scheduled;
  }

  // ---- Pack: A with its rows in remapped order and B sliced into one
  // matrix per column band with band-local column ids (the inner dimension
  // is never remapped, so every kernel runs unchanged on the slices); the
  // uniform plan uses the operands as they are. A band's dense B is built
  // only when a CSR x dense block reads it, and the bit rows of A and of a
  // band's B^T only for dense blocks.
  const TraceRecorder::SpanId pack_span =
      TraceBegin(trace, "pack", p.trace_parent);
  pp.a_op = &a;
  pp.b_slice.resize(ncb);
  pp.b_csr.assign(ncb, &b);
  if (pp.grid) {
    const uint32_t* row_perm = pp.grid->row_perm.data();
    const uint32_t* col_perm = pp.grid->col_perm.data();
    pp.a_perm = CsrMatrix::FromRows(
        rows, inner, threads, [&](size_t i, std::vector<uint32_t>* out) {
          for (uint32_t c : a.Row(row_perm[i])) out->push_back(c);
        });
    pp.a_op = &pp.a_perm;
    std::vector<uint32_t> inv_col(cols);
    for (size_t k = 0; k < cols; ++k) {
      inv_col[col_perm[k]] = static_cast<uint32_t>(k);
    }
    for (size_t j = 0; j < ncb; ++j) {
      if (!band_any[j]) continue;
      const uint32_t cb0 = col_bands[j];
      const uint32_t cb1 = col_bands[j + 1];
      pp.b_slice[j] = CsrMatrix::FromRows(
          inner, cb1 - cb0, threads,
          [&](size_t y, std::vector<uint32_t>* out) {
            for (uint32_t c : b.Row(y)) {
              const uint32_t k = inv_col[c];
              if (k >= cb0 && k < cb1) out->push_back(k - cb0);
            }
          });
      pp.b_csr[j] = &pp.b_slice[j];
    }
    // Symmetric: one permutation serves rows and columns, and the inverse
    // is the position map the emit reads.
    if (symmetric) {
      pp.position = std::move(inv_col);
      std::vector<uint32_t>().swap(pp.grid->col_perm);
    }
  }
  pp.b_dense.resize(ncb);
  pp.bt_bits.resize(ncb);
  for (size_t j = 0; j < ncb; ++j) {
    if (band_csr_dense[j]) pp.b_dense[j] = pp.b_csr[j]->ToDense(threads);
    if (band_dense[j] && !symmetric) {
      pp.bt_bits[j] = BitRows::FromColumns(*pp.b_csr[j], threads);
    }
  }
  if (run.kernel_counts.dense > 0) {
    pp.a_bits = BitRows::FromRows(*pp.a_op, threads);
  }
  TraceEnd(trace, pack_span, "cache-miss");

  pp.bytes = OwnCsrBytes(pp.own_a) + OwnCsrBytes(pp.own_b) +
             OwnCsrBytes(pp.a_perm) + pp.a_bits.SizeBytes();
  if (pp.grid) {
    pp.bytes += 4 * (pp.grid->row_perm.size() + pp.grid->col_perm.size() +
                     pp.position.size());
  }
  for (size_t j = 0; j < ncb; ++j) {
    pp.bytes += OwnCsrBytes(pp.b_slice[j]) + DenseBytes(pp.b_dense[j]) +
                pp.bt_bits[j].SizeBytes();
  }
}

}  // namespace

std::shared_ptr<const PreparedProduct> PrepareHeavyProduct(
    const CsrMatrix& a, const CsrMatrix& b, const HeavyProduct& p) {
  auto pp = std::make_shared<PreparedProduct>();
  Prepare(a, b, p, pp.get());
  return pp;
}

std::shared_ptr<const PreparedProduct> PrepareHeavyProduct(
    CsrMatrix&& a, CsrMatrix&& b, const HeavyProduct& p) {
  auto pp = std::make_shared<PreparedProduct>();
  pp->own_a = std::move(a);
  pp->own_b = std::move(b);
  Prepare(pp->own_a, pp->own_b, p, pp.get());
  return pp;
}

HeavyRun RunHeavyProduct(const PreparedProduct& pp, const HeavyProduct& p,
                         bool* interrupted) {
  const int threads = std::max(1, p.threads);
  const size_t rows = pp.a_op->rows();
  const size_t row_block = pp.row_block;
  const bool symmetric = pp.plan.symmetric;
  const uint32_t* row_perm = pp.grid ? pp.grid->row_perm.data() : nullptr;
  const uint32_t* col_perm = !pp.grid   ? nullptr
                             : symmetric ? row_perm
                                         : pp.grid->col_perm.data();
  const uint32_t* positions = pp.position.empty() ? nullptr
                                                  : pp.position.data();
  TraceRecorder* const trace = p.trace;
  HeavyRun run = pp.plan;

  // ---- Chunk loop. Chunks are claimed dynamically: per-chunk emit cost
  // follows the output skew, not just the flops. A chunk runs its kernels
  // first, gathering each row across column bands when its row band runs
  // more than one block; then every row goes to on_row once, under one
  // "emit-inverse-remap" span.
  std::vector<Scratch> scratch(static_cast<size_t>(threads));
  ChunkGate gate(p.sink, p.cancel);

  ParallelForDynamic(
      threads, run.heavy_blocks_total, /*grain=*/1,
      [&](size_t c0, size_t c1, int w) {
        Scratch& ws = scratch[static_cast<size_t>(w)];
        for (size_t ci = c0; ci < c1; ++ci) {
          if (!gate.Claim(c1 - ci)) return;
          const size_t r0 = ci * row_block;
          const size_t r1 = std::min(rows, r0 + row_block);
          const size_t nrows = r1 - r0;
          const auto& blocks = pp.band_blocks[BandOf(pp.row_bands, r0)];
          const bool gather = blocks.size() > 1;
          if (gather) {
            if (ws.gather_cols.size() < nrows) {
              ws.gather_cols.resize(nrows);
              ws.gather_counts.resize(nrows);
            }
            for (size_t li = 0; li < nrows; ++li) {
              ws.gather_cols[li].clear();
              ws.gather_counts[li].clear();
            }
          }
          std::optional<BlockOut> front;  // the one block, when not gathering
          for (const auto& [bi, j] : blocks) {
            const BlockKernelChoice& blk = run.block_choices[bi];
            const size_t width = blk.col_end - blk.col_begin;
            const size_t lo = symmetric ? WindowStart(blk, r0) : 0;
            if (lo == width) continue;  // wholly before the window
            TraceRecorder::Scope block_scope(trace, BlockSpanName(blk.kernel),
                                             p.trace_parent);
            BlockOut out;
            out.kernel = blk.kernel;
            out.width = width - lo;
            if (col_perm != nullptr) {
              out.col_ids = col_perm + blk.col_begin + lo;
            } else {
              out.col_base = static_cast<uint32_t>(blk.col_begin + lo);
            }
            if (blk.kernel == ProductKernel::kCsrCsr) {
              CsrCsrRowRange(*pp.a_op, *pp.b_csr[j], r0, r1, &ws.csr,
                             &ws.sparse);
            } else {
              ws.block.resize(row_block * width);
              const std::span<float> cells(ws.block.data(),
                                           nrows * out.width);
              if (blk.kernel == ProductKernel::kDenseGemm) {
                // Symmetric: B^T = A in the shared order, so the band's
                // B^T rows are A's rows at the block's column positions.
                const BitRows& bt = symmetric ? pp.a_bits : pp.bt_bits[j];
                const size_t base = symmetric ? blk.col_begin : 0;
                BitCountRowRange(pp.a_bits, bt, r0, r1, base + lo,
                                 base + width, cells);
              } else {
                CsrDenseRowRange(*pp.a_op, pp.b_dense[j], r0, r1, lo, cells);
              }
            }
            if (!gather) {
              front = out;
              continue;
            }
            for (size_t li = 0; li < nrows; ++li) {
              const HeavyRow row = RowView(ws, out, li);
              std::vector<uint32_t>& cols = ws.gather_cols[li];
              std::vector<uint32_t>& counts = ws.gather_counts[li];
              const size_t have = cols.size();
              cols.resize(have + row.CellBound());
              counts.resize(cols.size());
              const size_t n =
                  row.Compact(0, cols.data() + have, counts.data() + have);
              cols.resize(have + n);
              counts.resize(have + n);
            }
          }
          TraceRecorder::Scope emit_scope(trace, "emit-inverse-remap",
                                          p.trace_parent);
          for (size_t li = 0; li < nrows; ++li) {
            const size_t r = r0 + li;
            // Empty when every block of the band is pruned or before the
            // chunk's window.
            HeavyRow row;
            if (gather) {
              row.cols = ws.gather_cols[li];
              row.counts = ws.gather_counts[li];
            } else if (front) {
              row = RowView(ws, *front, li);
            }
            if (symmetric) {
              row.symmetric = true;
              row.position = static_cast<uint32_t>(r);
              row.positions = positions;
            }
            p.on_row(w, row_perm == nullptr ? static_cast<uint32_t>(r)
                                            : row_perm[r],
                     row);
          }
          if (p.on_chunk_done) p.on_chunk_done(w);
        }
      });

  run.heavy_blocks_executed = gate.executed();
  run.heavy_blocks_skipped = gate.skipped();
  if (gate.interrupted()) *interrupted = true;
  return run;
}

HeavyRun RunHeavyProduct(const CsrMatrix& a, const CsrMatrix& b,
                         const HeavyProduct& p, bool* interrupted) {
  return RunHeavyProduct(*PrepareHeavyProduct(a, b, p), p, interrupted);
}

HeavyOperandKey OperandKey(const ExecContext& ctx, Thresholds t,
                           size_t row_block) {
  return {{std::max<uint64_t>(1, t.delta1), std::max<uint64_t>(1, t.delta2)},
          ctx.max_matrix_bytes, ctx.heavy_path, row_block,
          std::max(1, ctx.threads), ctx.partition};
}

HeavyOperandKey UncappedOperandKey(Thresholds t) {
  HeavyOperandKey key = OperandKey(ExecContext{}, t, 1);
  key.max_matrix_bytes = std::numeric_limits<uint64_t>::max();
  return key;
}

std::shared_ptr<const HeavyFit> HeavyOperandCache::Fit(
    const HeavyOperandKey& key, const ExecContext& ctx,
    const std::function<std::shared_ptr<const HeavyFit>()>& fit, bool* hit) {
  TraceRecorder::Scope scope(ctx.trace, "threshold-fit", ctx.trace_parent);
  std::lock_guard<std::mutex> lock(mu_);
  *hit = key_ == key;
  if (*hit) {
    if (MetricsEnabled()) HeavyMetrics::Get().operand_cache_hits.Add();
  } else {
    fit_ = fit();  // a throw leaves the slot untouched
    key_ = key;
    product_ = nullptr;
  }
  scope.Close(*hit ? "cache-hit" : "cache-miss");
  return fit_;
}

std::shared_ptr<const PreparedProduct> HeavyOperandCache::Product(
    const HeavyFit& fit, const HeavyProduct& p, const char* build_span,
    const std::function<std::shared_ptr<const PreparedProduct>()>& build,
    bool* hit) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool ours = fit_.get() == &fit;
  *hit = ours && product_ != nullptr;
  if (*hit) {
    auto hit_span = [&p](const char* name) {
      TraceEnd(p.trace, TraceBegin(p.trace, name, p.trace_parent),
               "cache-hit");
    };
    const bool grid = p.partition != PartitionMode::kOff;
    if (build_span != nullptr) hit_span(build_span);
    if (grid) hit_span("degree-remap");
    hit_span("pack");
    if (grid && MetricsEnabled()) HeavyMetrics::Get().grid_cache_hits.Add();
    return product_;
  }
  std::shared_ptr<const PreparedProduct> built = build();
  if (MetricsEnabled()) HeavyMetrics::Get().operand_bytes.Add(built->bytes);
  if (ours) product_ = built;
  return built;
}

uint64_t HeavyOperandCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return (fit_ ? fit_->bytes : 0) + (product_ ? product_->bytes : 0);
}

RunOperands::RunOperands(
    HeavyOperandCache* caller, const HeavyOperandKey& key,
    const ExecContext& ctx,
    const std::function<std::shared_ptr<const HeavyFit>()>& fit)
    : cache_(caller != nullptr ? *caller : own_),
      fit_(cache_.Fit(key, ctx, fit, &fit_hit_)) {}

void RunOperands::RunMmHeavyStep(
    ChunkGate& gate, HeavyProduct p, const char* build_span,
    const std::function<std::shared_ptr<const PreparedProduct>(
        const HeavyProduct&)>& build,
    RunRecord* result, bool* interrupted) const {
  const HeavyShape& shape = fit_->shape;
  const bool planned = shape.rows > 0 && shape.inner > 0 && shape.cols > 0;
  bool product_hit = true;  // stays true when no product runs
  if (planned && gate.Stopped()) {
    static_cast<HeavyRun&>(*result) = SkippedHeavyRun(shape, p.row_block);
  } else if (planned) {
    WallTimer heavy_timer;
    TraceRecorder::Scope heavy_scope(p.trace, "heavy", p.trace_parent);
    p.trace_parent = heavy_scope.id();
    const std::shared_ptr<const PreparedProduct> product = cache_.Product(
        *fit_, p, build_span, [&] { return build(p); }, &product_hit);
    static_cast<HeavyRun&>(*result) =
        RunHeavyProduct(*product, p, interrupted);
    result->partition_cache_hit =
        product_hit && p.partition != PartitionMode::kOff;
    result->heavy_seconds = heavy_timer.Seconds();
  }
  RecordCache(result, product_hit);
}

void RunOperands::RecordCache(RunRecord* result, bool product_hit) const {
  result->operand_cache_hit = fit_hit_ && product_hit;
  result->operand_cache_bytes = cache_.bytes();
}

HeavyRun SkippedHeavyRun(const HeavyShape& shape, size_t row_block) {
  HeavyRun run;
  run.a_nnz = shape.a_nnz;
  run.b_nnz = shape.b_nnz;
  const double cells =
      static_cast<double>(shape.rows) * static_cast<double>(shape.inner);
  run.heavy_density =
      cells > 0.0 ? static_cast<double>(shape.a_nnz) / cells : 0.0;
  run.heavy_blocks_total = ChunkCount(shape.rows, row_block);
  run.heavy_blocks_skipped = run.heavy_blocks_total;
  return run;
}

void RecordRunMetrics(const RunRecord& run, LightUnit unit) {
  if (!MetricsEnabled()) return;
  HeavyMetrics& h = HeavyMetrics::Get();
  h.kernel_dense.Add(run.kernel_counts.dense);
  h.kernel_csr_dense.Add(run.kernel_counts.csr_dense);
  h.kernel_csr_csr.Add(run.kernel_counts.csr_csr);
  if (run.partition_used) h.partition_engaged.Add();
  h.partition_pruned.Add(run.partition_blocks_pruned);
  h.blocks_executed.Add(run.heavy_blocks_executed);
  h.blocks_skipped.Add(run.heavy_blocks_skipped);
  LightMetrics& l = LightMetrics::Get(unit);
  l.executed.Add(run.light_chunks_executed);
  l.skipped.Add(run.light_chunks_skipped);
  l.light_ms.Record(run.light_seconds * 1e3);
  if (run.heavy_blocks_total > 0) l.heavy_ms.Record(run.heavy_seconds * 1e3);
}

}  // namespace jpmm
