// The heavy-product executor: every MM plan's all-heavy part, run once.
//
// Algorithm 1 reduces the heavy part of the two-path to the rectangular 0/1
// counting product M1 * M2 (§3.1); the star reduces its heavy combos to
// V * W^T (§3.2); the triangle extension traces A_H * A_H. All three are
// the same pipeline over two CSR operands A (rows x inner) and
// B (inner x cols), and RunHeavyProduct is its only implementation:
//
//   1. representation gates — which of the dense GEMM / CSR x dense /
//      CSR x CSR kernels may run under the memory cap and the float
//      exactness bound (GateHeavyProduct);
//   2. decomposition — the uniform row-block plan (PlanProductBlocks), or
//      the density-adaptive grid (BuildDensityGrid, memoized in the
//      caller's DensityGridCache) when the partition mode engages it and
//      the permuted operands fit the cap;
//   3. pack — permuted A rows and per-column-band B slices for the grid,
//      dense / packed forms only for the kernels some block runs;
//   4. the chunk loop — ceil(rows / row_block) work units claimed
//      dynamically, each polled against the sink's done() and the cancel
//      token (executed + skipped == total at every thread count), one
//      "block:<kernel>" trace span per kernel call.
//
// Output leaves through the caller's on_row callback: the row's index in
// A's original numbering and its kernel output, whose column ids
// HeavyRow::ForEach maps back through the inverse column remap. The
// caller turns rows into pairs (two-path), tuples (star) or a trace sum
// (triangle); the executor never sees output values.
//
// Exactness: the float kernels accumulate counts in float cells and are
// read back with `v + 0.5f`, exact only below 2^24. A cell's count is at
// most the inner dimension, so when inner >= 2^24 the gates turn both
// float kernels off (forced float modes too) and every block runs the
// uint32 CSR x CSR kernel. No input aborts the process over it.

#ifndef JPMM_CORE_HEAVY_PRODUCT_H_
#define JPMM_CORE_HEAVY_PRODUCT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/density_partition.h"
#include "core/exec_context.h"
#include "core/heavy_dispatch.h"
#include "core/thresholds.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {

/// Smallest positive integer a float cell (and the `v + 0.5f` integer
/// read-back) can NOT represent exactly: 2^24. Float kernels run only while
/// the inner dimension — the per-cell count maximum — stays below it.
inline constexpr uint64_t kMaxExactFloatCount = uint64_t{1} << 24;

/// What one heavy product did: operands, per-block kernel decisions, the
/// decomposition, and the early-exit accounting. Every result struct that
/// can run a heavy product (MmJoinResult, StarJoinResult,
/// TriangleCountResult, ExecStats) inherits it, so each layer hands it on
/// with one assignment.
struct HeavyRun {
  uint64_t a_nnz = 0;           // set cells of A (M1, V, or A_H)
  uint64_t b_nnz = 0;           // set cells of B (M2, W^T, or A_H)
  double heavy_density = 0.0;   // a_nnz / (rows * inner)
  HeavyKernelCounts kernel_counts;               // scheduled blocks per kernel
  std::vector<BlockKernelChoice> block_choices;  // per-block dispatch record

  /// Density-adaptive decomposition (core/density_partition.h): whether the
  /// degree-remapped grid ran the product, its shape, and the scheduled /
  /// pruned cell split. The signature is "off" (no heavy product),
  /// "uniform", or DensityGrid::Signature(); it is deterministic for one
  /// operand pair + options, so re-executions report the same one.
  bool partition_used = false;
  uint64_t partition_row_bands = 0;
  uint64_t partition_col_bands = 0;
  uint64_t partition_blocks_scheduled = 0;
  uint64_t partition_blocks_pruned = 0;
  std::string partition_signature = "off";
  /// True iff the grid came from the DensityGridCache instead of a fresh
  /// BuildDensityGrid (identical grid either way).
  bool partition_cache_hit = false;

  /// Work units: ceil(rows / row_block) chunks under either decomposition
  /// (for the combinatorial Non-MM plans: their heavy chunks).
  /// executed + skipped == total whenever a product was planned.
  uint64_t heavy_blocks_total = 0;
  uint64_t heavy_blocks_executed = 0;
  uint64_t heavy_blocks_skipped = 0;
};

/// Operand shape for the memory-cap accounting, known before the CSR
/// operands are built (the callers' threshold-fit loops count nnz first).
struct HeavyShape {
  uint64_t rows = 0;
  uint64_t inner = 0;
  uint64_t cols = 0;
  uint64_t a_nnz = 0;
  uint64_t b_nnz = 0;
  /// B is A itself (the triangle's A_H * A_H): one CSR and one dense copy.
  bool same_operand = false;
};

/// The representations a product may materialize.
struct HeavyGates {
  /// The mode blocks are planned under: the requested one, except that a
  /// forced float mode becomes kForceCsrCsr past the exactness bound.
  HeavyPathMode mode = HeavyPathMode::kAuto;
  bool allow_dense = true;
  bool allow_csr_dense = true;
  /// Working set of the allowed representations: the CSR operands always;
  /// dense A/B, the packed B slab and the per-worker float row buffers when
  /// the dense GEMM may run; dense B and the buffers for CSR x dense; the
  /// per-worker stamp scratch for CSR x CSR. A threshold-fit loop compares
  /// this against the cap; under kAuto it is at most the cap unless even
  /// the CSR floor does not fit.
  uint64_t bytes = 0;
};

/// Representation gates for one product. Under kAuto a representation that
/// alone would blow max_bytes is gated off (the CSR x CSR floor always
/// stays); forced modes keep their kernel and report what it needs. When
/// shape.inner >= kMaxExactFloatCount both float kernels are off in every
/// mode.
HeavyGates GateHeavyProduct(const HeavyShape& shape, HeavyPathMode mode,
                            size_t row_block, int threads, uint64_t max_bytes);

/// One output row of A * B, restricted to the columns of the block that
/// produced it, as the kernel left it: a float row (dense GEMM / CSR x
/// dense) or sparse (column, count) runs (CSR x CSR, or a row gathered
/// across several column bands). Valid only during the callback.
struct HeavyRow {
  const float* values = nullptr;  // float form: `width` cells, else null
  size_t width = 0;
  std::span<const uint32_t> cols;    // sparse form
  std::span<const uint32_t> counts;
  /// Local column -> column of B, or null when local ids are B's own: on
  /// the uniform plan, whose sparse columns ascend, and on a row gathered
  /// across column bands, whose columns arrive unordered.
  const uint32_t* col_ids = nullptr;

  /// f(col, count) for every nonzero cell, col in B's original numbering.
  template <class F>
  void ForEach(F&& f) const {
    if (col_ids == nullptr) {
      Visit([](uint32_t c) { return c; }, f);
    } else {
      const uint32_t* ids = col_ids;
      Visit([ids](uint32_t c) { return ids[c]; }, f);
    }
  }

 private:
  // One loop per (form, map) pair, with the row's fields in locals so the
  // callback's stores cannot force reloads.
  template <class Map, class F>
  void Visit(Map map, F& f) const {
    if (values != nullptr) {
      const float* row = values;
      for (size_t j = 0, n = width; j < n; ++j) {
        const float v = row[j];
        if (v > 0.5f) {
          f(map(static_cast<uint32_t>(j)), static_cast<uint32_t>(v + 0.5f));
        }
      }
    } else {
      const uint32_t* c = cols.data();
      const uint32_t* k = counts.data();
      for (size_t e = 0, n = cols.size(); e < n; ++e) f(map(c[e]), k[e]);
    }
  }
};

/// Everything RunHeavyProduct needs besides the operands: the execution
/// context (threads, kernel and partition modes, the memory cap, cancel
/// token, trace under `trace_parent`) plus the product's own knobs.
struct HeavyProduct : ExecContext {
  /// Rows per work unit (and per uniform-plan block).
  size_t row_block = 256;
  /// nullptr resolves to SparseKernelRates::Default() when kAuto prices.
  const SparseKernelRates* rates = nullptr;
  /// Cross-execution grid memo and the thresholds that key it (the
  /// adjusted ones the operands were built under). Null = always rebuild.
  DensityGridCache* grid_cache = nullptr;
  Thresholds grid_key{0, 0};
  /// Polled with the cancel token before every chunk (ChunkGate): a done()
  /// sink or a fired token skips the remaining chunks.
  const ResultSink* sink = nullptr;
  /// false: on_row fires once per (row, scheduled block) inside the
  /// block's span, and a row no scheduled block covers never fires.
  /// true: every row of an executed chunk fires exactly once with its whole
  /// output — grid rows are delivered after the chunk's kernels, under an
  /// "emit-inverse-remap" span, gathered across column bands when the row
  /// band runs more than one block, and empty when every block is pruned.
  bool whole_rows = false;
  /// Called from pool worker `worker` (0 <= worker < threads); rows of one
  /// chunk arrive on one worker, in order.
  std::function<void(int worker, uint32_t row, const HeavyRow& out)> on_row;
  /// Optional: called after each executed chunk's rows, on the same worker.
  std::function<void(int worker)> on_chunk_done;
};

/// Runs A * B (a.cols() == b.rows(), both non-empty) as described above.
/// Sets *interrupted to true when the cancel token skipped some chunk.
HeavyRun RunHeavyProduct(const CsrMatrix& a, const CsrMatrix& b,
                         const HeavyProduct& p, bool* interrupted);

/// The record of a product skipped before its operands were built (the
/// light part already satisfied the sink, or the token fired): the same
/// chunk total RunHeavyProduct would plan, every chunk skipped.
HeavyRun SkippedHeavyRun(const HeavyShape& shape, size_t row_block);

/// Adds one run to the process-wide join metrics (kernel blocks, executed /
/// skipped chunks, partition engagement and pruning).
void RecordHeavyRunMetrics(const HeavyRun& run);

/// Adds only a run's executed / skipped heavy chunks: the record of the
/// Non-MM two-path, whose heavy chunks run no product.
void RecordHeavyBlockMetrics(const HeavyRun& run);

/// The light-part counters a join run feeds: the two-path strategies count
/// chunks (jpmm_join_light_chunks_*), the MM star its decomposition steps
/// (jpmm_star_light_steps_*).
enum class LightUnit { kChunks, kStarSteps };

/// Adds one join run's light part to the process-wide metrics: executed /
/// skipped units under `unit`'s counters, the light-pass time, and the
/// heavy-pass time when the run planned a heavy pass.
void RecordLightRunMetrics(const LightRun& run, LightUnit unit,
                           double light_seconds,
                           std::optional<double> heavy_seconds);

}  // namespace jpmm

#endif  // JPMM_CORE_HEAVY_PRODUCT_H_
