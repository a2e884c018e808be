// The heavy-product executor: every MM plan's all-heavy part, run once.
//
// Algorithm 1 reduces the heavy part of the two-path to the rectangular 0/1
// counting product M1 * M2 (§3.1); the star reduces its heavy combos to
// V * W^T (§3.2); the triangle extension traces A_H * A_H. All three are
// the same pipeline over two CSR operands A (rows x inner) and
// B (inner x cols), and RunHeavyProduct is its only implementation:
//
//   1. representation gates — which of the dense (bit-packed AND-popcount,
//      matrix/bit_rows.h) / CSR x dense / CSR x CSR kernels may run under
//      the memory cap and the float exactness bound (GateHeavyProduct);
//   2. decomposition — the uniform row-block plan (PlanProductBlocks), or
//      the density-adaptive grid (BuildDensityGrid) when the partition mode
//      engages it and the permuted operands fit the cap;
//   3. pack — permuted A rows and per-column-band B slices for the grid,
//      dense B bands and the bit rows of A and of the B^T bands only for
//      the kernels some block runs;
//   4. the chunk loop — ceil(rows / row_block) work units claimed
//      dynamically, each polled against the sink's done() and the cancel
//      token (executed + skipped == total at every thread count). A chunk
//      runs its kernels, one "block:<kernel>" trace span per kernel call,
//      then hands each of its rows to the caller once, under one
//      "emit-inverse-remap" span.
//
// Symmetry: when B is A^T (the two-path self join, HeavyProduct::symmetric)
// the product is symmetric and rows and columns share one order (the
// uniform plan's identity, or the grid's row_perm == col_perm). Each chunk
// [r0, r1) then computes only the column window from r0 on — the upper
// triangle plus the chunk's own lower corner — reading the one prepared B;
// the caller takes each lower-triangle cell from its mirror
// (HeavyRow::position).
//
// Steps 1-3 depend only on the operands and the options, so they are one
// call (PrepareHeavyProduct) whose immutable result any number of runs of
// step 4 (RunHeavyProduct) read. A PreparedQuery keeps it, with the
// threshold fit and the operands it was built from, in a HeavyOperandCache
// (below): a repeat execution starts at the chunk loop.
//
// Output leaves through the caller's on_row callback, once per row of every
// executed chunk, on the uniform plan and on the grid alike: the row's
// index in A's original numbering and its whole output (gathered across
// column bands when its row band runs several blocks), whose cells
// HeavyRow::Compact lists in bulk, with column ids mapped back through the
// inverse column remap. The caller turns rows into pairs (two-path), tuples
// (star) or a trace sum (triangle); the executor never sees output values.
//
// Exactness: the float kernels accumulate whole counts in float cells, read
// back by truncation (HeavyRow::Compact), exact only below 2^24. A cell's
// count is at most the inner dimension, so when inner >= 2^24 the gates
// turn both float kernels off (forced float modes too) and every block runs
// the uint32 CSR x CSR kernel. No input aborts the process over it.

#ifndef JPMM_CORE_HEAVY_PRODUCT_H_
#define JPMM_CORE_HEAVY_PRODUCT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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

/// The float kernels' exactness bound, 2^24: every count below it is exact
/// in a float cell and in its truncating read-back. Float kernels run only
/// while the inner dimension — the per-cell count maximum — stays below it.
inline constexpr uint64_t kMaxExactFloatCount = uint64_t{1} << 24;

/// What one heavy product did: operands, per-block kernel decisions, the
/// decomposition, and the early-exit accounting. RunRecord (below) inherits
/// it next to LightRun.
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
  /// True iff the grid came from the PreparedQuery's HeavyOperandCache
  /// instead of a fresh BuildDensityGrid (identical grid either way).
  bool partition_cache_hit = false;

  /// Work units: ceil(rows / row_block) chunks under either decomposition
  /// (for the combinatorial Non-MM plans: their heavy chunks).
  /// executed + skipped == total whenever a product was planned.
  uint64_t heavy_blocks_total = 0;
  uint64_t heavy_blocks_executed = 0;
  uint64_t heavy_blocks_skipped = 0;

  /// True iff the product ran as an upper triangle (B = A^T; false when no
  /// product ran), and the share of the scheduled blocks' cells inside the
  /// float kernels' column windows (CSR x CSR blocks keep whole rows and
  /// count whole).
  bool symmetric = false;
  double computed_cell_share = 1.0;
};

/// The record of one run of any strategy of any query kind: the two-path
/// (MmJoinTwoPath, NonMmJoinTwoPath, RunTwoPath), the star (MmStarJoin,
/// NonMmStarJoin, WcojFullStarJoin) and the triangle count
/// (CountTrianglesMm) all split their work into a light part (LightRun) and
/// a heavy part (HeavyRun) under degree thresholds, and all return this
/// struct. ExecStats inherits it, so the engine hands a run on with one
/// assignment. Fields a strategy does not reach stay zero.
struct RunRecord : HeavyRun, LightRun {
  /// The thresholds as run, after any memory-cap doubling. The triangle
  /// count's single degree threshold is {delta, delta}.
  Thresholds adjusted_thresholds{0, 0};
  /// The heavy operand shape: rows x inner times inner x cols. Two-path:
  /// |heavy x|, |heavy y|, |heavy z|. Star: the first group's heavy combos,
  /// the heavy y values, the second group's heavy combos. Triangle: the
  /// heavy vertex count in all three.
  uint64_t heavy_rows = 0;
  uint64_t heavy_inner = 0;
  uint64_t heavy_cols = 0;
  /// Wall time of the light part, and of the heavy part (operand build,
  /// product and emit; zero when it did not run).
  double light_seconds = 0.0;
  double heavy_seconds = 0.0;
  /// Triangle count only (possibly partial, see `interrupted`): the total
  /// and its split into the light-vertex enumeration and trace(A_H^3)/6.
  uint64_t triangles = 0;
  uint64_t light_triangles = 0;
  uint64_t heavy_triangles = 0;
  /// Two-path and star: true iff the threshold fit — and, when a heavy
  /// product ran, its operands and bit-packed forms — came from the
  /// HeavyOperandCache; the bytes the cache holds after the run.
  bool operand_cache_hit = false;
  uint64_t operand_cache_bytes = 0;
};

/// Operand shape for the memory-cap accounting, known before the CSR
/// operands are built (the callers' threshold-fit loops count nnz first).
struct HeavyShape {
  uint64_t rows = 0;
  uint64_t inner = 0;
  uint64_t cols = 0;
  uint64_t a_nnz = 0;
  uint64_t b_nnz = 0;
  /// B is A itself (the triangle's A_H * A_H): one CSR copy.
  bool same_operand = false;
  /// B^T is A (the two-path self join, HeavyProduct::symmetric): the dense
  /// kernel reads A's bit rows for B^T too, so one set is counted.
  bool symmetric = false;
};

/// The representations a product may materialize.
struct HeavyGates {
  /// The mode blocks are planned under: the requested one, except that a
  /// forced float mode becomes kForceCsrCsr past the exactness bound.
  HeavyPathMode mode = HeavyPathMode::kAuto;
  bool allow_dense = true;
  bool allow_csr_dense = true;
  /// Working set of the allowed representations: the CSR operands always;
  /// the bit rows of A and B^T and the per-worker float row buffers for the
  /// dense kernel; dense B and the buffers for CSR x dense; the per-worker
  /// stamp scratch for CSR x CSR (under kAuto, allowing the dense kernel
  /// counts all of them). A threshold-fit loop compares
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

/// One output row of A * B, over the scheduled blocks of its band, as the
/// kernels left it: a float row (dense / CSR x dense) or sparse
/// (column, count) runs (CSR x CSR, or a row gathered across several column
/// bands). Valid only during the callback.
struct HeavyRow {
  const float* values = nullptr;  // float form: `width` cells, else null
  size_t width = 0;
  std::span<const uint32_t> cols;    // sparse form
  std::span<const uint32_t> counts;
  /// Local column -> column of B, or null when local ids are B's own
  /// after `col_base`: on the uniform plan, whose sparse columns ascend,
  /// and on a row gathered across column bands, whose columns arrive
  /// unordered.
  const uint32_t* col_ids = nullptr;
  uint32_t col_base = 0;
  /// Symmetric products only: the row's position in the order rows and
  /// columns share, and column -> position (null: the identity). Cells of
  /// columns positioned before the row may be missing; the mirror cell in
  /// that column's own row holds the count.
  bool symmetric = false;
  uint32_t position = 0;
  const uint32_t* positions = nullptr;

  /// Position of column `col` of B in the shared order (symmetric only).
  uint32_t PositionOf(uint32_t col) const {
    return positions == nullptr ? col : positions[col];
  }

  /// Room Compact needs: the row's cell count before any is dropped.
  size_t CellBound() const { return values != nullptr ? width : cols.size(); }

  /// The bulk form every consumer reads. Writes the column of B (original
  /// numbering) of each nonzero cell whose local column is at least `from`
  /// to col_out and, unless count_out is null, its count to count_out, in
  /// the row's cell order; returns how many. Each output needs room for
  /// CellBound() cells; what lies past the returned count is unspecified.
  /// No cell takes a branch: a float row runs the dispatched compaction
  /// kernel (matrix/row_compact.h), and a float cell's count is its
  /// truncated value (`v + 0.5f` would round 2^24 - 1 up).
  size_t Compact(size_t from, uint32_t* col_out, uint32_t* count_out) const;
};

/// Everything RunHeavyProduct needs besides the operands: the execution
/// context (threads, kernel and partition modes, the memory cap, cancel
/// token, trace under `trace_parent`) plus the product's own knobs.
struct HeavyProduct : ExecContext {
  /// Rows per work unit (and per uniform-plan block).
  size_t row_block = 256;
  /// nullptr resolves to SparseKernelRates::Default() when a step prices
  /// blocks (kAuto, or the grid in any mode).
  const SparseKernelRates* rates = nullptr;
  /// Polled with the cancel token before every chunk (ChunkGate): a done()
  /// sink or a fired token skips the remaining chunks.
  const ResultSink* sink = nullptr;
  /// Every row of an executed chunk, exactly once with its whole output,
  /// after the chunk's kernels and inside its "emit-inverse-remap" span;
  /// empty when every block of its band is pruned. Called from pool worker
  /// `worker` (0 <= worker < threads); rows of one chunk arrive on one
  /// worker, in order.
  std::function<void(int worker, uint32_t row, const HeavyRow& out)> on_row;
  /// Optional: called after each executed chunk's rows, on the same worker,
  /// inside the chunk's emit span and before it claims the next chunk.
  std::function<void(int worker)> on_chunk_done;
  /// B is A^T: run the upper triangle (see the file comment). Read by the
  /// prepare; a symmetric prepared product runs symmetric.
  bool symmetric = false;
};

/// Steps 1-3 of A * B: the gates, the decomposition, and the permuted,
/// sliced, dense and bit-packed forms the scheduled kernels read. Immutable:
/// any number of RunHeavyProduct calls may read one at once.
struct PreparedProduct;

/// Prepares A * B (a.cols() == b.rows(), both non-empty) over the caller's
/// operands, which must outlive the result. Reads the threads, heavy_path,
/// partition, max_matrix_bytes, row_block, rates and symmetric of `p`, and
/// traces under p.trace_parent "kernel-rates" (the default rates resolved
/// for a pricing step: rates null, and kAuto or partition on; the first
/// resolution in a process measures them), then "degree-remap" (partition
/// on) and "pack", both closed with cache-miss.
std::shared_ptr<const PreparedProduct> PrepareHeavyProduct(
    const CsrMatrix& a, const CsrMatrix& b, const HeavyProduct& p);
/// Prepares A * B over operands the result keeps.
std::shared_ptr<const PreparedProduct> PrepareHeavyProduct(
    CsrMatrix&& a, CsrMatrix&& b, const HeavyProduct& p);

/// Step 4: the chunk loop, at the row block `prepared` was prepared at.
/// Sets *interrupted to true when the cancel token skipped some chunk.
HeavyRun RunHeavyProduct(const PreparedProduct& prepared,
                         const HeavyProduct& p, bool* interrupted);
/// Steps 1-4 with nothing kept: prepare, then run.
HeavyRun RunHeavyProduct(const CsrMatrix& a, const CsrMatrix& b,
                         const HeavyProduct& p, bool* interrupted);

/// Every input of a heavy operand build: the requested thresholds after
/// the max(1, .) clamp, the inputs of the memory-cap fit (GateHeavyProduct)
/// and the partition mode. The memoized builds price blocks with the
/// default rates (HeavyProduct::rates stays null), so no rates key.
struct HeavyOperandKey {
  Thresholds thresholds;
  uint64_t max_matrix_bytes = 0;
  HeavyPathMode heavy_path = HeavyPathMode::kAuto;
  size_t row_block = 1;
  int threads = 1;
  PartitionMode partition = PartitionMode::kOff;

  bool operator==(const HeavyOperandKey&) const = default;
};

/// The key of a run under `ctx` at the requested thresholds and row block.
HeavyOperandKey OperandKey(const ExecContext& ctx, Thresholds requested,
                           size_t row_block);
/// The key of a combinatorial (Non-MM) run, which builds no matrices and so
/// has no byte cap: under an unlimited cap the fit never reads the gate
/// inputs, so one fixed set of them keys every run.
HeavyOperandKey UncappedOperandKey(Thresholds requested);

/// What a threshold fit settles on, the base of each query kind's fit (the
/// two-path's partition context, the star's V / W^T). Immutable once built.
struct HeavyFit {
  /// The requested thresholds, doubled until the heavy part fits the cap.
  Thresholds thresholds{0, 0};
  HeavyShape shape;
  uint64_t bytes = 0;  // resident bytes of the fit
};

/// One PreparedQuery's heavy operands: one slot keyed by HeavyOperandKey,
/// holding the fit and, once some execution reached the heavy part, its
/// prepared product. Sound because the relation snapshots are immutable,
/// every build is deterministic for fixed relations and key, and
/// re-Prepare makes a fresh cache; a cache must only ever see one query.
/// Each lookup holds the lock across its build, so racing first calls
/// build once; a build that throws leaves the slot as it was.
class HeavyOperandCache {
 public:
  /// The fit for `key`: the slot's (*hit = true), else fit()'s, which
  /// replaces the slot (*hit = false). Traced as "threshold-fit" under
  /// ctx.trace_parent, closed with cache-hit or cache-miss.
  std::shared_ptr<const HeavyFit> Fit(
      const HeavyOperandKey& key, const ExecContext& ctx,
      const std::function<std::shared_ptr<const HeavyFit>()>& fit,
      bool* hit);
  /// The prepared product of `fit`: the slot's (*hit = true), else
  /// build()'s (*hit = false), kept while the slot still holds `fit`. On a
  /// hit the spans build() would have opened under p.trace_parent —
  /// `build_span` when non-null (the two-path's "csr-build"),
  /// "degree-remap" when p.partition is on, and "pack" — open and close at
  /// once with cache-hit, and a reused grid counts in
  /// jpmm_partition_grid_cache_hits_total; a build adds its bytes to
  /// jpmm_join_heavy_operand_bytes_total.
  std::shared_ptr<const PreparedProduct> Product(
      const HeavyFit& fit, const HeavyProduct& p, const char* build_span,
      const std::function<std::shared_ptr<const PreparedProduct>()>& build,
      bool* hit);
  /// Bytes the slot holds.
  uint64_t bytes() const;

 private:
  mutable std::mutex mu_;
  std::optional<HeavyOperandKey> key_;
  std::shared_ptr<const HeavyFit> fit_;
  std::shared_ptr<const PreparedProduct> product_;
};

/// One join run's threshold fit and the memo it came from: the caller's
/// HeavyOperandCache when it passed one, else one that lives as long as
/// this object. The two-path and the star strategies start here.
class RunOperands {
 public:
  /// Looks the fit for `key` up (HeavyOperandCache::Fit), built by `fit` on
  /// a miss.
  RunOperands(HeavyOperandCache* caller, const HeavyOperandKey& key,
              const ExecContext& ctx,
              const std::function<std::shared_ptr<const HeavyFit>()>& fit);

  /// The fit, as the query kind's type.
  template <class Fit>
  const Fit& fit() const {
    return static_cast<const Fit&>(*fit_);
  }

  /// The MM heavy step of the two-path (M1 * M2) and the star (V * W^T),
  /// after the light part: nothing when the fit has no heavy product;
  /// every planned chunk skipped, before anything is built, when `gate`
  /// has stopped; else, under a "heavy" span that becomes p.trace_parent,
  /// the memo's prepared product (`build`'s on a miss) runs the chunk
  /// loop. `build_span`, when non-null, names the span `build` opens
  /// itself (HeavyOperandCache::Product marks it cache-hit on a hit). Fills
  /// result's HeavyRun, partition_cache_hit, heavy_seconds and
  /// operand_cache_*; sets *interrupted when the token skipped some chunk.
  void RunMmHeavyStep(
      ChunkGate& gate, HeavyProduct p, const char* build_span,
      const std::function<std::shared_ptr<const PreparedProduct>(
          const HeavyProduct&)>& build,
      RunRecord* result, bool* interrupted) const;

  /// Sets result's operand_cache_hit (the fit's hit, and `product_hit`)
  /// and operand_cache_bytes.
  void RecordCache(RunRecord* result, bool product_hit = true) const;

 private:
  HeavyOperandCache own_;
  HeavyOperandCache& cache_;
  bool fit_hit_ = false;  // before fit_, whose initializer sets it
  std::shared_ptr<const HeavyFit> fit_;
};

/// The record of a product skipped before its operands were built (the
/// light part already satisfied the sink, or the token fired): the same
/// chunk total RunHeavyProduct would plan, every chunk skipped.
HeavyRun SkippedHeavyRun(const HeavyShape& shape, size_t row_block);

/// The light-part counters a join run feeds: the two-path strategies count
/// chunks (jpmm_join_light_chunks_*), the star strategies their
/// decomposition steps (jpmm_star_light_steps_*).
enum class LightUnit { kChunks, kStarSteps };

/// Adds one join run to the process-wide metrics: kernel blocks, partition
/// engagement and pruning, executed / skipped heavy chunks, executed /
/// skipped light units under `unit`'s counters, the light-pass time, and
/// the heavy-pass time when the run planned heavy chunks.
void RecordRunMetrics(const RunRecord& run, LightUnit unit);

}  // namespace jpmm

#endif  // JPMM_CORE_HEAVY_PRODUCT_H_
