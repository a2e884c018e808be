// Algorithm 1 — MMJoin: output-sensitive two-path join-project.
//
//   pi_{x,z}( R(x,y) JOIN S(z,y) )
//
// Light values (degree at or below the thresholds) are evaluated with
// worst-case-optimal index expansion; heavy values are materialized as two
// rectangular 0/1 matrices M1 (heavy-x by heavy-y) and M2 (heavy-y by
// heavy-z) whose product counts the all-heavy witnesses of every output
// pair. The product is computed in row blocks so memory stays bounded by
// the operands plus one block, and row blocks parallelize with no
// coordination (§6).
//
// The counting variant returns exact witness counts — the intersection
// sizes SSJ thresholds on and ordered SSJ sorts by — because the witness
// classes visited by the light part and the matrix product partition the
// witness set (see two_path_internal.h).
//
// The heavy product itself — kernel gates, density grid, pack, the chunk
// loop, float exactness — is the shared executor in core/heavy_product.h
// (docs/kernels.md, "The heavy-product executor"); this file builds its
// operands and turns its rows into pairs.

#ifndef JPMM_CORE_MM_JOIN_H_
#define JPMM_CORE_MM_JOIN_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/density_partition.h"
#include "core/heavy_dispatch.h"
#include "core/heavy_product.h"
#include "core/thresholds.h"
#include "storage/index.h"

namespace jpmm {

class CancelToken;
class ResultSink;
class TraceRecorder;

struct MmJoinOptions {
  Thresholds thresholds;
  int threads = 1;
  /// Produce CountedPair witness counts instead of plain pairs.
  bool count_witnesses = false;
  /// Emit only pairs with >= min_count witnesses (requires counting when
  /// min_count > 1). SSJ sets this to the overlap threshold c.
  uint32_t min_count = 1;
  /// Rows per matrix block (memory = row_block * |heavy_z| floats per
  /// worker). Each block is one MultiplyRowRange call against the shared
  /// packed-B slab (B is packed once per query, not per block); 256 rows =
  /// two MC panels of the blocked kernel.
  size_t row_block = 256;
  /// Heavy-part kernel selection. kAuto picks per product block between the
  /// dense blocked GEMM and the CSR kernels from the block's measured
  /// density (core/heavy_dispatch.h); the force modes pin one kernel
  /// everywhere (equivalence tests diff their sorted outputs).
  HeavyPathMode heavy_path = HeavyPathMode::kAuto;
  /// Measured sparse-kernel rates for the dispatch; nullptr uses
  /// SparseKernelRates::Default() (measured once per process, and only when
  /// a heavy part actually exists under kAuto).
  const SparseKernelRates* sparse_rates = nullptr;
  /// Density-adaptive heavy-part decomposition (core/density_partition.h):
  /// degree-remapped row/column bands with per-block kernels and pruned
  /// provably-empty blocks. kAuto engages the grid when its priced cost
  /// beats the uniform row-block plan and the band slices fit the memory
  /// cap; kForce engages it whenever a heavy product exists (fuzzer /
  /// equivalence tests); kOff always runs the uniform plan. Outputs are
  /// byte-identical either way — the remap is inverted at emit time.
  PartitionMode partition = PartitionMode::kAuto;
  /// Optional cross-execution grid memo owned by the caller's plan state
  /// (see DensityGridCache). On a key match the degree-remap rebuild is
  /// skipped; the hit is recorded in MmJoinResult::partition_cache_hit and
  /// the "degree-remap" trace span's detail. Null = always rebuild.
  DensityGridCache* grid_cache = nullptr;
  /// Push-based result delivery (core/result_sink.h). When set, results
  /// stream into the sink (min_count filtering still applies first) and
  /// MmJoinResult::pairs / counted stay empty; the sink's done() signal is
  /// polled at light-chunk / product-block granularity and skips the
  /// remaining work (skip counts land in the result). When null, results
  /// materialize into the result vectors as before.
  ResultSink* sink = nullptr;
  /// Hard cap on the heavy-part working set. What counts depends on the
  /// representation the chosen kernels need: the CSR index arrays are
  /// always counted; dense M1/M2, the shared packed-B slab, and the
  /// per-worker row-block float buffers (threads * row_block * |heavy_z|)
  /// only when dense or CSR x dense blocks may run; the per-worker stamp
  /// scratch when CSR x CSR may run. Under kAuto the dense representations
  /// are *gated off* when they alone would blow the cap — the query
  /// degrades to the CSR kernels — and thresholds double only when even
  /// the CSR floor does not fit (recorded in adjusted_thresholds). This is
  /// what stops sparse inputs from having their thresholds over-forced by
  /// dense U*V accounting.
  uint64_t max_matrix_bytes = uint64_t{3} << 30;
  /// Optional cancellation token (deadline | explicit cancel), polled at
  /// the same light-chunk / product-block granularity as the sink's done()
  /// signal. A fired token skips the remaining work (skips counted like
  /// sink-driven early exit) and sets MmJoinResult::interrupted; partial
  /// results already delivered stay valid.
  const CancelToken* cancel = nullptr;
  /// Optional per-query stage tracing (core/trace.h). Stage spans
  /// (threshold-fit, light-pass + chunks, heavy: csr-build / degree-remap /
  /// pack / per-block kernels, sink-finish) are recorded under
  /// `trace_parent`. Null = zero cost. Every opened span is closed on every
  /// exit path, including cancel / sink-done early exits.
  TraceRecorder* trace = nullptr;
  int32_t trace_parent = -1;  // TraceRecorder::kNoParent
};

/// The heavy-run record (HeavyRun: kernel choices, partitioning, block
/// accounting) plus the two-path specifics.
struct MmJoinResult : HeavyRun {
  /// Filled when !count_witnesses. Order unspecified.
  std::vector<OutPair> pairs;
  /// Filled when count_witnesses. Order unspecified.
  std::vector<CountedPair> counted;

  Thresholds adjusted_thresholds;  // after any memory-cap adjustment
  uint64_t heavy_rows = 0;         // |heavy x|
  uint64_t heavy_inner = 0;        // |heavy y|
  uint64_t heavy_cols = 0;         // |heavy z|
  double light_seconds = 0.0;
  double heavy_seconds = 0.0;      // operand build + product + emit

  // --- early-exit instrumentation for the light part (sink-driven runs) ---
  uint64_t light_chunks_total = 0;     // planned light-part chunks
  uint64_t light_chunks_executed = 0;  // light-part chunks actually run
  uint64_t light_chunks_skipped = 0;   // light-part chunks skipped

  /// True iff a fired CancelToken (not sink done()) cut the run short:
  /// some planned work was skipped because the token fired. A token that
  /// fires after the last chunk completes does NOT mark the run
  /// interrupted — the output is complete.
  bool interrupted = false;

  size_t size() const { return pairs.empty() ? counted.size() : pairs.size(); }
};

/// Runs Algorithm 1 with explicit thresholds. Use the cost-based optimizer
/// (core/optimizer.h) or the JoinProject facade to choose thresholds.
MmJoinResult MmJoinTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                           const MmJoinOptions& options);

}  // namespace jpmm

#endif  // JPMM_CORE_MM_JOIN_H_
