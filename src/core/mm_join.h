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
//
// Non-MMJoin, the combinatorial output-sensitive comparator (Lemma 2,
// [11]), runs on the same executor: the same threshold fit and operand
// memo, the same light part, the same sink finish and record. Only the
// heavy step differs: the all-heavy witness class is verified pairwise,
// for every (heavy x, heavy z) pair a galloping intersection of their
// heavy-y adjacency lists. This is the O(|D| * |OUT|^{1/2}) algorithm the
// paper benchmarks as "Non-MMJoin"; since the heavy step is the only
// difference, benchmark deltas isolate exactly the matrix-multiplication
// contribution.

#ifndef JPMM_CORE_MM_JOIN_H_
#define JPMM_CORE_MM_JOIN_H_

#include <cstdint>

#include "common/types.h"
#include "core/exec_context.h"
#include "core/heavy_product.h"
#include "core/result_sink.h"
#include "core/thresholds.h"
#include "storage/index.h"

namespace jpmm {

/// Options of both two-path strategies: the execution context
/// (core/exec_context.h) plus what the two-path needs. Non-MMJoin has no
/// matrices, so it ignores heavy_path, partition, max_matrix_bytes and
/// row_block.
struct MmJoinOptions : ExecContext {
  Thresholds thresholds;
  /// Produce CountedPair witness counts instead of plain pairs.
  bool count_witnesses = false;
  /// Emit only pairs with >= min_count witnesses (requires counting when
  /// min_count > 1). SSJ sets this to the overlap threshold c.
  uint32_t min_count = 1;
  /// Rows per matrix block (memory = row_block * |heavy_z| floats per
  /// worker). Each block is one kernel call against operands prepared once
  /// per query, not per block (core/heavy_product.h).
  size_t row_block = 256;
  /// Optional cross-execution memo of the threshold fit, M1 / M2 and
  /// their prepared product, owned by the caller's plan state
  /// (core/heavy_product.h). The fit is looked up first; the operands are
  /// built by the first MMJoin execution that reaches the heavy part
  /// (Non-MMJoin keeps only its fit). Hits show in
  /// RunRecord::operand_cache_hit and on the "threshold-fit", "csr-build"
  /// and "pack" spans. Null = build everything every run.
  HeavyOperandCache* operand_cache = nullptr;
};

/// Runs Algorithm 1 with explicit thresholds, streaming the results into
/// `sink` (core/result_sink.h) in unspecified order, after min_count
/// filtering. The sink's done() is polled at light-chunk / product-block
/// granularity and skips the remaining work (skip counts land in the
/// result). The cost-based optimizer (core/optimizer.h) chooses thresholds;
/// RunTwoPath (core/join_project.h) applies its plan.
RunRecord MmJoinTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                        const MmJoinOptions& options, ResultSink& sink);

/// Runs Non-MMJoin with MMJoin's options (the matrix knobs are ignored; see
/// MmJoinOptions) into `sink`. Delivery and result fields mirror
/// MmJoinTwoPath: heavy_seconds covers the pairwise-intersection phase, and
/// the "heavy blocks" of the early-exit accounting are dynamic chunks of
/// heavy x values.
RunRecord NonMmJoinTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                           const MmJoinOptions& options, ResultSink& sink);

}  // namespace jpmm

#endif  // JPMM_CORE_MM_JOIN_H_
