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

#include "common/types.h"
#include "core/density_partition.h"
#include "core/exec_context.h"
#include "core/heavy_product.h"
#include "core/result_sink.h"
#include "core/thresholds.h"
#include "storage/index.h"

namespace jpmm {

/// Options of both two-path strategies: the execution context
/// (core/exec_context.h) plus what the two-path needs. Non-MMJoin has no
/// matrices, so it ignores heavy_path, partition, max_matrix_bytes,
/// row_block and grid_cache.
struct MmJoinOptions : ExecContext {
  Thresholds thresholds;
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
  /// Optional cross-execution grid memo owned by the caller's plan state
  /// (see DensityGridCache). On a key match the degree-remap rebuild is
  /// skipped; the hit is recorded in MmJoinResult::partition_cache_hit and
  /// the "degree-remap" trace span's detail. Null = always rebuild.
  DensityGridCache* grid_cache = nullptr;
};

/// The heavy-run record (HeavyRun: kernel choices, partitioning, block
/// accounting), the light-run record (LightRun: light chunk accounting,
/// interrupted) and the two-path specifics.
struct MmJoinResult : HeavyRun, LightRun {
  Thresholds adjusted_thresholds;  // after any memory-cap adjustment
  uint64_t heavy_rows = 0;         // |heavy x|
  uint64_t heavy_inner = 0;        // |heavy y|
  uint64_t heavy_cols = 0;         // |heavy z|
  double light_seconds = 0.0;
  double heavy_seconds = 0.0;      // operand build + product + emit
};

/// Runs Algorithm 1 with explicit thresholds, streaming the results into
/// `sink` (core/result_sink.h) in unspecified order, after min_count
/// filtering. The sink's done() is polled at light-chunk / product-block
/// granularity and skips the remaining work (skip counts land in the
/// result). The cost-based optimizer (core/optimizer.h) chooses thresholds;
/// RunTwoPath (core/join_project.h) applies its plan.
MmJoinResult MmJoinTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                           const MmJoinOptions& options, ResultSink& sink);

}  // namespace jpmm

#endif  // JPMM_CORE_MM_JOIN_H_
