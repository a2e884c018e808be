// Triangle counting with matrix multiplication — the §9 future-work item.
//
// "AYZ algorithm is applicable to counting cycles in graph using matrix
// multiplication": the classic Alon-Yuster-Zwick split. Vertices of degree
// <= Delta are light; triangles touching a light vertex are enumerated
// combinatorially (pairs within a light vertex's neighbourhood + one edge
// probe), while the all-heavy residue is trace(A_H^3) / 6 over the heavy-
// subgraph adjacency matrix — the same degree-partition + dense-product
// pattern as Algorithm 1, applied to a cyclic query. The heavy product runs
// on the shared executor (core/heavy_product.h; docs/kernels.md, "The
// heavy-product executor") with partitioning off.

#ifndef JPMM_CORE_TRIANGLE_H_
#define JPMM_CORE_TRIANGLE_H_

#include <cstdint>

#include "core/heavy_dispatch.h"
#include "core/heavy_product.h"
#include "storage/index.h"

namespace jpmm {

class CancelToken;
class TraceRecorder;

struct TriangleCountOptions {
  /// Degree threshold; 0 = pick sqrt(|E|) (the AYZ balance point for
  /// classical multiplication).
  uint64_t delta = 0;
  int threads = 1;
  /// Cap on the heavy adjacency working set. The CSR representation is
  /// always counted; the dense matrix (and packed slab) only when some
  /// product block runs a float kernel — a capped run degrades to the
  /// CSR x CSR trace instead of doubling delta.
  uint64_t max_matrix_bytes = uint64_t{2} << 30;
  /// Heavy-part kernel selection (core/heavy_dispatch.h).
  HeavyPathMode heavy_path = HeavyPathMode::kAuto;
  /// nullptr uses SparseKernelRates::Default().
  const SparseKernelRates* sparse_rates = nullptr;
  /// Cooperative cancellation: the count loops poll cancel->Fired() at
  /// chunk/block granularity and stop early when it fires (deadline,
  /// explicit cancel, or a watched sink's done() — see
  /// core/cancel_token.h). A cancelled run reports a PARTIAL count
  /// (result.cancelled is set) — triangle counting has no per-pair output
  /// to limit, so this exists for callers that abandon a count mid-flight,
  /// not for limit semantics.
  const CancelToken* cancel = nullptr;
  /// Optional per-query stage tracing under `trace_parent`; null = zero
  /// cost. See MmJoinOptions::trace.
  TraceRecorder* trace = nullptr;
  int32_t trace_parent = -1;  // TraceRecorder::kNoParent
};

/// The heavy-run record of the A_H * A_H trace product (HeavyRun; its
/// block accounting covers the heavy part) plus the count.
struct TriangleCountResult : HeavyRun {
  uint64_t triangles = 0;
  uint64_t light_triangles = 0;  // found via light-vertex enumeration
  uint64_t heavy_triangles = 0;  // found via trace(A_H^3)/6
  uint64_t heavy_vertices = 0;
  uint64_t delta_used = 0;
  // Exact cancellation accounting of the light-enumeration chunks.
  uint64_t light_chunks_total = 0;
  uint64_t light_chunks_executed = 0;
  uint64_t light_chunks_skipped = 0;
  bool cancelled = false;          // counts are partial
};

/// Counts triangles of an undirected graph given as a symmetric edge
/// relation (both (u,v) and (v,u) present; self-loops ignored).
TriangleCountResult CountTrianglesMm(const IndexedRelation& graph,
                                     const TriangleCountOptions& options = {});

/// Combinatorial comparator: node-iterator counting (no matrices).
uint64_t CountTrianglesNodeIterator(const IndexedRelation& graph);

}  // namespace jpmm

#endif  // JPMM_CORE_TRIANGLE_H_
