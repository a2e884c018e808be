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

#include "core/exec_context.h"
#include "core/heavy_product.h"
#include "storage/index.h"

namespace jpmm {

/// The count's options: the execution context (core/exec_context.h) plus
/// the degree threshold. The heavy product always runs PartitionMode::kOff
/// (the context's `partition` is ignored), and a capped run keeps its delta
/// and degrades to the CSR x CSR trace: the CSR adjacency is always
/// counted against max_matrix_bytes, the dense and bit-packed forms only
/// when some product block runs a float kernel. A fired cancel token
/// leaves a PARTIAL count with the record's `interrupted` set — triangle
/// counting has no per-pair output to limit, so this exists for callers
/// that abandon a count mid-flight, not for limit semantics.
struct TriangleCountOptions : ExecContext {
  /// Degree threshold; 0 = pick sqrt(|E|) (the AYZ balance point for
  /// classical multiplication).
  uint64_t delta = 0;
};

/// Counts triangles of an undirected graph given as a symmetric edge
/// relation (both (u,v) and (v,u) present; self-loops ignored). The record
/// carries the count and its light/heavy split (RunRecord::triangles,
/// light_triangles, heavy_triangles), the delta as run in both
/// adjusted_thresholds fields, the heavy vertex count as the heavy operand
/// shape, the A_H * A_H trace product's HeavyRun and the light-vertex
/// enumeration's LightRun.
RunRecord CountTrianglesMm(const IndexedRelation& graph,
                           const TriangleCountOptions& options = {});

/// Combinatorial comparator: node-iterator counting (no matrices).
uint64_t CountTrianglesNodeIterator(const IndexedRelation& graph);

}  // namespace jpmm

#endif  // JPMM_CORE_TRIANGLE_H_
