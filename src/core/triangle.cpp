#include "core/triangle.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/heavy_product.h"
#include "core/trace.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {
namespace {

// Rows per trace product block: two MC panels of the blocked kernel (see
// core/mm_join.h). Shared by the memory-cap accounting and the heavy loop.
constexpr size_t kTraceRowBlock = 256;

}  // namespace

uint64_t CountTrianglesNodeIterator(const IndexedRelation& graph) {
  uint64_t count = 0;
  for (Value v = 0; v < graph.num_x(); ++v) {
    const auto adj = graph.YsOf(v);
    for (size_t i = 0; i < adj.size(); ++i) {
      if (adj[i] <= v) continue;  // count at the minimum-id vertex
      for (size_t j = i + 1; j < adj.size(); ++j) {
        if (adj[j] <= v) continue;
        if (graph.Contains(adj[i], adj[j])) ++count;
      }
    }
  }
  return count;
}

RunRecord CountTrianglesMm(const IndexedRelation& graph,
                           const TriangleCountOptions& options) {
  RunRecord result;
  const uint64_t edges = graph.num_tuples();
  uint64_t delta = options.delta != 0
                       ? options.delta
                       : std::max<uint64_t>(
                             1, static_cast<uint64_t>(std::sqrt(
                                    static_cast<double>(edges))));

  // Heavy vertex set under the (possibly memory-degraded) threshold. The
  // gates (core/heavy_product.h) keep the CSR adjacency as the memory floor
  // and drop the dense matrix + packed slab when they do not fit, so a
  // capped run keeps its delta and degrades to the CSR x CSR trace; delta
  // doubles only when even the floor does not fit.
  const int threads = std::max(1, options.threads);
  std::vector<Value> heavy;
  std::vector<Value> heavy_id;
  for (;;) {
    heavy.clear();
    heavy_id.assign(graph.num_x(), kInvalidValue);
    for (Value v = 0; v < graph.num_x(); ++v) {
      if (graph.DegX(v) > delta) {
        heavy_id[v] = static_cast<Value>(heavy.size());
        heavy.push_back(v);
      }
    }
    // Parallel accumulate: the per-vertex cost is the (skewed) heavy
    // degree, and this runs once per delta-doubling iteration.
    std::vector<uint64_t> nnz_partial(static_cast<size_t>(threads), 0);
    ParallelForDynamic(threads, heavy.size(), /*grain=*/64,
                       [&](size_t i0, size_t i1, int w) {
                         uint64_t local = 0;
                         for (size_t i = i0; i < i1; ++i) {
                           const Value v = heavy[i];
                           for (Value u : graph.YsOf(v)) {
                             if (u != v && heavy_id[u] != kInvalidValue) {
                               ++local;
                             }
                           }
                         }
                         nnz_partial[static_cast<size_t>(w)] += local;
                       });
    uint64_t nnz = 0;
    for (uint64_t c : nnz_partial) nnz += c;
    const uint64_t h = heavy.size();
    const HeavyGates gates =
        GateHeavyProduct(HeavyShape{h, h, h, nnz, nnz, /*same_operand=*/true},
                         options.heavy_path, kTraceRowBlock, threads,
                         options.max_matrix_bytes);
    if (heavy.empty() || gates.bytes <= options.max_matrix_bytes) break;
    delta *= 2;
  }
  result.adjusted_thresholds = Thresholds{delta, delta};
  result.heavy_rows = result.heavy_inner = result.heavy_cols = heavy.size();

  // Light part: triangles containing >= 1 light vertex, counted at their
  // minimum-id light vertex. A neighbour participates only if it is heavy
  // or has a larger id (so no other light vertex claims the triangle
  // first).
  // A chunk either runs or is counted skipped, never both, so executed +
  // skipped is exact at every thread count (the chunk-claim + done() audit
  // invariant — see QueryEngine.DoneMidChunkSkipsIdenticalDownstreamBlocks).
  ChunkGate gate(nullptr, options.cancel);
  std::vector<uint64_t> light_partial(static_cast<size_t>(threads), 0);
  TraceRecorder* const trace_rec = options.trace;
  const TraceRecorder::SpanId tparent = options.trace_parent;
  const TraceRecorder::SpanId light_span =
      TraceBegin(trace_rec, "light-pass", tparent);
  // Dynamic chunks: per-vertex cost is quadratic in (skewed) degree.
  // Accumulate (+=) — a dynamic worker handles many chunks.
  constexpr size_t kLightGrain = 512;
  WallTimer light_timer;
  ParallelForDynamic(threads, graph.num_x(), kLightGrain,
                     [&](size_t v0, size_t v1, int w) {
    if (!gate.Claim()) return;
    uint64_t local = 0;
    std::vector<Value> eligible;
    for (size_t v = v0; v < v1; ++v) {
      const auto vv = static_cast<Value>(v);
      if (graph.DegX(vv) == 0 || graph.DegX(vv) > delta) continue;
      eligible.clear();
      for (Value u : graph.YsOf(vv)) {
        if (u == vv) continue;  // ignore self loops
        if (graph.DegX(u) > delta || u > vv) eligible.push_back(u);
      }
      for (size_t i = 0; i < eligible.size(); ++i) {
        for (size_t j = i + 1; j < eligible.size(); ++j) {
          if (graph.Contains(eligible[i], eligible[j])) ++local;
        }
      }
    }
    light_partial[static_cast<size_t>(w)] += local;
  });
  TraceEnd(trace_rec, light_span);
  result.light_seconds = light_timer.Seconds();
  for (uint64_t c : light_partial) result.light_triangles += c;

  // Heavy part: trace(A_H^3) / 6. A_H is symmetric, so
  // trace(A^3) = sum_{i,j} (A^2)[i][j] * A[i][j]: the executor computes
  // A_H * A_H in row blocks (kernel per block, partition off) and each A^2
  // row is masked by the matching A row — a CSR-indexed gather from a
  // float row, or a sorted-merge intersection with a sparse one.
  bool heavy_interrupted = false;
  if (heavy.size() >= 3) {
    WallTimer heavy_timer;
    TraceRecorder::Scope heavy_scope(trace_rec, "heavy", tparent);
    const size_t h = heavy.size();
    const CsrMatrix csr_a = CsrMatrix::FromRows(
        h, h, threads, [&](size_t i, std::vector<uint32_t>* out) {
          for (Value u : graph.YsOf(heavy[i])) {
            if (u == heavy[i]) continue;
            const Value id = heavy_id[u];
            if (id != kInvalidValue) out->push_back(id);
          }
        });

    std::vector<double> trace_partial(static_cast<size_t>(threads), 0.0);
    HeavyProduct hp;
    static_cast<ExecContext&>(hp) = options;
    hp.trace_parent = heavy_scope.id();
    hp.partition = PartitionMode::kOff;
    hp.row_block = kTraceRowBlock;
    hp.on_row = [&](int w, uint32_t i, const HeavyRow& a2) {
      const auto acols = csr_a.Row(i);
      double local = 0.0;
      if (a2.values != nullptr) {
        // Gather through the CSR row: only A's set cells contribute.
        for (uint32_t j : acols) local += static_cast<double>(a2.values[j]);
      } else {
        // Both column lists ascend; merge-intersect A^2 row with A row.
        size_t p = 0, q = 0;
        while (p < a2.cols.size() && q < acols.size()) {
          if (a2.cols[p] < acols[q]) {
            ++p;
          } else if (a2.cols[p] > acols[q]) {
            ++q;
          } else {
            local += static_cast<double>(a2.counts[p]);
            ++p;
            ++q;
          }
        }
      }
      trace_partial[static_cast<size_t>(w)] += local;
    };
    static_cast<HeavyRun&>(result) =
        RunHeavyProduct(csr_a, csr_a, hp, &heavy_interrupted);
    double trace = 0.0;
    for (double t : trace_partial) trace += t;
    result.heavy_triangles = static_cast<uint64_t>(trace / 6.0 + 0.5);
    result.heavy_seconds = heavy_timer.Seconds();
  }

  static_cast<LightRun&>(result) =
      gate.Record((graph.num_x() + kLightGrain - 1) / kLightGrain);
  result.interrupted |= heavy_interrupted;
  result.triangles = result.light_triangles + result.heavy_triangles;
  return result;
}

}  // namespace jpmm
