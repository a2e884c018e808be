// Blocked, register-tiled, multithreaded dense matrix multiplication.
//
// This is jpmm's substitute for the paper's Eigen + Intel MKL SGEMM: a
// packed-panel classical O(uvw) kernel with three-level (MC/KC/NC) cache
// blocking and an 8x32 register-accumulator micro-kernel that compiles to
// broadcast + FMA under -O3 -march=native. B panels are packed once per
// (column panel, inner slice) and reused across every row block, so a
// row-range caller pays the packing cost only once per panel. The heavy-
// product executor does not call it: its dense blocks count over bit rows
// (matrix/bit_rows.h); the optimizer's calibration and the fig-3 benches
// time this kernel.
// Parallelism partitions output rows across workers — the
// "coordination-free" scheme of §6: each worker owns a row block and never
// synchronizes with the others. The packed-B slab is built once (packing
// itself parallelized) and shared read-only by every worker, so no worker
// re-packs the same panels.
// See docs/kernels.md for the design and the tuning procedure.
//
// Numerical note: every per-element accumulation still runs in ascending-k
// order, but partial sums are formed per KC slice, so results are
// bit-identical to the naive triple loop only when all intermediate values
// are exactly representable — which holds for jpmm's 0/1 adjacency matrices
// (witness counts are small integers, exact in float up to 2^24).

#ifndef JPMM_MATRIX_MATMUL_H_
#define JPMM_MATRIX_MATMUL_H_

#include <cstddef>
#include <span>

#include "matrix/dense_matrix.h"

namespace jpmm {

/// C = A * B. A is u x v, B is v x w, C is resized to u x w.
/// threads <= 1 runs single-threaded; threads > 1 packs B once into a
/// shared slab and partitions output rows across workers.
/// Bit-identical across thread counts.
void Multiply(const Matrix& a, const Matrix& b, Matrix* c, int threads = 1);

/// Convenience wrapper returning the product.
Matrix Multiply(const Matrix& a, const Matrix& b, int threads = 1);

/// Computes rows [row_begin, row_end) of A * B into `out`, which must have
/// (row_end - row_begin) * b.cols() elements. Single-threaded; this is the
/// bounded-memory building block the join uses to stream the heavy-part
/// product block by block instead of materializing all of M.
void MultiplyRowRange(const Matrix& a, const Matrix& b, size_t row_begin,
                      size_t row_end, std::span<float> out);

/// The pre-blocking seed kernel (ikj saxpy with an inner-dimension tile),
/// single-threaded. Kept as the baseline the kernel microbenchmark measures
/// the blocked kernel against; not used by any query path.
Matrix MultiplyScalarReference(const Matrix& a, const Matrix& b);

/// Naive triple loop, for oracle tests only.
Matrix MultiplyNaive(const Matrix& a, const Matrix& b);

}  // namespace jpmm

#endif  // JPMM_MATRIX_MATMUL_H_
