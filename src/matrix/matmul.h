// Blocked, register-tiled, multithreaded dense matrix multiplication.
//
// This is jpmm's substitute for the paper's Eigen + Intel MKL SGEMM: a
// packed-panel classical O(uvw) kernel with three-level (MC/KC/NC) cache
// blocking and an 8x32 register-accumulator micro-kernel that compiles to
// broadcast + FMA under -O3 -march=native. B panels are packed once per
// (column panel, inner slice) and reused across every row block, so the
// block-streamed join path pays the packing cost only once per panel.
// Parallelism partitions output rows across workers — the
// "coordination-free" scheme of §6: each worker owns a row block and never
// synchronizes with the others. The packed-B slab is built once (packing
// itself parallelized) and shared read-only by every worker (PackedB), so
// no worker re-packs the same panels.
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
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "matrix/dense_matrix.h"

namespace jpmm {

/// B pre-packed into the kernel's (NC x KC) panel layout, all panels at
/// once. Build it once, then any number of workers can stream row ranges
/// against it concurrently (the slab is read-only after construction), so
/// no worker re-packs B per call.
/// Memory: about one padded copy of B (see PackedBBytes).
class PackedB {
 public:
  PackedB() = default;
  /// Packs every panel of b; the packing itself fans out over `threads`
  /// (each kNR-column sub-panel is an independent task).
  explicit PackedB(const Matrix& b, int threads = 1);

  size_t rows() const { return rows_; }      // inner dimension v
  size_t cols() const { return cols_; }      // output columns w
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  size_t size_bytes() const { return data_.size() * sizeof(float); }

  /// Packed panel for the (column panel jc_idx, inner slice pc_idx) pair,
  /// laid out exactly as the kernel's per-call packing buffer.
  const float* Panel(size_t jc_idx, size_t pc_idx) const {
    return data_.data() + offsets_[jc_idx * num_pc_ + pc_idx];
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t num_pc_ = 0;             // inner-dimension slice count
  std::vector<size_t> offsets_;   // panel offsets, jc-major
  // 64-byte base + kNR-float-multiple panel offsets = every panel row is
  // 64-byte aligned, which the AVX-512 micro-kernel's aligned loads assume.
  AlignedVector<float> data_;
};

/// Bytes a PackedB of a v x w matrix occupies (columns padded to the
/// register-tile width). Exposed so memory caps (ExecContext::
/// max_matrix_bytes) can account for the slab before building it.
uint64_t PackedBBytes(uint64_t v, uint64_t w);

/// C = A * B. A is u x v, B is v x w, C is resized to u x w.
/// threads <= 1 runs single-threaded; threads > 1 packs B once into a
/// shared PackedB and partitions output rows across workers.
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

/// Same, against a pre-packed B. Safe to call concurrently from many
/// workers on one shared PackedB — this is how the join paths stream blocks
/// without re-packing B once per worker per block.
void MultiplyRowRange(const Matrix& a, const PackedB& b, size_t row_begin,
                      size_t row_end, std::span<float> out);

/// Column windows of a packed product start on a register-tile boundary.
inline constexpr size_t kColumnWindowAlign = 32;

/// Rows [row_begin, row_end) x columns [col_begin, b.cols()) of A * B into
/// `out`, row stride b.cols() - col_begin. col_begin is a multiple of
/// kColumnWindowAlign or b.cols(): the sweep starts at the packed
/// sub-panel holding it, reading the one shared slab (no copy of B).
void MultiplyRowRange(const Matrix& a, const PackedB& b, size_t row_begin,
                      size_t row_end, size_t col_begin, std::span<float> out);

/// The pre-blocking seed kernel (ikj saxpy with an inner-dimension tile),
/// single-threaded. Kept as the baseline the kernel microbenchmark measures
/// the blocked kernel against; not used by any query path.
Matrix MultiplyScalarReference(const Matrix& a, const Matrix& b);

/// Naive triple loop, for oracle tests only.
Matrix MultiplyNaive(const Matrix& a, const Matrix& b);

}  // namespace jpmm

#endif  // JPMM_MATRIX_MATMUL_H_
