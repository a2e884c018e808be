// CSR boolean sparse matrix + density-calibrated sparse products.
//
// The heavy parts MMJoin materializes are 0/1 adjacency matrices whose
// density (heavy pairs / |heavy_x|*|heavy_y|) on skewed real data is often
// 1e-3 or lower; a dense kernel then spends O(U*V*W) multiplying zeros.
// CsrMatrix stores only the set cells (row offsets + column indices) and is
// built directly from the heavy adjacency lists, skipping the dense
// materialization pass entirely. Three kernel families operate on it:
//
//   CsrDenseRowRange / CsrDenseProduct  - CSR x dense counting product:
//       each CSR row is a saxpy of dense-B rows into a float accumulator
//       row, O(nnz(A) * W) instead of O(U * V * W).
//   CsrCsrRowRange / CsrCsrProduct      - CSR x CSR counting product with
//       an epoch-stamped accumulator, O(sum over A entries of the matching
//       B-row nnz) — the ultra-sparse regime where even reading dense B
//       rows would dominate.
//   *Product(threads)                   - row-band parallel variants on the
//       process-wide pool (ParallelForDynamic: nnz skew per band makes
//       static chunks unbalanced).
//
// Counts accumulate either in float cells (CsrDense*, exact below 2^24,
// same bound as the dense path) or uint32 stamp counters (CsrCsr*, always
// exact). Per-block kernel choice between the dense bit count
// (matrix/bit_rows.h) and these kernels lives in core/heavy_dispatch.h, fed by the measured SparseKernelRates
// (matrix/calibration.h).

#ifndef JPMM_MATRIX_SPARSE_MATRIX_H_
#define JPMM_MATRIX_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "common/stamp_set.h"
#include "common/types.h"
#include "matrix/dense_matrix.h"

namespace jpmm {

/// rows x cols 0/1 matrix in compressed-sparse-row form: per-row spans of
/// column indices. Rows are appended in order (PushCol/FinishRow) or built
/// in parallel via FromRows / FromEntries.
class CsrMatrix {
 public:
  CsrMatrix() { offsets_.push_back(0); }
  explicit CsrMatrix(size_t cols) : cols_(cols) { offsets_.push_back(0); }

  size_t rows() const { return offsets_.size() - 1; }
  size_t cols() const { return cols_; }
  uint64_t nnz() const { return cols_idx_.size(); }

  /// nnz / (rows * cols); 0 for degenerate shapes.
  double Density() const {
    const double cells = static_cast<double>(rows()) * cols_;
    return cells > 0.0 ? static_cast<double>(nnz()) / cells : 0.0;
  }

  /// Column indices of row i, in insertion order (ascending when the source
  /// adjacency lists are sorted, as IndexedRelation's are).
  std::span<const uint32_t> Row(size_t i) const {
    JPMM_DCHECK(i + 1 < offsets_.size());
    return {cols_idx_.data() + offsets_[i],
            static_cast<size_t>(offsets_[i + 1] - offsets_[i])};
  }

  /// nnz of rows [r0, r1) — per-block density for the kernel dispatch.
  uint64_t RowRangeNnz(size_t r0, size_t r1) const {
    JPMM_DCHECK(r0 <= r1 && r1 + 1 <= offsets_.size());
    return offsets_[r1] - offsets_[r0];
  }

  /// Sequential construction: append columns of the current row, then seal
  /// it. Rows are implicitly numbered by FinishRow() call order.
  void PushCol(uint32_t col) {
    JPMM_DCHECK(col < cols_);
    cols_idx_.push_back(col);
  }
  void FinishRow() { offsets_.push_back(cols_idx_.size()); }
  void ReserveNnz(size_t n) { cols_idx_.reserve(n); }
  void ReserveRows(size_t n) { offsets_.reserve(n + 1); }

  /// Parallel two-pass construction. fill(i, out) appends row i's column
  /// indices to out (out arrives empty); it is called twice per row (count
  /// pass + write pass), so it must be deterministic and cheap.
  static CsrMatrix FromRows(
      size_t rows, size_t cols, int threads,
      const std::function<void(size_t, std::vector<uint32_t>*)>& fill);

  /// From (a, b) pairs in arbitrary order via a stable counting sort.
  /// Entry (a, b) lands at (row a, col b), or (row b, col a) when swapped —
  /// the star join uses swapped=true to build the transposed operand from
  /// the same entry list.
  static CsrMatrix FromEntries(
      size_t rows, size_t cols,
      std::span<const std::pair<Value, Value>> entries, bool swapped = false);

  /// CSR view of a dense 0/1 matrix (cells > 0.5f are set). Tests and the
  /// microbenchmark use it so sparse and dense kernels see one operand.
  static CsrMatrix FromDense(const Matrix& m);

  /// Dense 0/1 materialization (row scatter, parallel over rows). This is
  /// how the executor builds a band's dense B when a CSR x dense block
  /// reads it: CSR first, densify only if some block needs it.
  Matrix ToDense(int threads = 1) const;

  /// Payload + index bytes (memory-cap accounting).
  size_t SizeBytes() const {
    return cols_idx_.size() * sizeof(uint32_t) +
           offsets_.size() * sizeof(uint64_t);
  }

 private:
  size_t cols_ = 0;
  // 64-byte-aligned so the SIMD row-expansion and gather kernels get
  // cache-line-aligned bases (common/aligned_buffer.h).
  AlignedVector<uint64_t> offsets_;    // size rows + 1
  AlignedVector<uint32_t> cols_idx_;   // nnz column indices
};

/// Bytes a CsrMatrix with the given shape and nnz occupies — exposed so the
/// memory-cap loops can account for the sparse representation before
/// building it (the mm_join fix: sparse inputs must not be charged dense
/// U*V bytes).
uint64_t CsrBytes(uint64_t rows, uint64_t nnz);

/// Per-worker scratch of the CSR x CSR kernel: an epoch-stamped counter
/// over B's column space plus the touched-column list. Reused across
/// blocks; ResizeUniverse happens lazily inside the kernel.
struct CsrScratch {
  StampCounter counter;
  AlignedVector<uint32_t> touched;
};

/// Sparse output rows of one product block: row r0 + i owns
/// cols/counts[offsets[i], offsets[i+1]), columns ascending. The joins emit
/// straight from this — no O(W) dense scan per output row in the
/// ultra-sparse regime.
struct SparseRowBlock {
  std::vector<size_t> offsets;   // size (#rows) + 1
  std::vector<uint32_t> cols;
  std::vector<uint32_t> counts;

  void Clear() {
    offsets.clear();
    cols.clear();
    counts.clear();
  }
  size_t num_rows() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const uint32_t> RowCols(size_t i) const {
    return {cols.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  std::span<const uint32_t> RowCounts(size_t i) const {
    return {counts.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

/// Rows [r0, r1) of A * B (counting product) into out, which must hold
/// (r1 - r0) * b.cols() floats: zero the slice, then saxpy one dense B row
/// per A entry. Safe to call concurrently on disjoint output slices.
void CsrDenseRowRange(const CsrMatrix& a, const Matrix& b, size_t r0,
                      size_t r1, std::span<float> out);

/// Rows [r0, r1) x columns [c0, b.cols()) of A * B into out, row stride
/// b.cols() - c0: each saxpy reads only the window of its dense B row.
void CsrDenseRowRange(const CsrMatrix& a, const Matrix& b, size_t r0,
                      size_t r1, size_t c0, std::span<float> out);

/// Full A * B with row bands claimed off the shared pool (threads <= 1 runs
/// inline). Bit-identical across thread counts.
Matrix CsrDenseProduct(const CsrMatrix& a, const Matrix& b, int threads = 1);

/// Rows [r0, r1) of A * B with both operands CSR: expand each A entry's
/// B row into the stamp counter, then emit the touched columns in ascending
/// order into out. Counts are exact uint32.
void CsrCsrRowRange(const CsrMatrix& a, const CsrMatrix& b, size_t r0,
                    size_t r1, CsrScratch* scratch, SparseRowBlock* out);

/// Full CSR x CSR counting product, densified (tests / benches / rate
/// calibration). Row-band parallel like CsrDenseProduct.
Matrix CsrCsrProduct(const CsrMatrix& a, const CsrMatrix& b, int threads = 1);

/// Exact stamp-update count of CsrCsrRowRange over rows [r0, r1): the sum,
/// over A entries in the range, of the matching B row's nnz. O(block nnz)
/// to compute — the dispatch and the rate calibration both use it.
double CsrCsrExpandOps(const CsrMatrix& a, const CsrMatrix& b, size_t r0,
                       size_t r1);

/// Unblocked reference: per-row saxpy into double accumulators (an
/// implementation independent of the float kernels — exact for 0/1
/// operands). The oracle for the sparse property tests and the
/// microbenchmark setup verification.
Matrix CsrProductReference(const CsrMatrix& a, const Matrix& b);

}  // namespace jpmm

#endif  // JPMM_MATRIX_SPARSE_MATRIX_H_
