// Per-product-block dense/sparse kernel dispatch for the heavy paths.
//
// Every MM-based plan streams its heavy product in row blocks. The dense
// kernel — the bit-packed AND-popcount product over A's rows and B's
// columns (matrix/bit_rows.h) — does O(rows * V * W / 64) word work per
// block regardless of how many cells are set; the CSR kernels
// (matrix/sparse_matrix.h) do O(nnz * W)
// (CSR x dense saxpy) or O(expansion) (CSR x CSR stamp) work. Which wins
// is a function of the block's measured density and the machine's measured
// rates (SparseKernelRates), so the choice is made per block, from the
// exact block nnz the CSR representation provides for free:
//
//   dense           2 * rows * V64 * W / dense_flops + emit scan
//                   (dense_flops: the bit kernel's measured rate in
//                   dense-equivalent flops/s; V64: V rounded up to whole
//                   64-bit words, SparseKernelRates::DenseSeconds)
//   CSR x dense     SparseProductOps(nnz, rows, W) / rate(d) + emit scan
//   CSR x CSR       CsrCsrExpandOps / rate(d)        (sparse emit, no scan)
//
// The heavy-product executor (core/heavy_product.h — the one place the
// two-path, star and triangle products run; docs/kernels.md) plans its
// uniform blocks through PlanProductBlocks, under representation gates
// (allow_dense / allow_csr_dense) that let a capped run degrade to the
// cheaper-memory kernel instead of doubling thresholds.

#ifndef JPMM_CORE_HEAVY_DISPATCH_H_
#define JPMM_CORE_HEAVY_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "matrix/calibration.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {

/// Execution-path override for the heavy part (options structs; tests force
/// each path and diff sorted outputs).
enum class HeavyPathMode {
  kAuto,          // per-block cost-based choice (the default)
  kForceDense,    // dense (bit-packed AND-popcount) kernel everywhere
  kForceCsrDense, // CSR x dense saxpy everywhere
  kForceCsrCsr,   // CSR x CSR stamp kernel everywhere
};

/// The kernel a product block runs.
enum class ProductKernel {
  kDenseGemm,  // the bit-packed AND-popcount count (matrix/bit_rows.h)
  kCsrDense,
  kCsrCsr,
};

const char* ProductKernelName(ProductKernel k);

/// Trace span name for a product block running kernel `k` ("block:dense",
/// "block:csr-dense", "block:csr-csr") — static literals, so TraceSpan can
/// hold them without allocation. Span counts per name are what `--trace`
/// cross-checks against the per-kernel block counts in `--explain`.
const char* BlockSpanName(ProductKernel k);
const char* HeavyPathModeName(HeavyPathMode m);

/// One product block's dispatch decision (surfaced through the result
/// structs and jpmm_cli --explain). Uniform row-block plans span the full
/// output column range; density-adaptive grids (core/density_partition.h)
/// emit one choice per scheduled row-band x column-band cell, with ranges
/// in remapped coordinates.
struct BlockKernelChoice {
  uint32_t row_begin = 0;
  uint32_t row_end = 0;
  uint32_t col_begin = 0;
  uint32_t col_end = 0;
  uint64_t nnz = 0;      // A-operand nnz inside the block
  double density = 0.0;  // nnz / (rows * inner dim)
  ProductKernel kernel = ProductKernel::kDenseGemm;
};

/// Per-kernel block tallies.
struct HeavyKernelCounts {
  uint64_t dense = 0;
  uint64_t csr_dense = 0;
  uint64_t csr_csr = 0;
  uint64_t total() const { return dense + csr_dense + csr_csr; }
};

/// Cheapest kernel for one rows x v by v x w block with the given exact
/// operation counts, under the representation gates (a disallowed dense /
/// csr-dense falls through to the next cheapest allowed kernel; CSR x CSR
/// is always allowed — it is the memory floor).
ProductKernel ChooseProductKernel(uint64_t rows, uint64_t v, uint64_t w,
                                  uint64_t block_nnz, double expand_ops,
                                  const SparseKernelRates& rates,
                                  bool allow_dense, bool allow_csr_dense);

/// Plans the A * B product (A in CSR; B given in CSR for exact expansion
/// counts) as row blocks of row_block rows each, choosing a kernel per
/// block. mode != kAuto forces that kernel on every block (the caller's
/// memory-cap loop must have sized for it), in which case rates are never
/// consulted. rates == nullptr under kAuto resolves to
/// SparseKernelRates::Default() (measured once per process). counts, when
/// non-null, tallies the choices.
std::vector<BlockKernelChoice> PlanProductBlocks(
    const CsrMatrix& a, const CsrMatrix& b, size_t row_block,
    HeavyPathMode mode, const SparseKernelRates* rates, bool allow_dense,
    bool allow_csr_dense, HeavyKernelCounts* counts);

}  // namespace jpmm

#endif  // JPMM_CORE_HEAVY_DISPATCH_H_
