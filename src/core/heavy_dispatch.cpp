#include "core/heavy_dispatch.h"

#include <algorithm>

#include "common/check.h"
#include "common/metrics.h"
#include "matrix/cost_model.h"

namespace jpmm {

const char* ProductKernelName(ProductKernel k) {
  switch (k) {
    case ProductKernel::kDenseGemm:
      return "dense";
    case ProductKernel::kCsrDense:
      return "csr-dense";
    case ProductKernel::kCsrCsr:
      return "csr-csr";
  }
  return "?";
}

const char* BlockSpanName(ProductKernel k) {
  switch (k) {
    case ProductKernel::kDenseGemm:
      return "block:dense";
    case ProductKernel::kCsrDense:
      return "block:csr-dense";
    case ProductKernel::kCsrCsr:
      return "block:csr-csr";
  }
  return "block:?";
}

const char* HeavyPathModeName(HeavyPathMode m) {
  switch (m) {
    case HeavyPathMode::kAuto:
      return "auto";
    case HeavyPathMode::kForceDense:
      return "force-dense";
    case HeavyPathMode::kForceCsrDense:
      return "force-csr-dense";
    case HeavyPathMode::kForceCsrCsr:
      return "force-csr-csr";
  }
  return "?";
}

ProductKernel ChooseProductKernel(uint64_t rows, uint64_t v, uint64_t w,
                                  uint64_t block_nnz, double expand_ops,
                                  const SparseKernelRates& rates,
                                  bool allow_dense, bool allow_csr_dense) {
  const double cells =
      static_cast<double>(rows) * static_cast<double>(std::max<uint64_t>(1, v));
  const double density = static_cast<double>(block_nnz) / std::max(1.0, cells);
  const double sd_rate = rates.CsrDenseRate(density);
  const double cc_rate = rates.CsrCsrRate(density);

  // The float-row paths (dense, csr-dense) pay an O(rows * W) output scan
  // at emit time; the CSR x CSR path emits straight from its sparse rows.
  // The scan streams like the saxpy, so it is priced at the saxpy rate.
  const double scan = static_cast<double>(rows) * static_cast<double>(w);
  const double dense_sec =
      rates.DenseSeconds(rows, v, w) + SparseProductSeconds(scan, sd_rate);
  const double csr_dense_sec =
      SparseProductSeconds(SparseProductOps(block_nnz, rows, w) + scan,
                           sd_rate);
  const double csr_csr_sec = SparseProductSeconds(expand_ops, cc_rate);

  ProductKernel best = ProductKernel::kCsrCsr;
  double best_sec = csr_csr_sec;
  if (allow_csr_dense && csr_dense_sec < best_sec) {
    best = ProductKernel::kCsrDense;
    best_sec = csr_dense_sec;
  }
  if (allow_dense && dense_sec < best_sec) {
    best = ProductKernel::kDenseGemm;
  }
  return best;
}

std::vector<BlockKernelChoice> PlanProductBlocks(
    const CsrMatrix& a, const CsrMatrix& b, size_t row_block,
    HeavyPathMode mode, const SparseKernelRates* rates, bool allow_dense,
    bool allow_csr_dense, HeavyKernelCounts* counts) {
  JPMM_CHECK(row_block >= 1);
  // Forced modes never price kernels, so the measurement is skipped there.
  if (rates == nullptr && mode == HeavyPathMode::kAuto) {
    rates = &SparseKernelRates::Default();
  }
  const size_t rows = a.rows();
  const size_t num_blocks = (rows + row_block - 1) / row_block;
  static Counter& blocks_planned = MetricsRegistry::Global().GetCounter(
      "jpmm_dispatch_blocks_planned_total");
  blocks_planned.Add(num_blocks);
  std::vector<BlockKernelChoice> choices;
  choices.reserve(num_blocks);
  for (size_t blk = 0; blk < num_blocks; ++blk) {
    BlockKernelChoice c;
    c.row_begin = static_cast<uint32_t>(blk * row_block);
    c.row_end = static_cast<uint32_t>(
        std::min(rows, static_cast<size_t>(c.row_begin) + row_block));
    c.col_begin = 0;
    c.col_end = static_cast<uint32_t>(b.cols());
    c.nnz = a.RowRangeNnz(c.row_begin, c.row_end);
    const double cells = static_cast<double>(c.row_end - c.row_begin) *
                         static_cast<double>(a.cols());
    c.density = cells > 0.0 ? static_cast<double>(c.nnz) / cells : 0.0;
    switch (mode) {
      case HeavyPathMode::kForceDense:
        c.kernel = ProductKernel::kDenseGemm;
        break;
      case HeavyPathMode::kForceCsrDense:
        c.kernel = ProductKernel::kCsrDense;
        break;
      case HeavyPathMode::kForceCsrCsr:
        c.kernel = ProductKernel::kCsrCsr;
        break;
      case HeavyPathMode::kAuto:
        c.kernel = ChooseProductKernel(
            c.row_end - c.row_begin, a.cols(), b.cols(), c.nnz,
            CsrCsrExpandOps(a, b, c.row_begin, c.row_end), *rates, allow_dense,
            allow_csr_dense);
        break;
    }
    if (counts != nullptr) {
      switch (c.kernel) {
        case ProductKernel::kDenseGemm:
          ++counts->dense;
          break;
        case ProductKernel::kCsrDense:
          ++counts->csr_dense;
          break;
        case ProductKernel::kCsrCsr:
          ++counts->csr_csr;
          break;
      }
    }
    choices.push_back(c);
  }
  return choices;
}

}  // namespace jpmm
