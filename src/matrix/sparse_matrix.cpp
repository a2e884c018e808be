#include "matrix/sparse_matrix.h"

#include <algorithm>
#include <cstring>

#include "common/cpu_features.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "matrix/sparse_kernels.h"

namespace jpmm {

namespace internal {

void ExpandRowPortable(const uint32_t* js, size_t n, StampCounter* counter,
                       AlignedVector<uint32_t>* touched) {
  for (size_t p = 0; p < n; ++p) {
    const uint32_t j = js[p];
    if (counter->Add(j, 1) == 0) touched->push_back(j);
  }
}

ExpandRowFn SelectExpandRow(KernelIsa isa) {
  if (isa == KernelIsa::kAvx512) {
    if (ExpandRowFn fn = Avx512ExpandRow()) return fn;
  }
  // No AVX2 variant: without conflict detection the gather/scatter update
  // is not expressible, so kAvx2 shares the portable expansion.
  return &ExpandRowPortable;
}

}  // namespace internal

CsrMatrix CsrMatrix::FromRows(
    size_t rows, size_t cols, int threads,
    const std::function<void(size_t, std::vector<uint32_t>*)>& fill) {
  JPMM_FAIL_POINT("csr.build");
  CsrMatrix m(cols);
  m.offsets_.assign(rows + 1, 0);
  threads = std::max(1, threads);

  // Pass 1: per-row entry counts into offsets_[i + 1].
  ParallelForDynamic(threads, rows, /*grain=*/64,
                     [&](size_t i0, size_t i1, int) {
                       std::vector<uint32_t> scratch;
                       for (size_t i = i0; i < i1; ++i) {
                         scratch.clear();
                         fill(i, &scratch);
                         m.offsets_[i + 1] = scratch.size();
                       }
                     });
  for (size_t i = 0; i < rows; ++i) m.offsets_[i + 1] += m.offsets_[i];
  m.cols_idx_.resize(m.offsets_[rows]);

  // Pass 2: write each row into its slice (disjoint, race-free).
  ParallelForDynamic(threads, rows, /*grain=*/64,
                     [&](size_t i0, size_t i1, int) {
                       std::vector<uint32_t> scratch;
                       for (size_t i = i0; i < i1; ++i) {
                         scratch.clear();
                         fill(i, &scratch);
                         JPMM_CHECK(scratch.size() ==
                                    m.offsets_[i + 1] - m.offsets_[i]);
                         std::copy(scratch.begin(), scratch.end(),
                                   m.cols_idx_.begin() +
                                       static_cast<ptrdiff_t>(m.offsets_[i]));
                       }
                     });
  return m;
}

CsrMatrix CsrMatrix::FromEntries(
    size_t rows, size_t cols,
    std::span<const std::pair<Value, Value>> entries, bool swapped) {
  JPMM_FAIL_POINT("csr.build");
  CsrMatrix m(cols);
  m.offsets_.assign(rows + 1, 0);
  for (const auto& [a, b] : entries) {
    const Value r = swapped ? b : a;
    JPMM_DCHECK(r < rows);
    ++m.offsets_[r + 1];
  }
  for (size_t i = 0; i < rows; ++i) m.offsets_[i + 1] += m.offsets_[i];
  m.cols_idx_.resize(m.offsets_[rows]);
  std::vector<uint64_t> cursor(m.offsets_.begin(), m.offsets_.end() - 1);
  for (const auto& [a, b] : entries) {
    const Value r = swapped ? b : a;
    const Value c = swapped ? a : b;
    JPMM_DCHECK(c < cols);
    m.cols_idx_[cursor[r]++] = c;
  }
  return m;
}

CsrMatrix CsrMatrix::FromDense(const Matrix& d) {
  CsrMatrix m(d.cols());
  m.ReserveRows(d.rows());
  for (size_t i = 0; i < d.rows(); ++i) {
    const auto row = d.Row(i);
    for (size_t j = 0; j < row.size(); ++j) {
      if (row[j] > 0.5f) m.PushCol(static_cast<uint32_t>(j));
    }
    m.FinishRow();
  }
  return m;
}

Matrix CsrMatrix::ToDense(int threads) const {
  Matrix d(rows(), cols_);
  ParallelFor(std::max(1, threads), rows(), [&](size_t i0, size_t i1, int) {
    for (size_t i = i0; i < i1; ++i) {
      auto out = d.MutableRow(i);
      for (uint32_t c : Row(i)) out[c] = 1.0f;
    }
  });
  return d;
}

uint64_t CsrBytes(uint64_t rows, uint64_t nnz) {
  return nnz * sizeof(uint32_t) + (rows + 1) * sizeof(uint64_t);
}

void CsrDenseRowRange(const CsrMatrix& a, const Matrix& b, size_t r0,
                      size_t r1, std::span<float> out) {
  CsrDenseRowRange(a, b, r0, r1, 0, out);
}

void CsrDenseRowRange(const CsrMatrix& a, const Matrix& b, size_t r0,
                      size_t r1, size_t c0, std::span<float> out) {
  JPMM_CHECK(a.cols() == b.rows());
  JPMM_CHECK(r0 <= r1 && r1 <= a.rows());
  JPMM_CHECK(c0 <= b.cols());
  const size_t ldb = b.cols();
  const size_t w = ldb - c0;
  JPMM_CHECK(out.size() >= (r1 - r0) * w);
  std::fill(out.begin(), out.begin() + static_cast<ptrdiff_t>((r1 - r0) * w),
            0.0f);
  for (size_t i = r0; i < r1; ++i) {
    float* acc = out.data() + (i - r0) * w;
    for (uint32_t k : a.Row(i)) {
      const float* brow = b.data() + static_cast<size_t>(k) * ldb + c0;
      for (size_t j = 0; j < w; ++j) acc[j] += brow[j];
    }
  }
}

Matrix CsrDenseProduct(const CsrMatrix& a, const Matrix& b, int threads) {
  Matrix c(a.rows(), b.cols());
  const size_t w = b.cols();
  // Dynamic bands: per-row cost is the (skewed) row nnz, not a constant.
  ParallelForDynamic(std::max(1, threads), a.rows(), /*grain=*/32,
                     [&](size_t i0, size_t i1, int) {
                       CsrDenseRowRange(a, b, i0, i1,
                                        {c.mutable_data() + i0 * w,
                                         (i1 - i0) * w});
                     });
  return c;
}

void CsrCsrRowRange(const CsrMatrix& a, const CsrMatrix& b, size_t r0,
                    size_t r1, CsrScratch* scratch, SparseRowBlock* out) {
  JPMM_CHECK(a.cols() == b.rows());
  JPMM_CHECK(r0 <= r1 && r1 <= a.rows());
  if (scratch->counter.universe() < b.cols()) {
    scratch->counter.ResizeUniverse(b.cols());
  }
  out->Clear();
  out->offsets.push_back(0);
  // ISA is read once per row range, not per expansion call.
  const internal::ExpandRowFn expand =
      internal::SelectExpandRow(ActiveIsa());
  for (size_t i = r0; i < r1; ++i) {
    scratch->counter.NewEpoch();
    scratch->touched.clear();
    for (uint32_t k : a.Row(i)) {
      const auto brow = b.Row(k);
      expand(brow.data(), brow.size(), &scratch->counter, &scratch->touched);
    }
    // Ascending columns: the sort-merge emit path and the triangle trace
    // intersection both rely on it.
    std::sort(scratch->touched.begin(), scratch->touched.end());
    for (uint32_t j : scratch->touched) {
      out->cols.push_back(j);
      out->counts.push_back(scratch->counter.Get(j));
    }
    out->offsets.push_back(out->cols.size());
  }
}

Matrix CsrCsrProduct(const CsrMatrix& a, const CsrMatrix& b, int threads) {
  Matrix c(a.rows(), b.cols());
  threads = std::max(1, threads);
  std::vector<CsrScratch> scratch(static_cast<size_t>(threads));
  std::vector<SparseRowBlock> blocks(static_cast<size_t>(threads));
  ParallelForDynamic(threads, a.rows(), /*grain=*/32,
                     [&](size_t i0, size_t i1, int w) {
                       auto& sc = scratch[static_cast<size_t>(w)];
                       auto& blk = blocks[static_cast<size_t>(w)];
                       CsrCsrRowRange(a, b, i0, i1, &sc, &blk);
                       for (size_t i = i0; i < i1; ++i) {
                         const auto cols = blk.RowCols(i - i0);
                         const auto counts = blk.RowCounts(i - i0);
                         auto out = c.MutableRow(i);
                         for (size_t e = 0; e < cols.size(); ++e) {
                           out[cols[e]] = static_cast<float>(counts[e]);
                         }
                       }
                     });
  return c;
}

double CsrCsrExpandOps(const CsrMatrix& a, const CsrMatrix& b, size_t r0,
                       size_t r1) {
  JPMM_CHECK(a.cols() == b.rows());
  double ops = 0.0;
  for (size_t i = r0; i < r1; ++i) {
    for (uint32_t k : a.Row(i)) ops += static_cast<double>(b.Row(k).size());
  }
  return ops;
}

Matrix CsrProductReference(const CsrMatrix& a, const Matrix& b) {
  JPMM_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  const size_t w = b.cols();
  std::vector<double> acc(w);
  for (size_t i = 0; i < a.rows(); ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (uint32_t k : a.Row(i)) {
      const float* brow = b.data() + static_cast<size_t>(k) * w;
      for (size_t j = 0; j < w; ++j) acc[j] += brow[j];
    }
    auto out = c.MutableRow(i);
    for (size_t j = 0; j < w; ++j) out[j] = static_cast<float>(acc[j]);
  }
  return c;
}

}  // namespace jpmm
