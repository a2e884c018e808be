#include "matrix/bit_rows.h"

#include <algorithm>
#include <bit>

#include "common/failpoint.h"
#include "common/thread_pool.h"

namespace jpmm {

BitRows::BitRows(size_t rows, size_t bits)
    : rows_(rows), bits_(bits), words_((bits + 63) / 64) {
  // The bit rows are the dense blocks' packed operands: the pack site.
  JPMM_FAIL_POINT("matmul.pack");
  data_.assign(rows_ * words_, 0);
}

BitRows BitRows::FromRows(const CsrMatrix& a, int threads) {
  BitRows m(a.rows(), a.cols());
  ParallelFor(std::max(1, threads), m.rows_, [&](size_t i0, size_t i1, int) {
    for (size_t i = i0; i < i1; ++i) {
      uint64_t* row = m.data_.data() + i * m.words_;
      for (uint32_t k : a.Row(i)) row[k / 64] |= uint64_t{1} << (k % 64);
    }
  });
  return m;
}

BitRows BitRows::FromColumns(const CsrMatrix& b, int threads) {
  BitRows m(b.cols(), b.rows());
  // Word k of every bit row holds b's rows [64k, 64k + 64): a worker that
  // owns a range of words owns every bit it sets.
  ParallelFor(std::max(1, threads), m.words_, [&](size_t k0, size_t k1, int) {
    const size_t y1 = std::min(b.rows(), k1 * 64);
    for (size_t y = k0 * 64; y < y1; ++y) {
      const uint64_t bit = uint64_t{1} << (y % 64);
      for (uint32_t c : b.Row(y)) m.data_[c * m.words_ + y / 64] |= bit;
    }
  });
  return m;
}

uint64_t BitRowsBytes(uint64_t rows, uint64_t bits) {
  return rows * ((bits + 63) / 64) * sizeof(uint64_t);
}

void BitCountRowRange(const BitRows& a, const BitRows& bt, size_t r0,
                      size_t r1, size_t c0, size_t c1, std::span<float> out) {
  JPMM_CHECK(a.bits() == bt.bits());
  JPMM_CHECK(r0 <= r1 && r1 <= a.rows());
  JPMM_CHECK(c0 <= c1 && c1 <= bt.rows());
  const size_t w = c1 - c0;
  JPMM_CHECK(out.size() >= (r1 - r0) * w);
  if (r1 == r0 || w == 0) return;  // an empty window may come with no buffer
  internal::SelectBitCount(ActiveIsa())(a.Row(r0), r1 - r0, bt.Row(c0), w,
                                        a.words(), out.data());
}

namespace internal {

void BitCountPortable(const uint64_t* a, size_t nrows, const uint64_t* bt,
                      size_t ncols, size_t words, float* out) {
  for (size_t i = 0; i < nrows; ++i) {
    const uint64_t* ar = a + i * words;
    float* orow = out + i * ncols;
    for (size_t c = 0; c < ncols; ++c) {
      const uint64_t* br = bt + c * words;
      uint32_t n = 0;
      for (size_t k = 0; k < words; ++k) n += std::popcount(ar[k] & br[k]);
      orow[c] = static_cast<float>(n);
    }
  }
}

BitCountFn SelectBitCount(KernelIsa isa) {
  if (isa == KernelIsa::kAvx512 && HasAvx512Vpopcntdq()) {
    if (BitCountFn fn = Avx512BitCount()) return fn;
  }
  // AVX2 has no vector popcount; its level gets the scalar POPCNT loop.
  if (isa != KernelIsa::kPortable) {
    if (BitCountFn fn = PopcntBitCount()) return fn;
  }
  return &BitCountPortable;
}

}  // namespace internal
}  // namespace jpmm
