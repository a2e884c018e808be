// Bit-packed 0/1 rows and the AND-popcount counting product over them.
//
// Every operand the heavy-product executor multiplies (M1, M2, V, W^T,
// A_H) is a 0/1 incidence matrix, so a cell of A * B is |row_i(A) ∩
// col_c(B)|: the popcount of the AND of two bit sets over the inner
// dimension. BitRows holds one such bit set per row, ceil(inner / 64)
// words each and no further padding (a 70-wide inner dimension is 2 words,
// not a 512-bit vector's 8). The executor's dense blocks ("kDenseGemm",
// block:dense) run BitCountRowRange over A's bit rows and the bit rows of
// B^T, i.e. B's columns: one AND + popcount counts 64 (portable, POPCNT)
// or 512 (AVX-512 VPOPCNTDQ) witnesses, and the integer count is exact.
//
// The output is the float row layout CsrDenseRowRange writes, so the
// executor's float emit and its 2^24 exactness gate read both kernels alike.

#ifndef JPMM_MATRIX_BIT_ROWS_H_
#define JPMM_MATRIX_BIT_ROWS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "common/cpu_features.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {

/// rows x bits 0/1 matrix, one bit set of words() 64-bit words per row.
/// Bit k of row i is word k / 64, bit k % 64.
class BitRows {
 public:
  BitRows() = default;

  /// Row i holds a.Row(i): rows = a.rows(), bits = a.cols().
  static BitRows FromRows(const CsrMatrix& a, int threads = 1);
  /// Row c holds column c of b (the rows y with b(y, c) set), i.e. the bit
  /// rows of b^T: rows = b.cols(), bits = b.rows().
  static BitRows FromColumns(const CsrMatrix& b, int threads = 1);

  size_t rows() const { return rows_; }
  size_t bits() const { return bits_; }
  size_t words() const { return words_; }

  const uint64_t* Row(size_t i) const {
    JPMM_DCHECK(i <= rows_);
    return data_.data() + i * words_;
  }

  size_t SizeBytes() const { return data_.size() * sizeof(uint64_t); }

 private:
  BitRows(size_t rows, size_t bits);

  size_t rows_ = 0;
  size_t bits_ = 0;
  size_t words_ = 0;
  AlignedVector<uint64_t> data_;  // rows * words, row-major
};

/// Bytes a BitRows of the given shape occupies (memory-cap accounting
/// before building it).
uint64_t BitRowsBytes(uint64_t rows, uint64_t bits);

/// Rows [r0, r1) x columns [c0, c1) of A * B, where bt holds the bit rows
/// of B^T, into out with row stride w = c1 - c0: out[(i - r0) * w + c - c0]
/// = popcount(a.Row(i) & bt.Row(c)) as a float, the cells CsrDenseRowRange
/// writes for a B of c1 columns. Every cell of the window is overwritten.
/// Safe to call concurrently on disjoint output slices.
void BitCountRowRange(const BitRows& a, const BitRows& bt, size_t r0,
                      size_t r1, size_t c0, size_t c1, std::span<float> out);

namespace internal {

/// out[i * ncols + c] = sum over k < words of popcount(a[i * words + k] &
/// bt[c * words + k]) for i < nrows, c < ncols. Integer counts: every
/// variant writes the same bytes.
using BitCountFn = void (*)(const uint64_t* a, size_t nrows,
                            const uint64_t* bt, size_t ncols, size_t words,
                            float* out);

/// std::popcount over the words of each pair, compiled with the baseline
/// flags (a software popcount unless the build targets a POPCNT host).
void BitCountPortable(const uint64_t* a, size_t nrows, const uint64_t* bt,
                      size_t ncols, size_t words, float* out);

/// The same loop compiled with -mpopcnt: one hardware POPCNT per word.
/// nullptr when the TU was compiled without POPCNT support. Every kAvx2
/// host has POPCNT (DetectBestIsa requires it for that level).
BitCountFn PopcntBitCount();

/// nullptr when the TU was compiled without AVX-512 VPOPCNTDQ support; the
/// host must also report VPOPCNTDQ (SelectBitCount checks it).
BitCountFn Avx512BitCount();

/// kAvx512 on a host with VPOPCNTDQ: the vector popcount. kAvx2, and
/// kAvx512 without VPOPCNTDQ: the POPCNT variant. kPortable: portable.
BitCountFn SelectBitCount(KernelIsa isa);

}  // namespace internal
}  // namespace jpmm

#endif  // JPMM_MATRIX_BIT_ROWS_H_
