// AVX-512 VPOPCNTDQ AND-popcount counting product. Compiled with per-file
// -mavx512* flags (CMakeLists.txt); selected only on hosts that report
// VPOPCNTDQ.
//
// The kernel works column-major within 8-column groups: each pass copies a
// block of B^T rows into a panel where word k of the group's 8 rows sits in
// one 512-bit vector. Word k of an A row, broadcast, ANDed with that vector
// and popcounted, then adds one word's witnesses to 8 output cells at once:
// no per-cell horizontal sum, and no lanes wasted on a word count that is
// not a multiple of 8 (a 2-word inner dimension costs 2 steps, not one
// masked 8-word step). Register tiles are 4 A rows x 4 groups (32 columns).
// A panel spans at most kPanelWords words; longer rows take several
// panels, each adding its counts to the cells (exact: integers below
// 2^24), so the per-thread panel stays bounded for any inner dimension.

#include "matrix/bit_rows.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include <algorithm>

namespace jpmm {
namespace internal {
namespace {

constexpr size_t kTileRows = 4;
constexpr size_t kTileGroups = 4;
// Columns per panel: 64 B^T rows of a 19-word (1200-bit) inner dimension
// are 9.5 KB, which stays in L1 while the A rows stream past it.
constexpr size_t kPanelCols = 64;
constexpr size_t kPanelGroups = kPanelCols / 8;
static_assert(kPanelGroups % kTileGroups == 0);
// 256 words (16384 bits): a 128 KB panel.
constexpr size_t kPanelWords = 256;

// panel[(g * kw + k) * 8 + t] = word k of bt row 8g + t (row stride
// `words`), for the ncols <= kPanelCols rows from bt and kw <= kPanelWords
// words; missing rows are zero.
void FillPanel(const uint64_t* bt, size_t ncols, size_t words, size_t kw,
               AlignedVector<uint64_t>* panel) {
  panel->assign(kPanelGroups * kw * 8, 0);
  uint64_t* p = panel->data();
  for (size_t c = 0; c < ncols; ++c) {
    const uint64_t* row = bt + c * words;
    uint64_t* dst = p + (c / 8) * kw * 8 + c % 8;
    for (size_t k = 0; k < kw; ++k) dst[k * 8] = row[k];
  }
}

// Words [0, kw) of rows [i, i + rows) of A (row stride `words`; rows <=
// kTileRows, the missing rows re-read the last one) against panel groups
// [g0, g0 + kTileGroups); writes, or with `add` adds to, the cells of the
// first `rows` rows and of the panel's first `ncols` columns.
void CountTile(const uint64_t* a, size_t i, size_t rows, size_t words,
               size_t kw, const uint64_t* panel, size_t g0, size_t ncols,
               bool add, float* out, size_t ldo) {
  const uint64_t* ar[kTileRows];
  for (size_t r = 0; r < kTileRows; ++r) {
    ar[r] = a + (i + std::min(r, rows - 1)) * words;
  }
  const uint64_t* pg = panel + g0 * kw * 8;
  __m512i acc[kTileRows][kTileGroups];
#pragma GCC unroll 4
  for (size_t r = 0; r < kTileRows; ++r) {
#pragma GCC unroll 4
    for (size_t g = 0; g < kTileGroups; ++g) {
      acc[r][g] = _mm512_setzero_si512();
    }
  }
  for (size_t k = 0; k < kw; ++k) {
    __m512i pv[kTileGroups];
#pragma GCC unroll 4
    for (size_t g = 0; g < kTileGroups; ++g) {
      pv[g] = _mm512_load_si512(pg + (g * kw + k) * 8);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < kTileRows; ++r) {
      const __m512i av = _mm512_set1_epi64(static_cast<long long>(ar[r][k]));
#pragma GCC unroll 4
      for (size_t g = 0; g < kTileGroups; ++g) {
        acc[r][g] = _mm512_add_epi64(
            acc[r][g], _mm512_popcnt_epi64(_mm512_and_si512(av, pv[g])));
      }
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < kTileRows; ++r) {
    if (r >= rows) break;
#pragma GCC unroll 4
    for (size_t g = 0; g < kTileGroups; ++g) {
      const size_t c = (g0 + g) * 8;
      if (c >= ncols) break;
      const auto lanes =
          static_cast<__mmask8>((1u << std::min<size_t>(8, ncols - c)) - 1);
      float* cell = out + r * ldo + c;
      __m256 v = _mm512_cvtepi64_ps(acc[r][g]);
      if (add) v = _mm256_add_ps(v, _mm256_maskz_loadu_ps(lanes, cell));
      _mm256_mask_storeu_ps(cell, lanes, v);
    }
  }
}

void BitCountAvx512Impl(const uint64_t* a, size_t nrows, const uint64_t* bt,
                        size_t ncols, size_t words, float* out) {
  if (words == 0) {  // empty rows: every count is 0
    std::fill(out, out + nrows * ncols, 0.0f);
    return;
  }
  static thread_local AlignedVector<uint64_t> panel;
  for (size_t cb = 0; cb < ncols; cb += kPanelCols) {
    const size_t nc = std::min(kPanelCols, ncols - cb);
    const size_t groups = (nc + 7) / 8;
    for (size_t k0 = 0; k0 < words; k0 += kPanelWords) {
      const size_t kw = std::min(kPanelWords, words - k0);
      FillPanel(bt + cb * words + k0, nc, words, kw, &panel);
      for (size_t i = 0; i < nrows; i += kTileRows) {
        const size_t rows = std::min(kTileRows, nrows - i);
        for (size_t g0 = 0; g0 < groups; g0 += kTileGroups) {
          CountTile(a + k0, i, rows, words, kw, panel.data(), g0, nc, k0 > 0,
                    out + i * ncols + cb, ncols);
        }
      }
    }
  }
}

}  // namespace

BitCountFn Avx512BitCount() { return &BitCountAvx512Impl; }

}  // namespace internal
}  // namespace jpmm

#else  // toolchain cannot emit AVX-512 VPOPCNTDQ: portable path only

namespace jpmm {
namespace internal {
BitCountFn Avx512BitCount() { return nullptr; }
}  // namespace internal
}  // namespace jpmm

#endif
