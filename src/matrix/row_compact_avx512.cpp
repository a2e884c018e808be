// AVX-512 float-row compaction: 16 cells per step, one compare into a
// lane mask and one compressed store per output. Compiled with per-file
// -mavx512* flags (CMakeLists.txt).

#include "matrix/row_compact.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <bit>

namespace jpmm {
namespace internal {
namespace {

size_t CompactRowAvx512Impl(const float* v, size_t from, size_t width,
                            uint32_t base, const uint32_t* ids,
                            uint32_t* col_out, uint32_t* count_out) {
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512i iota =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  size_t k = 0;
  for (size_t j = from; j < width; j += 16) {
    const size_t rem = width - j;
    const __mmask16 lanes = rem >= 16 ? static_cast<__mmask16>(0xFFFF)
                                      : static_cast<__mmask16>((1u << rem) - 1);
    const __m512 x = _mm512_maskz_loadu_ps(lanes, v + j);
    const __mmask16 keep = _mm512_mask_cmp_ps_mask(lanes, x, half, _CMP_GT_OQ);
    const __m512i cols =
        ids != nullptr
            ? _mm512_maskz_loadu_epi32(lanes, ids + j)
            : _mm512_add_epi32(
                  iota, _mm512_set1_epi32(static_cast<int>(base + j)));
    // A full step stores all 16 lanes: k <= j - from, so the store ends
    // inside the caller's width - from cells. The tail stores kept lanes
    // only.
    if (rem >= 16) {
      _mm512_storeu_si512(col_out + k, _mm512_maskz_compress_epi32(keep, cols));
      if (count_out != nullptr) {
        _mm512_storeu_si512(count_out + k,
                            _mm512_maskz_compress_epi32(
                                keep, _mm512_maskz_cvttps_epi32(keep, x)));
      }
    } else {
      _mm512_mask_compressstoreu_epi32(col_out + k, keep, cols);
      if (count_out != nullptr) {
        _mm512_mask_compressstoreu_epi32(count_out + k, keep,
                                         _mm512_maskz_cvttps_epi32(keep, x));
      }
    }
    k += static_cast<size_t>(std::popcount(static_cast<unsigned>(keep)));
  }
  return k;
}

}  // namespace

CompactRowFn Avx512CompactRow() { return CompactRowAvx512Impl; }

}  // namespace internal
}  // namespace jpmm

#else  // !__AVX512F__

namespace jpmm {
namespace internal {

CompactRowFn Avx512CompactRow() { return nullptr; }

}  // namespace internal
}  // namespace jpmm

#endif
