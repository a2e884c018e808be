// Scalar AND-popcount counting product with the hardware POPCNT
// instruction. Compiled with a per-file -mpopcnt flag (CMakeLists.txt):
// the baseline x86-64 target has no POPCNT, so without it std::popcount
// lowers to a software bit-twiddling sequence. Selected at the kAvx2 level
// and on AVX-512 hosts without VPOPCNTDQ.
//
// Register tile: one A row against 4 B^T rows, so each A word is loaded
// once per 4 cells; the loop is POPCNT-throughput bound (one per cycle).

#include "matrix/bit_rows.h"

#if defined(__POPCNT__)

#include <bit>

namespace jpmm {
namespace internal {
namespace {

constexpr size_t kTileCols = 4;

void BitCountPopcntImpl(const uint64_t* a, size_t nrows, const uint64_t* bt,
                        size_t ncols, size_t words, float* out) {
  const size_t full = ncols - ncols % kTileCols;
  for (size_t i = 0; i < nrows; ++i) {
    const uint64_t* ar = a + i * words;
    float* orow = out + i * ncols;
    size_t c = 0;
    for (; c < full; c += kTileCols) {
      const uint64_t* b0 = bt + c * words;
      const uint64_t* b1 = b0 + words;
      const uint64_t* b2 = b1 + words;
      const uint64_t* b3 = b2 + words;
      uint32_t n0 = 0, n1 = 0, n2 = 0, n3 = 0;
      for (size_t k = 0; k < words; ++k) {
        const uint64_t w = ar[k];
        n0 += std::popcount(w & b0[k]);
        n1 += std::popcount(w & b1[k]);
        n2 += std::popcount(w & b2[k]);
        n3 += std::popcount(w & b3[k]);
      }
      orow[c] = static_cast<float>(n0);
      orow[c + 1] = static_cast<float>(n1);
      orow[c + 2] = static_cast<float>(n2);
      orow[c + 3] = static_cast<float>(n3);
    }
    for (; c < ncols; ++c) {
      const uint64_t* br = bt + c * words;
      uint32_t n = 0;
      for (size_t k = 0; k < words; ++k) n += std::popcount(ar[k] & br[k]);
      orow[c] = static_cast<float>(n);
    }
  }
}

}  // namespace

BitCountFn PopcntBitCount() { return &BitCountPopcntImpl; }

}  // namespace internal
}  // namespace jpmm

#else  // toolchain cannot emit POPCNT: portable path only

namespace jpmm {
namespace internal {
BitCountFn PopcntBitCount() { return nullptr; }
}  // namespace internal
}  // namespace jpmm

#endif
