// Randomized property tests for the matrix kernels.
//
// The bit-count kernel, the sparse kernels and the heavy-row compaction
// must agree exactly with their references on shapes that exercise every
// edge case: dimensions that are odd, prime, smaller than one vector tile,
// and straddling word and panel boundaries. Dense operands use
// small-integer values, where float accumulation is exact in any order, so
// EXPECT_EQ compares bit-identical payloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "core/heavy_product.h"
#include "matrix/bit_rows.h"
#include "matrix/dense_matrix.h"
#include "matrix/random.h"
#include "matrix/sparse_kernels.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {
namespace {

// Not the shared 0/1 generator: multi-valued entries exercise the exact
// small-integer accumulation the kernels promise.
Matrix RandomIntMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      // Values in {0, 1, 2, 3}, biased toward 0 like an adjacency matrix.
      if (rng.NextBool(0.4)) {
        m.Set(i, j, static_cast<float>(1 + rng.NextBounded(3)));
      }
    }
  }
  return m;
}

// ---- Per-ISA dispatch sweeps ---------------------------------------------
//
// Every dispatch level the host supports must produce byte-identical output
// on shapes that stress the explicit kernels' edge handling: partial
// vector tiles, single-row/column operands, empty windows and masked
// vector tails. Unsupported levels are skipped, not failed — the same test
// list runs on any machine.

std::vector<KernelIsa> SupportedIsas() {
  std::vector<KernelIsa> v{KernelIsa::kPortable};
  if (IsaSupported(KernelIsa::kAvx2)) v.push_back(KernelIsa::kAvx2);
  if (IsaSupported(KernelIsa::kAvx512)) v.push_back(KernelIsa::kAvx512);
  return v;
}

TEST(KernelPropertyIsa, CsrCsrProductMatchesReferencePerIsa) {
  uint64_t seed = 8000;
  for (KernelIsa isa : SupportedIsas()) {
    ScopedIsaOverride force(isa);
    for (const auto& [dim, density] : std::vector<std::pair<size_t, double>>{
             {17, 0.3}, {130, 0.05}, {257, 0.01}}) {
      const Matrix ad = RandomDenseMatrix(dim, dim, density, seed++);
      const Matrix bd = RandomDenseMatrix(dim, dim, density, seed++);
      const CsrMatrix a = CsrMatrix::FromDense(ad);
      const CsrMatrix b = CsrMatrix::FromDense(bd);
      const Matrix want = CsrProductReference(a, bd);
      EXPECT_EQ(CsrCsrProduct(a, b, 1), want)
          << KernelIsaName(isa) << " dim=" << dim << " density=" << density;
    }
  }
}

// ---- Column windows ------------------------------------------------------
//
// A symmetric heavy product computes each chunk's columns from a window
// start on, reading the one prepared B. A windowed row range must equal the
// matching slice of the full product, with row stride w - c0. The window
// kernels (CSR x dense and the bit count) take any start.

// Window starts of a w-column product: the first, an odd one, the middle,
// one past 2048, the last column, and the empty window c0 == w.
std::vector<size_t> WindowStarts(size_t w) {
  std::vector<size_t> starts = {0, 1, w / 3 + 1, w / 2, 2049, w - 1, w};
  std::erase_if(starts, [w](size_t c0) { return c0 > w; });
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  return starts;
}

struct Shape {
  size_t u, v, w;
};

// Shapes for the windows: past 2048 columns, past 512 inner, partial
// vector tiles, and single rows / columns.
const Shape kWindowShapes[] = {
    {13, 70, 2145}, {9, 33, 31}, {130, 517, 97}, {1, 5, 64}, {7, 3, 33},
};

// Row ranges of a u-row operand: all rows, and an interior range.
std::vector<std::pair<size_t, size_t>> RowRanges(size_t u) {
  return {{0, u}, {u / 3, u - u / 4}};
}

void ExpectWindowMatches(const Matrix& want, size_t r0, size_t r1, size_t c0,
                         const std::vector<float>& got,
                         const std::string& where) {
  const size_t width = want.cols() - c0;
  for (size_t i = r0; i < r1; ++i) {
    for (size_t j = c0; j < want.cols(); ++j) {
      ASSERT_EQ(got[(i - r0) * width + j - c0], want.At(i, j))
          << where << " i=" << i << " j=" << j;
    }
  }
}

TEST(KernelPropertyIsa, WindowedCsrDenseMatchesFullProductSlice) {
  uint64_t seed = 9200;
  for (const Shape& s : kWindowShapes) {
    const Matrix ad = RandomDenseMatrix(s.u, s.v, 0.3, seed++);
    const Matrix b = RandomIntMatrix(s.v, s.w, seed++);
    const CsrMatrix a = CsrMatrix::FromDense(ad);
    const Matrix want = CsrProductReference(a, b);
    for (KernelIsa isa : SupportedIsas()) {
      ScopedIsaOverride force(isa);
      for (size_t c0 : WindowStarts(s.w)) {
        for (const auto& [r0, r1] : RowRanges(s.u)) {
          // Pre-filled: the kernel must overwrite every cell of the window.
          std::vector<float> got((r1 - r0) * (s.w - c0), -1.0f);
          CsrDenseRowRange(a, b, r0, r1, c0, got);
          ExpectWindowMatches(want, r0, r1, c0, got,
                              std::string(KernelIsaName(isa)) +
                                  " u=" + std::to_string(s.u) +
                                  " w=" + std::to_string(s.w) +
                                  " c0=" + std::to_string(c0));
        }
      }
    }
  }
}

// The dense blocks' kernel: cell (i, c) of A * B is |row i of A ∩ column c
// of B|. Inner dimensions straddle one word (63, 64, 65), a star-like 70
// (2 words), one 512-bit vector (513 = 8 words + 1 bit) and a two-path-like
// 1200 (19 words: two vectors and a masked tail); 7 and 37 columns leave
// partial 8-column tiles, and windows [c0, c1) start and end off them.
TEST(KernelPropertyIsa, BitCountMatchesIntersectionOracle) {
  uint64_t seed = 9300;
  for (size_t inner : {1u, 63u, 64u, 65u, 70u, 513u, 1200u}) {
    for (size_t cols : {7u, 37u}) {
      constexpr size_t kRows = 13;
      const CsrMatrix a = CsrMatrix::FromDense(
          RandomDenseMatrix(kRows, inner, 0.5, seed++));
      const CsrMatrix b =
          CsrMatrix::FromDense(RandomDenseMatrix(inner, cols, 0.5, seed++));
      std::vector<std::vector<uint32_t>> col_sets(cols);
      for (size_t y = 0; y < inner; ++y) {
        for (uint32_t c : b.Row(y)) {
          col_sets[c].push_back(static_cast<uint32_t>(y));
        }
      }
      const BitRows abits = BitRows::FromRows(a, 2);
      const BitRows btbits = BitRows::FromColumns(b, 2);
      ASSERT_EQ(abits.words(), (inner + 63) / 64);
      for (KernelIsa isa : SupportedIsas()) {
        ScopedIsaOverride force(isa);
        for (const auto& [c0, c1] :
             {std::pair<size_t, size_t>{0, cols}, {3, cols}, {cols, cols},
              {3, cols - 2}, {0, 5}}) {
          for (const auto& [r0, r1] :
               {std::pair<size_t, size_t>{0, kRows}, {4, 10}, {5, 6}}) {
            const size_t w = c1 - c0;
            std::vector<float> got((r1 - r0) * w, -1.0f);
            BitCountRowRange(abits, btbits, r0, r1, c0, c1, got);
            for (size_t i = r0; i < r1; ++i) {
              const auto row = a.Row(i);
              for (size_t c = c0; c < c1; ++c) {
                std::vector<uint32_t> both;
                std::set_intersection(row.begin(), row.end(),
                                      col_sets[c].begin(), col_sets[c].end(),
                                      std::back_inserter(both));
                ASSERT_EQ(got[(i - r0) * w + c - c0],
                          static_cast<float>(both.size()))
                    << KernelIsaName(isa) << " inner=" << inner
                    << " cols=" << cols << " c0=" << c0 << " c1=" << c1
                    << " i=" << i
                    << " c=" << c;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelPropertyIsa, ExpandRowHandlesDuplicateColumns) {
  // CSR rows never repeat a column, so production inputs cannot hit the
  // conflict-lane replay of the AVX-512 expansion. The primitive's contract
  // allows duplicates, so exercise them head-on: every level must agree
  // with the portable expansion on lists dense with repeats (including
  // 16 copies of one value filling a whole vector block).
  std::vector<uint32_t> js;
  Rng rng(42);
  for (size_t i = 0; i < 200; ++i) js.push_back(rng.NextBounded(13));
  for (size_t i = 0; i < 16; ++i) js.push_back(7);
  for (KernelIsa isa : SupportedIsas()) {
    const internal::ExpandRowFn expand = internal::SelectExpandRow(isa);
    StampCounter counter(64);
    AlignedVector<uint32_t> touched;
    counter.NewEpoch();
    expand(js.data(), js.size(), &counter, &touched);

    StampCounter want_counter(64);
    AlignedVector<uint32_t> want_touched;
    want_counter.NewEpoch();
    internal::ExpandRowPortable(js.data(), js.size(), &want_counter,
                                &want_touched);

    std::sort(touched.begin(), touched.end());
    std::sort(want_touched.begin(), want_touched.end());
    ASSERT_EQ(touched, want_touched) << KernelIsaName(isa);
    for (uint32_t j : want_touched) {
      EXPECT_EQ(counter.Get(j), want_counter.Get(j))
          << KernelIsaName(isa) << " col " << j;
    }
  }
}

// HeavyRow::Compact, the bulk form every heavy-row consumer reads, against
// a scalar oracle: float rows at every ISA level (the AVX-512 variant
// steps 16 cells, so widths straddle 16 and 64) and sparse rows in
// ascending and shuffled (gathered) order, under both column maps, from
// several start columns, with counts up to 2^24 - 1. The outputs are
// sized exactly to CellBound(), so a write past the room shows under ASAN.
TEST(KernelPropertyIsa, RowCompactionMatchesScalarOracle) {
  struct Cell {
    uint32_t col = 0;
    uint32_t count = 0;
    bool operator==(const Cell&) const = default;
  };
  enum class Fill { kRandom, kZero, kFull };
  constexpr uint32_t kMaxCount = (uint32_t{1} << 24) - 1;
  constexpr uint32_t kBase = 100;
  Rng rng(9700);
  for (size_t width : {0u, 1u, 15u, 16u, 17u, 63u, 64u, 65u, 1187u}) {
    for (Fill fill : {Fill::kRandom, Fill::kZero, Fill::kFull}) {
      std::vector<uint32_t> count(width, 0);
      std::vector<float> values(width, 0.0f);
      std::vector<uint32_t> ids(width);
      for (size_t j = 0; j < width; ++j) {
        ids[j] = static_cast<uint32_t>(7 * j + 3);
        const bool set = fill == Fill::kFull ||
                         (fill == Fill::kRandom && rng.NextBool(0.4));
        if (!set) continue;
        count[j] = rng.NextBool(0.1) ? kMaxCount - rng.NextBounded(3)
                                     : 1 + rng.NextBounded(5);
        values[j] = static_cast<float>(count[j]);
      }
      // The sparse form of the same row, ascending and shuffled.
      std::vector<uint32_t> cols, counts;
      for (size_t j = 0; j < width; ++j) {
        if (count[j] == 0) continue;
        cols.push_back(static_cast<uint32_t>(j));
        counts.push_back(count[j]);
      }
      std::vector<uint32_t> shuffled_cols = cols, shuffled_counts = counts;
      for (size_t e = shuffled_cols.size(); e > 1; --e) {
        const size_t o = rng.NextBounded(e);
        std::swap(shuffled_cols[e - 1], shuffled_cols[o]);
        std::swap(shuffled_counts[e - 1], shuffled_counts[o]);
      }
      for (size_t from : {size_t{0}, size_t{1}, size_t{7}, size_t{16},
                          width / 2, width}) {
        if (from > width) continue;
        for (bool mapped : {false, true}) {
          auto map = [&](uint32_t j) { return mapped ? ids[j] : kBase + j; };
          auto check = [&](const HeavyRow& row, std::vector<Cell> want,
                           const std::string& where) {
            const size_t bound = row.CellBound();
            std::vector<uint32_t> got_cols(bound), got_counts(bound);
            const size_t n =
                row.Compact(from, got_cols.data(), got_counts.data());
            std::vector<Cell> got;
            for (size_t k = 0; k < n; ++k) {
              got.push_back({got_cols[k], got_counts[k]});
            }
            EXPECT_EQ(got, want) << where;
            std::vector<uint32_t> cols_only(bound);
            ASSERT_EQ(row.Compact(from, cols_only.data(), nullptr), n)
                << where;
            for (size_t k = 0; k < n; ++k) {
              ASSERT_EQ(cols_only[k], want[k].col) << where << " k " << k;
            }
          };
          const std::string where =
              "width " + std::to_string(width) + " fill " +
              std::to_string(static_cast<int>(fill)) + " from " +
              std::to_string(from) + (mapped ? " col_ids" : " col_base");
          HeavyRow row;
          if (mapped) {
            row.col_ids = ids.data();
          } else {
            row.col_base = kBase;
          }
          std::vector<Cell> want;
          for (size_t j = from; j < width; ++j) {
            if (count[j] > 0) {
              want.push_back({map(static_cast<uint32_t>(j)), count[j]});
            }
          }
          for (KernelIsa isa : SupportedIsas()) {
            ScopedIsaOverride force(isa);
            HeavyRow float_row = row;
            float_row.values = values.data();
            float_row.width = width;
            check(float_row, want,
                  where + " float " + KernelIsaName(isa));
          }
          HeavyRow sparse = row;
          sparse.cols = cols;
          sparse.counts = counts;
          check(sparse, want, where + " sparse");
          std::vector<Cell> want_shuffled;
          for (size_t e = 0; e < shuffled_cols.size(); ++e) {
            if (shuffled_cols[e] >= from) {
              want_shuffled.push_back(
                  {map(shuffled_cols[e]), shuffled_counts[e]});
            }
          }
          sparse.cols = shuffled_cols;
          sparse.counts = shuffled_counts;
          check(sparse, want_shuffled, where + " sparse shuffled");
        }
      }
    }
  }
}

// ---- Aligned allocation layer --------------------------------------------

TEST(AlignedBuffer, VmallocAndVectorAre64ByteAligned) {
  for (size_t n : {1u, 7u, 63u, 64u, 1000u, 100001u}) {
    const auto buf = vmalloc<float>(n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kDefaultSlabAlign, 0u)
        << "vmalloc n=" << n;
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(buf.data()[i], 0.0f);  // value-init

    AlignedVector<float> v(n, 1.0f);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kDefaultSlabAlign, 0u)
        << "vector n=" << n;
  }
  // Wider alignment on request.
  const auto wide = vmalloc<uint64_t, 4096>(17);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(wide.data()) % 4096, 0u);
}

}  // namespace
}  // namespace jpmm
