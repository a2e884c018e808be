// Compaction of one product row into its nonzero cells: the bulk form the
// heavy-product executor hands its callers (HeavyRow::Compact,
// core/heavy_product.h).
//
// The float kernels (the dense bit count and CSR x dense) leave whole
// counts in float cells, so a float row's nonzero cells are those above
// 0.5 and a cell's count is its truncated value. The portable loop stores
// every cell and advances the write index on the nonzero ones, so no cell
// takes a branch; the AVX-512 variant compares 16 cells at once and
// compresses the kept lanes into one store. Every variant returns the same
// cells. A sparse row (CSR x CSR, or gathered across column bands) is
// compacted the same way, advancing on the entries at or after the start.

#ifndef JPMM_MATRIX_ROW_COMPACT_H_
#define JPMM_MATRIX_ROW_COMPACT_H_

#include <cstddef>
#include <cstdint>

#include "common/cpu_features.h"

namespace jpmm {
namespace internal {

/// For each j in [from, width) with v[j] > 0.5f, in order: col_out[k] =
/// ids[j] when ids is non-null, else base + j, and, when count_out is
/// non-null, count_out[k] = v[j] truncated. Returns k. Both outputs need
/// room for width - from cells; what lies past the k-th is unspecified.
using CompactRowFn = size_t (*)(const float* v, size_t from, size_t width,
                                uint32_t base, const uint32_t* ids,
                                uint32_t* col_out, uint32_t* count_out);

size_t CompactRowPortable(const float* v, size_t from, size_t width,
                          uint32_t base, const uint32_t* ids,
                          uint32_t* col_out, uint32_t* count_out);

/// nullptr when the TU was compiled without AVX-512 support.
CompactRowFn Avx512CompactRow();

/// Best available compaction for `isa`, falling back to portable.
CompactRowFn SelectCompactRow(KernelIsa isa);

/// The sparse form: for each e < n with cols[e] >= from, in order:
/// col_out[k] = ids[cols[e]] when ids is non-null, else base + cols[e],
/// and, when count_out is non-null, count_out[k] = counts[e]. Returns k.
/// Both outputs need room for n cells.
size_t CompactSparseRow(const uint32_t* cols, const uint32_t* counts, size_t n,
                        size_t from, uint32_t base, const uint32_t* ids,
                        uint32_t* col_out, uint32_t* count_out);

}  // namespace internal
}  // namespace jpmm

#endif  // JPMM_MATRIX_ROW_COMPACT_H_
