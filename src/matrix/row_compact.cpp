#include "matrix/row_compact.h"

#include <type_traits>

namespace jpmm {
namespace internal {
namespace {

// Calls loop(map, counts) with the column map (ids[j], or base + j) and
// whether counts are written as compile-time types, so each combination
// is its own loop with the row in locals.
template <class Loop>
size_t Dispatch(uint32_t base, const uint32_t* ids, bool counts, Loop loop) {
  auto with_map = [&](auto kCounts) {
    if (ids == nullptr) {
      return loop([base](size_t j) { return base + static_cast<uint32_t>(j); },
                  kCounts);
    }
    return loop([ids](size_t j) { return ids[j]; }, kCounts);
  };
  return counts ? with_map(std::true_type{}) : with_map(std::false_type{});
}

}  // namespace

size_t CompactRowPortable(const float* v, size_t from, size_t width,
                          uint32_t base, const uint32_t* ids,
                          uint32_t* col_out, uint32_t* count_out) {
  return Dispatch(base, ids, count_out != nullptr, [&](auto map, auto kCounts) {
    size_t k = 0;
    for (size_t j = from; j < width; ++j) {
      const float x = v[j];
      col_out[k] = map(j);
      if constexpr (kCounts) count_out[k] = static_cast<uint32_t>(x);
      k += x > 0.5f;
    }
    return k;
  });
}

size_t CompactSparseRow(const uint32_t* cols, const uint32_t* counts, size_t n,
                        size_t from, uint32_t base, const uint32_t* ids,
                        uint32_t* col_out, uint32_t* count_out) {
  return Dispatch(base, ids, count_out != nullptr, [&](auto map, auto kCounts) {
    size_t k = 0;
    for (size_t e = 0; e < n; ++e) {
      col_out[k] = map(cols[e]);
      if constexpr (kCounts) count_out[k] = counts[e];
      k += cols[e] >= from;
    }
    return k;
  });
}

CompactRowFn SelectCompactRow(KernelIsa isa) {
  if (isa == KernelIsa::kAvx512) {
    if (CompactRowFn fn = Avx512CompactRow()) return fn;
  }
  return CompactRowPortable;
}

}  // namespace internal
}  // namespace jpmm
