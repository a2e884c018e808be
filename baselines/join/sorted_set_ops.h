// Sorted-set kernels only the baseline algorithms use: materializing
// intersection (PRETTI, PIEJoin, LIMIT+), subset test (LIMIT+ and the SCJ
// oracle) and k-way union (the DBMS-like join). The kernels a query reaches
// (IntersectCount, IntersectsSorted) stay in src/join/intersection.h.

#ifndef JPMM_BASELINES_JOIN_SORTED_SET_OPS_H_
#define JPMM_BASELINES_JOIN_SORTED_SET_OPS_H_

#include <span>
#include <vector>

#include "common/types.h"

namespace jpmm {

/// Appends a INTERSECT b to out; returns the intersection size.
size_t IntersectSorted(std::span<const Value> a, std::span<const Value> b,
                       std::vector<Value>* out);

/// True iff sorted `sub` is a subset of sorted `super`.
bool IsSubsetSorted(std::span<const Value> sub, std::span<const Value> super);

/// K-way union with duplicate elimination: heap-based multiway merge of the
/// sorted input lists into `out` (sorted, unique). Returns out->size().
size_t KWayUnion(const std::vector<std::span<const Value>>& lists,
                 std::vector<Value>* out);

}  // namespace jpmm

#endif  // JPMM_BASELINES_JOIN_SORTED_SET_OPS_H_
