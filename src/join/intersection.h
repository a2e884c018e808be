// Sorted-set intersection kernels of the combinatorial (Non-MM) heavy-part
// verification: the two-path counts shared witnesses, the star tests for
// one. The baselines' own set kernels are in baselines/join/sorted_set_ops.h.
// Merge intersection is O(|a| + |b|); galloping is O(|a| log(|b|/|a|)) and
// wins when the lists are lopsided, which is exactly the heavy-value regime.

#ifndef JPMM_JOIN_INTERSECTION_H_
#define JPMM_JOIN_INTERSECTION_H_

#include <span>

#include "common/types.h"

namespace jpmm {

/// |a INTERSECT b| without materializing.
size_t IntersectCount(std::span<const Value> a, std::span<const Value> b);

/// True iff the sorted lists share an element (early exit, galloping on the
/// longer list when sizes are lopsided).
bool IntersectsSorted(std::span<const Value> a, std::span<const Value> b);

}  // namespace jpmm

#endif  // JPMM_JOIN_INTERSECTION_H_
