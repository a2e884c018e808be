// Set containment join (SCJ) — common definitions (Section 4, "SCJ").
//
// Input: one family of sets. Output: all ordered pairs (sub, super) with
// sub != super, elements(sub) SUBSETOF elements(super). Equal sets contain
// each other, so both ordered pairs appear.

#ifndef JPMM_SCJ_SCJ_H_
#define JPMM_SCJ_SCJ_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/result_sink.h"
#include "storage/set_family.h"

namespace jpmm {

struct ContainmentPair {
  Value sub = 0;
  Value super = 0;

  friend bool operator==(const ContainmentPair& a, const ContainmentPair& b) {
    return a.sub == b.sub && a.super == b.super;
  }
  friend bool operator<(const ContainmentPair& a, const ContainmentPair& b) {
    return a.sub != b.sub ? a.sub < b.sub : a.super < b.super;
  }
};

using ScjResult = std::vector<ContainmentPair>;

struct ScjOptions {
  int threads = 1;
  /// LIMIT+ candidate-generation limit (the paper uses 2).
  uint32_t limit = 2;
};

/// Sorts a containment result canonically.
void CanonicalizeScj(ScjResult* result);

/// The answer of a QueryEngine kScj query, executed into `sink`, as an
/// ScjResult in canonical order.
ScjResult ToScjResult(VectorSink& sink);

}  // namespace jpmm

#endif  // JPMM_SCJ_SCJ_H_
