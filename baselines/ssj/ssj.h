// Set similarity join (SSJ) — common definitions (Section 4).
//
// Input: one family of sets R (self join, as in the paper's experiments).
// Output: all unordered pairs {a, b}, a < b, with |a INTERSECT b| >= c.
// The ordered variant additionally reports the overlap and sorts by it
// (descending), "so users see the most similar pairs first".

#ifndef JPMM_SSJ_SSJ_H_
#define JPMM_SSJ_SSJ_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/result_sink.h"
#include "storage/set_family.h"

namespace jpmm {

/// One similar pair; a < b always. overlap is 0 when the algorithm ran in
/// unordered mode and did not compute it.
struct SimilarPair {
  Value a = 0;
  Value b = 0;
  uint32_t overlap = 0;

  friend bool operator==(const SimilarPair& x, const SimilarPair& y) {
    return x.a == y.a && x.b == y.b && x.overlap == y.overlap;
  }
  friend bool operator<(const SimilarPair& x, const SimilarPair& y) {
    if (x.a != y.a) return x.a < y.a;
    if (x.b != y.b) return x.b < y.b;
    return x.overlap < y.overlap;
  }
};

using SsjResult = std::vector<SimilarPair>;

struct SsjOptions {
  /// Overlap threshold c >= 1.
  uint32_t c = 2;
  int threads = 1;
  /// Compute overlaps and sort the result by overlap descending
  /// (ties by pair id).
  bool ordered = false;

  // ---- SizeAware++ optimization toggles (Fig 8 ablation) ----
  /// Heavy phase through Algorithm 1 instead of the inverted-list scan.
  bool use_mm_heavy = true;
  /// Light phase through the two-path join instead of c-subset enumeration.
  bool use_mm_light = true;
  /// Light phase with prefix-tree computation reuse (Example 6); implies
  /// the light phase runs through list merging rather than c-subsets.
  bool use_prefix = true;

  /// Size boundary override for SizeAware / SizeAware++ (0 = use
  /// GetSizeBoundary).
  uint32_t boundary_override = 0;
  /// Maximum prefix-tree depth that materializes merge state.
  uint32_t memo_depth = 64;
};

/// Sorts a result canonically: ordered mode => overlap desc then pair asc;
/// unordered => pair asc.
void CanonicalizeSsj(SsjResult* result, bool ordered);

/// The answer of a QueryEngine kSsj query, executed into `sink`, as an
/// SsjResult in canonical order. `ordered` is the spec's ssj_ordered: an
/// ordered query delivers counted pairs (overlap = witness count), an
/// unordered one plain pairs (overlap 0).
SsjResult ToSsjResult(VectorSink& sink, bool ordered);

}  // namespace jpmm

#endif  // JPMM_SSJ_SSJ_H_
