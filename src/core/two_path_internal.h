// Internal machinery shared by the MM and combinatorial (Non-MM) two-path
// joins: the witness-class decomposition of Algorithm 1's light part.
//
// For an output pair (a, c), every witness b falls in exactly one class:
//   class L1: (a,b) in R-           (a light, or b light)
//   class L2: (a,b) in R+, (c,b) in S-   => b heavy, c light
//   class H : (a,b) in R+, (c,b) in S+   => a, b, c all heavy
// AccumulateLight() visits classes L1 and L2 for one head value a; class H
// is the caller's heavy strategy (matrix product or pairwise intersection).
// Because the classes partition witnesses, summing contributions gives exact
// witness counts with no cross-part dedup.

#ifndef JPMM_CORE_TWO_PATH_INTERNAL_H_
#define JPMM_CORE_TWO_PATH_INTERNAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/stamp_set.h"
#include "common/types.h"
#include "core/density_partition.h"
#include "storage/index.h"

namespace jpmm::internal {

/// Precomputed light-part context for one (R, S, thresholds) triple.
struct TwoPathContext {
  TwoPathContext(const IndexedRelation& r_in, const IndexedRelation& s_in,
                 Thresholds t);

  const IndexedRelation& r;
  const IndexedRelation& s;
  TwoPathPartition part;

  // CSR over y values: for each b with deg_S(b) > Delta1 and deg_R(b) > 0,
  // the light-z neighbours {c in S[b] : deg_S(c) <= Delta2} (class L2).
  // lightz_offsets is indexed by b directly (size ny + 1; zero-width spans
  // for light or absent b).
  std::vector<uint64_t> lightz_offsets;
  std::vector<Value> lightz_values;

  std::span<const Value> LightZOf(Value b) const {
    return {lightz_values.data() + lightz_offsets[b],
            static_cast<size_t>(lightz_offsets[b + 1] - lightz_offsets[b])};
  }

  /// Adds the class L1 + L2 witness counts of head value a into counter.
  /// First-touched z values are appended to touched. counter must span the
  /// z domain and be in a fresh epoch.
  void AccumulateLight(Value a, StampCounter* counter,
                       std::vector<Value>* touched) const;

  /// Number of class L1+L2 witnesses of head value a (cost instrumentation).
  uint64_t LightWitnessCount(Value a) const;

  /// Resident bytes of the partition and the light-z lists.
  uint64_t Bytes() const {
    return part.Bytes() + sizeof(uint64_t) * lightz_offsets.size() +
           sizeof(Value) * lightz_values.size();
  }
};

}  // namespace jpmm::internal

#endif  // JPMM_CORE_TWO_PATH_INTERNAL_H_
