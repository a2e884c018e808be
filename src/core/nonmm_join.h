// Non-MMJoin: the combinatorial output-sensitive comparator (Lemma 2, [11]).
//
// Identical light-part processing to Algorithm 1, but the all-heavy witness
// class is verified pairwise: for every (heavy x, heavy z) pair, a galloping
// intersection of their heavy-y adjacency lists. This is the
// O(|D| * |OUT|^{1/2}) algorithm the paper benchmarks as "Non-MMJoin"; the
// only difference from MMJoin is the heavy strategy, so benchmark deltas
// isolate exactly the matrix-multiplication contribution.

#ifndef JPMM_CORE_NONMM_JOIN_H_
#define JPMM_CORE_NONMM_JOIN_H_

#include "core/mm_join.h"
#include "storage/index.h"

namespace jpmm {

/// Runs the combinatorial join with MMJoin's options (the matrix knobs are
/// ignored; see MmJoinOptions) into `sink`. Delivery and result fields
/// mirror MmJoinTwoPath: heavy_seconds covers the pairwise-intersection
/// phase, and the "heavy blocks" of the early-exit accounting are dynamic
/// chunks of heavy x values.
MmJoinResult NonMmJoinTwoPath(const IndexedRelation& r,
                              const IndexedRelation& s,
                              const MmJoinOptions& options, ResultSink& sink);

}  // namespace jpmm

#endif  // JPMM_CORE_NONMM_JOIN_H_
