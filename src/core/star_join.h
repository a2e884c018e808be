// Star join-project with matrix multiplication — Section 3.2.
//
//   Q*_k(x1..xk) = R1(x1,y), R2(x2,y), ..., Rk(xk,y)
//
// Partition per relation i:
//   R-i : tuples whose xi is light (deg <= Delta2)
//   R<>i: tuples whose y is light (deg <= Delta1) in every OTHER relation
//   R+i : the rest
// Steps:
//   (1) for each j, WCOJ-join with R-j substituted, project     (light xi)
//   (2) for each j, WCOJ-join with R<>j substituted, project    (light y)
//   (3) group x1..xk into ceil(k/2) / floor(k/2), build rectangular 0/1
//       matrices V (heavy ceil-group combos x heavy y) and W (heavy
//       floor-group combos x heavy y), compute V * W^T, emit nonzeros.
//       The product runs on the shared heavy-product executor
//       (core/heavy_product.h; docs/kernels.md, "The heavy-product
//       executor"), like the two-path's M1 * M2.
// V and W rows are numbered in lexicographic combo order, so the nonzeros
// of V * W^T, read row by row with ascending W ids, are the heavy tuples
// already sorted and (rows being distinct combos) duplicate-free. Only the
// union of the light steps is sorted; one linear merge joins the two and
// streams the result straight into the sink.
// A y value is "heavy" for step (3) iff it is heavy in at least two
// relations — any witness not of that form is covered by step (2). Rows are
// registered lazily (only observed heavy combos), which is equivalent to the
// paper's dense (N/Delta2)^ceil(k/2) indexing but exponentially cheaper in
// memory on real data.
//
// Step (3) splits in two. The threshold fit, the registration, the
// V / W^T operands and their prepared product depend only on the data and
// the HeavyOperandKey; the chunk loop and the emit are per query. A
// PreparedQuery memoizes the first half (HeavyOperandCache,
// core/heavy_product.h), so its repeated executions start at the light
// steps and the heavy part at its chunk loop.

#ifndef JPMM_CORE_STAR_JOIN_H_
#define JPMM_CORE_STAR_JOIN_H_

#include <vector>

#include "core/exec_context.h"
#include "core/heavy_product.h"
#include "core/thresholds.h"
#include "join/star_wcoj.h"
#include "storage/index.h"

namespace jpmm {

/// The star's options: the execution context (core/exec_context.h) plus
/// what the decomposition needs. Under max_matrix_bytes thresholds double
/// until the combo registration fits; the dense V/W representations are
/// additionally gated off (falling back to the CSR kernels) when they alone
/// would exceed the cap. Non-MMJoin has no matrices and ignores heavy_path,
/// partition, max_matrix_bytes and row_block.
struct StarJoinOptions : ExecContext {
  Thresholds thresholds;
  /// Rows per product block (memory = row_block * |W rows| floats / worker).
  /// 256 rows = two MC panels of the blocked kernel, amortizing the per-call
  /// B-panel packing (see core/mm_join.h).
  size_t row_block = 256;
  /// Optional cross-execution memo of the fit, V / W^T and their prepared
  /// product, as in MmJoinOptions::operand_cache; null builds them every
  /// run.
  HeavyOperandCache* operand_cache = nullptr;
};

// Every star strategy delivers its duplicate-free tuples into `sink`
// (core/result_sink.h, OnTuple), which it opens and finishes. The star
// decomposition needs a global tuple dedup, so every sink receives the
// tuples after evaluation, on shard 0, in ascending order, merged straight
// from the light and heavy parts: a PageSink(o, k) holds exactly the slice
// [o, o + k) of the ascending answer. done() and the cancel token are
// polled before each light step and heavy chunk; the merge polls only the
// token, once per V row and once per 4096 light tuples, so a run the token
// does not stop delivers the whole answer (a fired token sets
// `interrupted`).

/// MMJoin for the star query (steps 1-3 above).
RunRecord MmStarJoin(const std::vector<const IndexedRelation*>& rels,
                     const StarJoinOptions& options, ResultSink& sink);

/// Combinatorial comparator: steps 1-2 as above, step 3 replaced by pairwise
/// sorted-intersection of the heavy combos' witness lists (the Lemma-2
/// strategy lifted to stars).
RunRecord NonMmStarJoin(const std::vector<const IndexedRelation*>& rels,
                        const StarJoinOptions& options, ResultSink& sink);

/// Baseline: plain WCOJ over all tuples + dedup (Prop. 1), sorted.
TupleBuffer WcojStarJoin(const std::vector<const IndexedRelation*>& rels,
                         int threads = 1);

/// WcojStarJoin under a "wcoj-full" span, delivered like the other
/// strategies with no heavy part (on shard 0, in ascending order). Reads
/// only the execution context of `options`.
RunRecord WcojFullStarJoin(const std::vector<const IndexedRelation*>& rels,
                           const StarJoinOptions& options, ResultSink& sink);

/// Cost-based threshold selection for the star decomposition: sweeps a
/// geometric Delta grid (Delta1 = Delta2, cf. Example 4's coupling) and
/// balances the exact light-step enumeration cost against bounds on the
/// grouped-matrix build/multiply cost. O(k * |D| * log(maxdeg)).
Thresholds ChooseStarThresholds(
    const std::vector<const IndexedRelation*>& rels);

}  // namespace jpmm

#endif  // JPMM_CORE_STAR_JOIN_H_
