// The two-path strategies and the one dispatch over them.
//
// pi_{x,z}(R(x,y) JOIN S(z,y)) has four strategies:
//   kAuto        the cost-based plan (Algorithm 3): WCOJ when the join is
//                small, MMJoin with the plan's thresholds otherwise
//   kMmJoin      Algorithm 1
//   kNonMmJoin   combinatorial output-sensitive join (Lemma 2)
//   kWcojFull    full join + stamp dedup (Prop. 1 baseline)
//
// Results only ever flow into a ResultSink (core/result_sink.h). QueryEngine
// is the front door: it prepares the operands, caches the plan and calls
// RunTwoPath. Callers holding their own indexes and plan call it directly:
//
//   TwoPathStats stats(r, s);
//   PlanChoice plan = ChooseTwoPathPlan(r, s, stats);
//   VectorSink sink;
//   RunTwoPath(r, s, plan, Strategy::kAuto, MmJoinOptions{}, sink);

#ifndef JPMM_CORE_JOIN_PROJECT_H_
#define JPMM_CORE_JOIN_PROJECT_H_

#include "core/exec_context.h"
#include "core/mm_join.h"
#include "core/optimizer.h"
#include "core/result_sink.h"
#include "storage/index.h"

namespace jpmm {

enum class Strategy {
  kAuto,
  kMmJoin,
  kNonMmJoin,
  kWcojFull,
};

const char* StrategyName(Strategy s);

/// The strategy a two-path run executes: kAuto resolves through
/// plan.use_full_wcoj, every other strategy is itself.
Strategy ResolveStrategy(Strategy strategy, const PlanChoice& plan);

/// Runs pi_{x,z}(R JOIN S) under `strategy` into `sink`, with an
/// already-chosen plan (from ChooseTwoPathPlan over the same r, s).
/// Explicit opts.thresholds win; {0, 0} takes the plan's thresholds, for
/// the combinatorial join too (QueryEngine passes it re-balanced ones, see
/// ChooseNonMmThresholds). Aborts on min_count < 1 or on min_count > 1
/// without count_witnesses, whatever the strategy. The options' matrix
/// knobs apply to MMJoin only. The record's HeavyRun part is filled by
/// MMJoin only; a WCOJ run fills its LightRun part and opens a "wcoj-full"
/// trace span.
MmJoinResult RunTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                        const PlanChoice& plan, Strategy strategy,
                        const MmJoinOptions& opts, ResultSink& sink);

/// Full-join + stamp-set dedup reference evaluation (Prop. 1) into `sink`,
/// which must be non-null; its done() stops the scan early (the skipped
/// x-domain chunks are recorded in light_chunks_skipped).
LightRun WcojFullJoinProject(const IndexedRelation& r, const IndexedRelation& s,
                             bool count_witnesses, uint32_t min_count,
                             int threads, ResultSink* sink,
                             const CancelToken* cancel = nullptr);

}  // namespace jpmm

#endif  // JPMM_CORE_JOIN_PROJECT_H_
