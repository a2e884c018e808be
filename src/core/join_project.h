// JoinProject — the library's public facade.
//
// One call point for pi_{x,z}(R(x,y) JOIN S(z,y)) with strategy selection:
//   kAuto        cost-based optimizer (Algorithm 3): WCOJ when the join is
//                small, MMJoin with optimized thresholds otherwise
//   kMmJoin      Algorithm 1 with optimizer-chosen thresholds
//   kNonMmJoin   combinatorial output-sensitive join (Lemma 2)
//   kWcojFull    full join + stamp dedup (Prop. 1 baseline)
//
// Example:
//   BinaryRelation r = ...; r.Finalize();
//   JoinProjectOptions opts;
//   opts.threads = 8;
//   auto result = JoinProject::TwoPath(r, r, opts);
//   for (OutPair p : result.pairs) ...

#ifndef JPMM_CORE_JOIN_PROJECT_H_
#define JPMM_CORE_JOIN_PROJECT_H_

#include <string>
#include <vector>

#include "common/types.h"
#include "core/exec_context.h"
#include "core/mm_join.h"
#include "core/nonmm_join.h"
#include "core/optimizer.h"
#include "core/result_sink.h"
#include "storage/relation.h"

namespace jpmm {

enum class Strategy {
  kAuto,
  kMmJoin,
  kNonMmJoin,
  kWcojFull,
};

const char* StrategyName(Strategy s);

/// The facade's options: the execution context (core/exec_context.h) plus
/// the strategy, the query's counting knobs and where results go.
struct JoinProjectOptions : ExecContext {
  Strategy strategy = Strategy::kAuto;
  /// Produce witness counts (CountedPair). Required when min_count > 1.
  bool count_witnesses = false;
  /// Keep only pairs with >= min_count witnesses (SSJ overlap threshold).
  uint32_t min_count = 1;
  /// Explicit thresholds; {0,0} (default) lets the optimizer choose.
  Thresholds thresholds{0, 0};
  /// Sort the output by (x, z) before returning (oracle-friendly).
  bool sorted = false;
  /// Optional cross-execution grid memo threaded down to MmJoinOptions
  /// (see DensityGridCache); a PreparedQuery's PlanState owns one per heavy
  /// product. Null = always rebuild.
  DensityGridCache* grid_cache = nullptr;
  OptimizerOptions optimizer;
  /// Push-based result delivery (core/result_sink.h). When set, results
  /// stream into the sink, the output vectors stay empty, `sorted` is
  /// ignored (delivery order is unspecified; the caller owns ordering),
  /// and the sink's done() signal short-circuits the remaining light
  /// chunks / heavy product blocks (skip counts land in the output).
  ResultSink* sink = nullptr;
};

/// The heavy-run record (HeavyRun, MMJoin strategy only: operand nnz,
/// per-block kernel decisions, partitioning — what jpmm_cli --explain
/// prints — and the early-exit block accounting), the light-run record
/// (LightRun) and the output.
struct JoinProjectOutput : HeavyRun, LightRun {
  std::vector<OutPair> pairs;
  std::vector<CountedPair> counted;
  PlanChoice plan;
  Strategy executed = Strategy::kMmJoin;
  double seconds = 0.0;

  size_t size() const { return pairs.empty() ? counted.size() : pairs.size(); }
};

/// Up-front validation of a JoinProjectOptions instance: returns an empty
/// string when valid, otherwise a human-readable description of the first
/// problem (min_count > 1 without count_witnesses, non-positive threads,
/// ...). The low-level entry points still JPMM_CHECK the same invariants;
/// validating first turns an abort into a structured error (the
/// QueryEngine path does this for every query).
std::string ValidateJoinProjectOptions(const JoinProjectOptions& opts);

/// Facade for the 2-path query.
class JoinProject {
 public:
  /// pi_{x,z}(R(x,y) JOIN S(z,y)). Both relations must be finalized; pass
  /// the same object twice for a self join.
  static JoinProjectOutput TwoPath(const BinaryRelation& r,
                                   const BinaryRelation& s,
                                   const JoinProjectOptions& opts = {});

  /// Pre-indexed variant (reuses caller-owned indexes).
  static JoinProjectOutput TwoPath(const IndexedRelation& r,
                                   const IndexedRelation& s,
                                   const JoinProjectOptions& opts = {});

  /// Executes with an already-chosen plan (PreparedQuery reuse): skips the
  /// stats build and the optimizer sweep entirely. `plan` must come from
  /// ChooseTwoPathPlan over the same (r, s); opts.strategy == kAuto
  /// resolves through plan.use_full_wcoj as usual.
  static JoinProjectOutput TwoPathWithPlan(const IndexedRelation& r,
                                           const IndexedRelation& s,
                                           const PlanChoice& plan,
                                           const JoinProjectOptions& opts);
};

/// Full-join + stamp-set dedup reference evaluation (Prop. 1). `sink`,
/// when non-null, receives the results instead of the output vectors and
/// can stop the scan early via done() (the skipped x-domain chunks are
/// recorded in light_chunks_skipped).
JoinProjectOutput WcojFullJoinProject(const IndexedRelation& r,
                                      const IndexedRelation& s,
                                      bool count_witnesses, uint32_t min_count,
                                      int threads, ResultSink* sink = nullptr,
                                      const CancelToken* cancel = nullptr);

}  // namespace jpmm

#endif  // JPMM_CORE_JOIN_PROJECT_H_
