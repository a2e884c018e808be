#include "core/join_project.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/trace.h"
#include "core/two_path_internal.h"

namespace jpmm {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kAuto:
      return "auto";
    case Strategy::kMmJoin:
      return "mmjoin";
    case Strategy::kNonMmJoin:
      return "nonmm";
    case Strategy::kWcojFull:
      return "wcoj-full";
  }
  return "?";
}

Strategy ResolveStrategy(Strategy strategy, const PlanChoice& plan) {
  if (strategy != Strategy::kAuto) return strategy;
  return plan.use_full_wcoj ? Strategy::kWcojFull : Strategy::kMmJoin;
}

LightRun WcojFullJoinProject(const IndexedRelation& r, const IndexedRelation& s,
                             bool count_witnesses, uint32_t min_count,
                             int threads, ResultSink* sink,
                             const CancelToken* cancel) {
  JPMM_CHECK_MSG(sink != nullptr, "WcojFullJoinProject needs a sink");
  JPMM_CHECK(min_count >= 1);
  JPMM_CHECK_MSG(min_count == 1 || count_witnesses,
                 "min_count > 1 requires count_witnesses");
  threads = std::max(1, threads);
  sink->Open(threads);
  internal::PairEmitters emitters(*sink, threads, s.num_x());
  ChunkGate gate(sink, cancel);
  // A self join's witness counts are symmetric, so each pair is counted
  // from its smaller head only: tuple (a, b) scans y=b's sorted x list
  // from a on, starting at the tuple's stored twin position.
  const bool mirror = &r == &s;
  // How many tuples ahead the mirror prefetches a list start (16 measured
  // best on DBLP).
  constexpr uint32_t kLookahead = 16;

  // Dynamic chunking over the (possibly zipf-skewed) x domain: a hub-heavy
  // contiguous chunk no longer pins one worker (see mm_join.cpp).
  constexpr size_t kGrain = 256;
  ParallelForDynamic(threads, r.num_x(), kGrain,
                     [&](size_t a0, size_t a1, int w) {
    if (!gate.Claim()) return;
    internal::PairEmitter& em = emitters[w];
    // The mirror walks the chunk's tuples as one sequence, so the
    // lookahead runs on across heads up to the chunk's last tuple.
    const uint32_t t_end = r.XBegin(static_cast<Value>(a1));
    for (size_t a = a0; a < a1; ++a) {
      const auto av = static_cast<Value>(a);
      if (r.DegX(av) == 0) continue;
      em.BeginHead();
      if (mirror) {
        for (uint32_t t = r.XBegin(av), t1 = r.XBegin(av + 1); t < t1; ++t) {
          if (t + kLookahead < t_end) {
            __builtin_prefetch(r.XsFromTwin(t + kLookahead).data());
          }
          for (Value c : r.XsFromTwin(t)) em.Add(c, 1);
        }
      } else {
        for (Value b : r.YsOf(av)) {
          for (Value c : s.XsOf(b)) em.Add(c, 1);
        }
      }
      em.EmitTouched(av, count_witnesses, min_count,
                     [&](Value c) { return mirror && c != av ? 2 : 1; });
    }
    em.Flush();
  });
  sink->Finish();
  LightRun run = gate.Record((r.num_x() + kGrain - 1) / kGrain);
  run.mirrored = mirror;
  return run;
}

RunRecord RunTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                     const PlanChoice& plan, Strategy strategy,
                     const MmJoinOptions& opts, ResultSink& sink) {
  const Strategy resolved = ResolveStrategy(strategy, plan);
  if (resolved == Strategy::kWcojFull) {
    TraceRecorder::Scope wcoj_scope(opts.trace, "wcoj-full",
                                    opts.trace_parent);
    RunRecord run;
    static_cast<LightRun&>(run) =
        WcojFullJoinProject(r, s, opts.count_witnesses, opts.min_count,
                            opts.threads, &sink, opts.cancel);
    return run;
  }
  MmJoinOptions mo = opts;
  if (mo.thresholds.delta1 == 0 && mo.thresholds.delta2 == 0) {
    mo.thresholds = plan.thresholds;
  }
  return resolved == Strategy::kMmJoin ? MmJoinTwoPath(r, s, mo, sink)
                                       : NonMmJoinTwoPath(r, s, mo, sink);
}

}  // namespace jpmm
