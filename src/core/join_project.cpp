#include "core/join_project.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/stamp_set.h"
#include "common/thread_pool.h"
#include "core/nonmm_join.h"
#include "core/trace.h"

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
  const size_t num_z = s.num_x();

  struct Worker {
    StampCounter counter;
    std::vector<Value> touched;
    ResultSink::Shard* shard = nullptr;
  };
  std::vector<Worker> workers(static_cast<size_t>(threads));

  sink->Open(threads);
  ChunkGate gate(sink, cancel);

  // Dynamic chunking over the (possibly zipf-skewed) x domain: a hub-heavy
  // contiguous chunk no longer pins one worker (see mm_join.cpp).
  constexpr size_t kGrain = 256;
  ParallelForDynamic(threads, r.num_x(), kGrain,
                     [&](size_t a0, size_t a1, int w) {
    if (!gate.Claim()) return;
    Worker& ws = workers[static_cast<size_t>(w)];
    if (ws.shard == nullptr) ws.shard = &sink->shard(w);
    if (ws.counter.universe() < num_z) ws.counter.ResizeUniverse(num_z);
    for (size_t a = a0; a < a1; ++a) {
      const auto av = static_cast<Value>(a);
      if (r.DegX(av) == 0) continue;
      ws.counter.NewEpoch();
      ws.touched.clear();
      for (Value b : r.YsOf(av)) {
        for (Value c : s.XsOf(b)) {
          if (ws.counter.Add(c, 1) == 0) ws.touched.push_back(c);
        }
      }
      for (Value c : ws.touched) {
        const uint32_t cnt = ws.counter.Get(c);
        if (cnt < min_count) continue;
        if (count_witnesses) {
          ws.shard->OnCountedPair(CountedPair{av, c, cnt});
        } else {
          ws.shard->OnPair(OutPair{av, c});
        }
      }
    }
  });
  sink->Finish();
  return gate.Record((r.num_x() + kGrain - 1) / kGrain);
}

MmJoinResult RunTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                        const PlanChoice& plan, Strategy strategy,
                        const MmJoinOptions& opts, ResultSink& sink) {
  const Strategy resolved = ResolveStrategy(strategy, plan);
  if (resolved == Strategy::kWcojFull) {
    TraceRecorder::Scope wcoj_scope(opts.trace, "wcoj-full",
                                    opts.trace_parent);
    MmJoinResult run;
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
