#include "core/join_project.h"

#include <algorithm>

#include "common/check.h"
#include "common/stamp_set.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/trace.h"
#include "storage/stats.h"

namespace jpmm {

std::string ValidateJoinProjectOptions(const JoinProjectOptions& opts) {
  if (opts.threads <= 0) {
    return "threads must be >= 1 (got " + std::to_string(opts.threads) + ")";
  }
  if (opts.min_count < 1) {
    return "min_count must be >= 1";
  }
  if (opts.min_count > 1 && !opts.count_witnesses) {
    return "min_count > 1 requires count_witnesses (witness counts are what "
           "the threshold filters on)";
  }
  if (opts.sink != nullptr && opts.sorted) {
    return "sorted is incompatible with a sink (push delivery has no global "
           "order; sort the materialized output instead)";
  }
  return "";
}

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

JoinProjectOutput WcojFullJoinProject(const IndexedRelation& r,
                                      const IndexedRelation& s,
                                      bool count_witnesses, uint32_t min_count,
                                      int threads, ResultSink* caller_sink,
                                      const CancelToken* cancel) {
  JoinProjectOutput out;
  out.executed = Strategy::kWcojFull;
  threads = std::max(1, threads);
  const size_t num_z = s.num_x();

  struct Worker {
    StampCounter counter;
    std::vector<Value> touched;
    ResultSink::Shard* shard = nullptr;
  };
  std::vector<Worker> workers(static_cast<size_t>(threads));

  VectorSink fallback;
  ResultSink* sink = caller_sink != nullptr ? caller_sink : &fallback;
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
  if (caller_sink == nullptr) {
    out.pairs = std::move(fallback.pairs());
    out.counted = std::move(fallback.counted());
  }
  static_cast<LightRun&>(out) = gate.Record((r.num_x() + kGrain - 1) / kGrain);
  return out;
}

namespace {

// Moves a two-path run's output and records into the facade's output.
void TakeRun(MmJoinResult&& res, JoinProjectOutput* out) {
  out->pairs = std::move(res.pairs);
  out->counted = std::move(res.counted);
  static_cast<HeavyRun&>(*out) = std::move(res);
  static_cast<LightRun&>(*out) = res;
}

}  // namespace

JoinProjectOutput JoinProject::TwoPathWithPlan(const IndexedRelation& r,
                                               const IndexedRelation& s,
                                               const PlanChoice& plan,
                                               const JoinProjectOptions& opts) {
  JPMM_CHECK(opts.min_count >= 1);
  JPMM_CHECK_MSG(opts.min_count == 1 || opts.count_witnesses,
                 "min_count > 1 requires count_witnesses");
  WallTimer timer;

  Strategy strategy = opts.strategy;
  if (strategy == Strategy::kAuto) {
    strategy = plan.use_full_wcoj ? Strategy::kWcojFull : Strategy::kMmJoin;
  }

  Thresholds t = opts.thresholds;
  const bool explicit_thresholds = t.delta1 != 0 || t.delta2 != 0;

  JoinProjectOutput out;
  switch (strategy) {
    case Strategy::kWcojFull: {
      TraceRecorder::Scope wcoj_scope(opts.trace, "wcoj-full",
                                      opts.trace_parent);
      out = WcojFullJoinProject(r, s, opts.count_witnesses, opts.min_count,
                                opts.threads, opts.sink, opts.cancel);
      break;
    }
    case Strategy::kMmJoin:
    case Strategy::kNonMmJoin: {
      MmJoinOptions mo;
      static_cast<ExecContext&>(mo) = opts;
      mo.count_witnesses = opts.count_witnesses;
      mo.min_count = opts.min_count;
      mo.grid_cache = opts.grid_cache;
      mo.sink = opts.sink;
      if (explicit_thresholds) {
        mo.thresholds = t;
      } else if (strategy == Strategy::kMmJoin) {
        mo.thresholds = plan.thresholds;
      } else {
        // A cached plan carries MMJoin thresholds; the combinatorial join
        // re-balances unless the caller pinned thresholds explicitly.
        TwoPathStats stats(r, s);
        mo.thresholds = ChooseNonMmThresholds(r, s, stats);
      }
      TakeRun(strategy == Strategy::kMmJoin ? MmJoinTwoPath(r, s, mo)
                                            : NonMmJoinTwoPath(r, s, mo),
              &out);
      out.executed = strategy;
      break;
    }
    case Strategy::kAuto:
      JPMM_CHECK_MSG(false, "unreachable");
  }

  if (opts.sorted && opts.sink == nullptr) {
    std::sort(out.pairs.begin(), out.pairs.end());
    std::sort(out.counted.begin(), out.counted.end());
  }
  out.plan = plan;
  out.seconds = timer.Seconds();
  return out;
}

JoinProjectOutput JoinProject::TwoPath(const IndexedRelation& r,
                                       const IndexedRelation& s,
                                       const JoinProjectOptions& opts) {
  JPMM_CHECK(opts.min_count >= 1);
  JPMM_CHECK_MSG(opts.min_count == 1 || opts.count_witnesses,
                 "min_count > 1 requires count_witnesses");
  WallTimer timer;

  TwoPathStats stats(r, s);
  OptimizerOptions oo = opts.optimizer;
  oo.threads = opts.threads;
  PlanChoice plan = ChooseTwoPathPlan(r, s, stats, oo);

  // The NonMM threshold choice needs the stats we already have; pin it so
  // TwoPathWithPlan does not rebuild them.
  JoinProjectOptions inner = opts;
  if (opts.strategy == Strategy::kNonMmJoin && opts.thresholds.delta1 == 0 &&
      opts.thresholds.delta2 == 0) {
    inner.thresholds = ChooseNonMmThresholds(r, s, stats);
  }
  JoinProjectOutput out = TwoPathWithPlan(r, s, plan, inner);
  out.seconds = timer.Seconds();
  return out;
}

JoinProjectOutput JoinProject::TwoPath(const BinaryRelation& r,
                                       const BinaryRelation& s,
                                       const JoinProjectOptions& opts) {
  JPMM_CHECK_MSG(r.finalized() && s.finalized(),
                 "call Finalize() before querying");
  IndexedRelation ri(r);
  if (&r == &s) return TwoPath(ri, ri, opts);
  IndexedRelation si(s);
  return TwoPath(ri, si, opts);
}

}  // namespace jpmm
