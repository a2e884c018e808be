// The set-join series of the paper's figures (4c, 5, 6a, 7): the engine's
// SSJ and SCJ — the counted self two-path plus a filter, run through
// QueryEngine like a served query — and the competitor algorithms from
// jpmm_baselines. Each Run* call is one evaluation and returns the result
// count, the figures' `out` counter.

#ifndef JPMM_BENCH_SET_JOIN_ENGINES_H_
#define JPMM_BENCH_SET_JOIN_ENGINES_H_

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "scj/limit_plus.h"
#include "scj/piejoin.h"
#include "scj/pretti.h"
#include "ssj/size_aware.h"
#include "ssj/size_aware_pp.h"

namespace jpmm::benchutil {

enum class SsjEngine { kMm, kSizeAwarePP, kSizeAware };

inline constexpr SsjEngine kSsjEngines[] = {
    SsjEngine::kMm, SsjEngine::kSizeAwarePP, SsjEngine::kSizeAware};

inline const char* SsjEngineName(SsjEngine e) {
  switch (e) {
    case SsjEngine::kMm:
      return "MMJoin";
    case SsjEngine::kSizeAwarePP:
      return "SizeAware++";
    case SsjEngine::kSizeAware:
      return "SizeAware";
  }
  return "?";
}

/// One SSJ evaluation at opts.c / opts.ordered / opts.threads. The engine's
/// unordered SSJ materializes into a VectorSink, its ordered SSJ ranks into
/// an OrderedBySink(kCountDescending).
inline size_t RunSsj(benchmark::State& state, const Dataset& ds,
                     SsjEngine engine, const SsjOptions& opts) {
  switch (engine) {
    case SsjEngine::kMm: {
      QuerySpec spec = SelfSpec(QueryKind::kSsj, Strategy::kAuto);
      spec.ssj_c = opts.c;
      spec.ssj_ordered = opts.ordered;
      if (opts.ordered) {
        OrderedBySink sink(ResultOrder::kCountDescending);
        RunQuery(state, ds, spec, sink, opts.threads);
        return sink.ranked().size();
      }
      VectorSink sink;
      RunQuery(state, ds, spec, sink, opts.threads);
      return sink.size();
    }
    case SsjEngine::kSizeAwarePP:
      return SizeAwarePlusPlus(*ds.fam, opts).size();
    case SsjEngine::kSizeAware:
      return SizeAwareJoin(*ds.fam, opts).size();
  }
  return 0;
}

enum class ScjEngine { kMm, kPie, kPretti, kLimit };

inline const char* ScjEngineName(ScjEngine e) {
  switch (e) {
    case ScjEngine::kMm:
      return "MMJoin";
    case ScjEngine::kPie:
      return "PIEJoin";
    case ScjEngine::kPretti:
      return "PRETTI";
    case ScjEngine::kLimit:
      return "LIMIT+";
  }
  return "?";
}

/// One SCJ evaluation at opts.threads; the engine's SCJ materializes into a
/// VectorSink.
inline size_t RunScj(benchmark::State& state, const Dataset& ds,
                     ScjEngine engine, const ScjOptions& opts) {
  switch (engine) {
    case ScjEngine::kMm: {
      VectorSink sink;
      RunQuery(state, ds, SelfSpec(QueryKind::kScj, Strategy::kAuto), sink,
               opts.threads);
      return sink.size();
    }
    case ScjEngine::kPie:
      return PieJoin(*ds.fam, opts).size();
    case ScjEngine::kPretti:
      return PrettiJoin(*ds.fam, opts).size();
    case ScjEngine::kLimit:
      return LimitPlusJoin(*ds.fam, opts).size();
  }
  return 0;
}

}  // namespace jpmm::benchutil

#endif  // JPMM_BENCH_SET_JOIN_ENGINES_H_
