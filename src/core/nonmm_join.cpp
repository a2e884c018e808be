#include "core/nonmm_join.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/heavy_product.h"
#include "core/result_sink.h"
#include "core/trace.h"
#include "core/two_path_internal.h"
#include "join/intersection.h"

namespace jpmm {

RunRecord NonMmJoinTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                           const MmJoinOptions& opts, ResultSink& sink) {
  JPMM_CHECK(opts.min_count >= 1);
  JPMM_CHECK_MSG(opts.min_count == 1 || opts.count_witnesses,
                 "min_count > 1 requires count_witnesses");
  Thresholds t = opts.thresholds;
  t.delta1 = std::max<uint64_t>(1, t.delta1);
  t.delta2 = std::max<uint64_t>(1, t.delta2);

  const internal::TwoPathContext ctx(r, s, t);
  const TwoPathPartition& part = ctx.part;
  const auto& hxs = part.heavy_x();
  const auto& hys = part.heavy_y();
  const auto& hzs = part.heavy_z();

  RunRecord result;
  result.adjusted_thresholds = t;
  result.heavy_rows = hxs.size();
  result.heavy_inner = hys.size();
  result.heavy_cols = hzs.size();
  const bool use_heavy = !hxs.empty() && !hys.empty() && !hzs.empty();

  // Heavy-y adjacency lists by heavy id: ascending because heavy-y ids are
  // assigned in ascending b order and CSR neighbour lists are b-sorted.
  std::vector<std::vector<Value>> r_heavy(hxs.size());
  std::vector<std::vector<Value>> s_heavy(hzs.size());
  if (use_heavy) {
    for (size_t i = 0; i < hxs.size(); ++i) {
      for (Value b : r.YsOf(hxs[i])) {
        const Value id = part.HeavyYId(b);
        if (id != kInvalidValue) r_heavy[i].push_back(id);
      }
    }
    for (size_t j = 0; j < hzs.size(); ++j) {
      for (Value b : s.YsOf(hzs[j])) {
        const Value id = part.HeavyYId(b);
        if (id != kInvalidValue) s_heavy[j].push_back(id);
      }
    }
  }

  const int threads = std::max(1, opts.threads);
  sink.Open(threads);
  internal::PairEmitters emitters(sink, threads, s.num_x());
  ChunkGate light_gate(&sink, opts.cancel);
  ChunkGate heavy_gate(&sink, opts.cancel);

  auto emit_head = [&](Value a, bool with_heavy, internal::PairEmitter* em) {
    em->BeginHead();
    ctx.AccumulateLight(a, em);
    if (with_heavy) {
      const auto& ha = r_heavy[part.HeavyXId(a)];
      if (!ha.empty()) {
        for (size_t j = 0; j < hzs.size(); ++j) {
          const auto& hc = s_heavy[j];
          if (hc.empty()) continue;
          if (opts.count_witnesses) {
            const auto cnt = static_cast<uint32_t>(IntersectCount(ha, hc));
            if (cnt > 0) em->Add(hzs[j], cnt);
          } else if (em->Get(hzs[j]) == 0 && IntersectsSorted(ha, hc)) {
            em->Add(hzs[j], 1);
          }
        }
      }
    }
    em->EmitTouched(a, opts.count_witnesses, opts.min_count);
  };

  TraceRecorder* const trace = opts.trace;
  const TraceRecorder::SpanId tparent = opts.trace_parent;

  // Dynamic chunking over the (zipf-skewed) x domain — see mm_join.cpp.
  WallTimer light_timer;
  const TraceRecorder::SpanId light_span =
      TraceBegin(trace, "light-pass", tparent);
  constexpr size_t kLightGrain = 256;
  ParallelForDynamic(threads, r.num_x(), kLightGrain,
                     [&](size_t a0, size_t a1, int w) {
    if (!light_gate.Claim()) return;
    internal::PairEmitter& em = emitters[w];
    for (size_t a = a0; a < a1; ++a) {
      const auto av = static_cast<Value>(a);
      if (r.DegX(av) == 0) continue;
      if (use_heavy && part.HeavyXId(av) != kInvalidValue) continue;
      emit_head(av, false, &em);
    }
    em.Flush();
  });
  TraceEnd(trace, light_span);
  result.light_seconds = light_timer.Seconds();

  // The heavy "block" here is one dynamic chunk of kHeavyGrain rows: every
  // ParallelForDynamic invocation below claims exactly one unit of the
  // gate, and heavy_blocks_total is derived from the same grain, so
  // executed + skipped == total at every thread count (the chunk-claim +
  // done() audit invariant).
  constexpr size_t kHeavyGrain = 4;
  if (use_heavy) {
    WallTimer heavy_timer;
    TraceRecorder::Scope heavy_scope(trace, "heavy", tparent);
    ParallelForDynamic(threads, hxs.size(), kHeavyGrain,
                       [&](size_t i0, size_t i1, int w) {
      if (!heavy_gate.Claim()) return;
      internal::PairEmitter& em = emitters[w];
      for (size_t i = i0; i < i1; ++i) emit_head(hxs[i], true, &em);
      em.Flush();
    });
    result.heavy_seconds = heavy_timer.Seconds();
  }

  {
    TraceRecorder::Scope finish_scope(trace, "sink-finish", tparent);
    sink.Finish();
  }
  result.heavy_blocks_total =
      use_heavy ? (hxs.size() + kHeavyGrain - 1) / kHeavyGrain : 0;
  result.heavy_blocks_executed = heavy_gate.executed();
  result.heavy_blocks_skipped = heavy_gate.skipped();
  static_cast<LightRun&>(result) =
      light_gate.Record((r.num_x() + kLightGrain - 1) / kLightGrain);
  result.interrupted |= heavy_gate.interrupted();
  RecordRunMetrics(result, LightUnit::kChunks);
  return result;
}

}  // namespace jpmm
