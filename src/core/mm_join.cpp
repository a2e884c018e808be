#include "core/mm_join.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/heavy_product.h"
#include "core/result_sink.h"
#include "core/trace.h"
#include "core/two_path_internal.h"
#include "join/intersection.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {
namespace {

// Emits the output pairs of head value a: its light witnesses (classes L1
// + L2) plus, when `heavy` is non-null, its all-heavy witness counts by
// heavy-z column (PairEmitter::EmitHeavyHead).
void EmitHead(const internal::TwoPathContext& ctx, const MmJoinOptions& opts,
              Value a, const HeavyRow* heavy, internal::PairEmitter* em) {
  em->BeginHead();
  ctx.AccumulateLight(a, em);
  if (heavy == nullptr) {
    em->EmitTouched(a, opts.count_witnesses, opts.min_count);
  } else {
    em->EmitHeavyHead(a, *heavy, ctx.part, opts.count_witnesses,
                      opts.min_count);
  }
}

// Calls f(id) for every set cell of row i of M1 (m2 false: the heavy-y
// neighbours in R of heavy x number i) or of M2 (m2 true: the heavy-z
// neighbours in S of heavy y number i). Ids ascend: the index's adjacency
// lists are sorted and heavy ids are assigned in ascending value order.
template <class F>
void ForHeavyCells(const internal::TwoPathContext& ctx, bool m2, size_t i,
                   F&& f) {
  const TwoPathPartition& part = ctx.part;
  const auto adjacency = m2 ? ctx.s.XsOf(part.heavy_y()[i])
                            : ctx.r.YsOf(part.heavy_x()[i]);
  for (Value v : adjacency) {
    const Value id = m2 ? part.HeavyZId(v) : part.HeavyYId(v);
    if (id != kInvalidValue) f(id);
  }
}

size_t HeavyRows(const internal::TwoPathContext& ctx, bool m2) {
  return (m2 ? ctx.part.heavy_y() : ctx.part.heavy_x()).size();
}

// Exact nnz of M1 or M2: one adjacency sweep, no materialization. Drives
// the memory-cap accounting and the density instrumentation.
uint64_t HeavyNnz(const internal::TwoPathContext& ctx, bool m2, int threads) {
  std::vector<uint64_t> partial(static_cast<size_t>(threads), 0);
  ParallelForDynamic(threads, HeavyRows(ctx, m2), /*grain=*/64,
                     [&](size_t i0, size_t i1, int w) {
                       uint64_t local = 0;
                       for (size_t i = i0; i < i1; ++i) {
                         ForHeavyCells(ctx, m2, i, [&](Value) { ++local; });
                       }
                       partial[static_cast<size_t>(w)] += local;
                     });
  return std::accumulate(partial.begin(), partial.end(), uint64_t{0});
}

// M1 or M2 straight from the heavy adjacency lists — no dense
// materialization pass.
CsrMatrix HeavyOperand(const internal::TwoPathContext& ctx, bool m2,
                       int threads) {
  const size_t cols = (m2 ? ctx.part.heavy_z() : ctx.part.heavy_y()).size();
  return CsrMatrix::FromRows(
      HeavyRows(ctx, m2), cols, threads,
      [&](size_t i, std::vector<uint32_t>* out) {
        ForHeavyCells(ctx, m2, i, [out](Value id) { out->push_back(id); });
      });
}

// The two-path's threshold fit: the partition context whose heavy part
// fits the memory cap.
struct TwoPathFit : HeavyFit {
  TwoPathFit(const IndexedRelation& r, const IndexedRelation& s, Thresholds t)
      : ctx(r, s, t) {}
  internal::TwoPathContext ctx;
};

// Builds the context, doubling the thresholds until the heavy-part working
// set fits the memory cap. The gates (core/heavy_product.h) price the
// representations the heavy kernels need from the exact operand nnz; under
// kAuto the expensive ones are gated off instead of doubling thresholds,
// so only the CSR floor must fit.
std::shared_ptr<const HeavyFit> FitTwoPath(const IndexedRelation& r,
                                           const IndexedRelation& s,
                                           const HeavyOperandKey& key) {
  for (Thresholds t = key.thresholds;; t.delta1 *= 2, t.delta2 *= 2) {
    auto fit = std::make_shared<TwoPathFit>(r, s, t);
    const TwoPathPartition& part = fit->ctx.part;
    fit->thresholds = t;
    fit->shape = HeavyShape{part.heavy_x().size(), part.heavy_y().size(),
                            part.heavy_z().size()};
    // A self join's M2 is M1^T: the same cells, one set of bit rows.
    fit->shape.symmetric = &r == &s;
    fit->bytes = fit->ctx.Bytes();
    if (fit->shape.inner == 0) return fit;
    fit->shape.a_nnz = HeavyNnz(fit->ctx, /*m2=*/false, key.threads);
    fit->shape.b_nnz =
        fit->shape.symmetric ? fit->shape.a_nnz
                             : HeavyNnz(fit->ctx, /*m2=*/true, key.threads);
    if (GateHeavyProduct(fit->shape, key.heavy_path, key.row_block,
                         key.threads, key.max_matrix_bytes)
            .bytes <= key.max_matrix_bytes) {
      return fit;
    }
  }
}

// Non-MMJoin's heavy step: class H verified pairwise (Lemma 2), each heavy
// x's heavy-y list against each heavy z's by galloping intersection, in
// dynamic chunks of kGrain heavy x. Each chunk is one unit of its own gate
// and the total comes from the same grain, so executed + skipped == total
// at every thread count; when `gate` has stopped, every chunk is skipped
// before the lists are built.
void PairwiseHeavyStep(const internal::TwoPathContext& ctx,
                       const MmJoinOptions& opts, ChunkGate& gate,
                       internal::PairEmitters& emitters, ResultSink& sink,
                       RunRecord* result, bool* interrupted) {
  constexpr size_t kGrain = 4;
  const TwoPathPartition& part = ctx.part;
  const auto& hxs = part.heavy_x();
  const auto& hzs = part.heavy_z();
  if (hxs.empty() || part.heavy_y().empty() || hzs.empty()) return;
  result->heavy_blocks_total = (hxs.size() + kGrain - 1) / kGrain;
  if (gate.Stopped()) {
    result->heavy_blocks_skipped = result->heavy_blocks_total;
    return;
  }
  WallTimer heavy_timer;
  TraceRecorder::Scope heavy_scope(opts.trace, "heavy", opts.trace_parent);
  const int threads = std::max(1, opts.threads);
  // Heavy-y ids per heavy x (M1's rows) and per heavy z, ascending.
  const CsrMatrix xs = HeavyOperand(ctx, /*m2=*/false, threads);
  const CsrMatrix zs = CsrMatrix::FromRows(
      hzs.size(), part.heavy_y().size(), threads,
      [&](size_t j, std::vector<uint32_t>* out) {
        for (Value b : ctx.s.YsOf(hzs[j])) {
          const Value id = part.HeavyYId(b);
          if (id != kInvalidValue) out->push_back(id);
        }
      });
  ChunkGate heavy_gate(&sink, opts.cancel);
  ParallelForDynamic(threads, hxs.size(), kGrain,
                     [&](size_t i0, size_t i1, int w) {
    if (!heavy_gate.Claim()) return;
    internal::PairEmitter& em = emitters[w];
    for (size_t i = i0; i < i1; ++i) {
      em.BeginHead();
      ctx.AccumulateLight(hxs[i], &em);
      const std::span<const Value> ha = xs.Row(i);
      for (size_t j = 0; !ha.empty() && j < hzs.size(); ++j) {
        const std::span<const Value> hc = zs.Row(j);
        if (hc.empty()) continue;
        if (opts.count_witnesses) {
          const auto cnt = static_cast<uint32_t>(IntersectCount(ha, hc));
          if (cnt > 0) em.Add(hzs[j], cnt);
        } else if (em.Get(hzs[j]) == 0 && IntersectsSorted(ha, hc)) {
          em.Add(hzs[j], 1);
        }
      }
      em.EmitTouched(hxs[i], opts.count_witnesses, opts.min_count);
    }
    em.Flush();
  });
  result->heavy_seconds = heavy_timer.Seconds();
  result->heavy_blocks_executed = heavy_gate.executed();
  result->heavy_blocks_skipped = heavy_gate.skipped();
  if (heavy_gate.interrupted()) *interrupted = true;
}

// The one two-path executor: the threshold fit, the light pass, the heavy
// step — the matrix product when `matrix`, else pairwise intersection —
// then the sink finish and the record.
RunRecord TwoPathJoin(const IndexedRelation& r, const IndexedRelation& s,
                      const MmJoinOptions& opts, ResultSink& sink,
                      bool matrix) {
  JPMM_CHECK(opts.min_count >= 1);
  JPMM_CHECK_MSG(opts.min_count == 1 || opts.count_witnesses,
                 "min_count > 1 requires count_witnesses");
  JPMM_CHECK(!matrix || opts.row_block >= 1);
  const int threads = std::max(1, opts.threads);
  TraceRecorder* const trace = opts.trace;
  const TraceRecorder::SpanId tparent = opts.trace_parent;

  const HeavyOperandKey key =
      matrix ? OperandKey(opts, opts.thresholds, opts.row_block)
             : UncappedOperandKey(opts.thresholds);
  const RunOperands operands(opts.operand_cache, key, opts,
                             [&] { return FitTwoPath(r, s, key); });
  const TwoPathFit& fit = operands.fit<TwoPathFit>();
  const internal::TwoPathContext& ctx = fit.ctx;

  RunRecord result;
  result.adjusted_thresholds = fit.thresholds;
  const auto& part = ctx.part;
  const auto& hxs = part.heavy_x();
  result.heavy_rows = hxs.size();
  result.heavy_inner = part.heavy_y().size();
  result.heavy_cols = part.heavy_z().size();
  const bool use_heavy = result.heavy_rows > 0 && result.heavy_inner > 0 &&
                         result.heavy_cols > 0;

  sink.Open(threads);
  internal::PairEmitters emitters(sink, threads, s.num_x());
  ChunkGate gate(&sink, opts.cancel);

  // ---- Light pass: head values with no heavy row (light part only).
  // Dynamic chunking: zipf-skewed x degrees make contiguous static chunks
  // wildly unbalanced (one worker can own all the hubs).
  WallTimer light_timer;
  constexpr size_t kHeadGrain = 256;
  const TraceRecorder::SpanId light_span =
      TraceBegin(trace, "light-pass", tparent);
  ParallelForDynamic(threads, r.num_x(), kHeadGrain,
                     [&](size_t a0, size_t a1, int w) {
                       if (!gate.Claim()) return;
                       TraceRecorder::Scope chunk_scope(trace, "light-chunk",
                                                        light_span);
                       internal::PairEmitter& em = emitters[w];
                       for (size_t a = a0; a < a1; ++a) {
                         const auto av = static_cast<Value>(a);
                         if (r.DegX(av) == 0) continue;
                         if (use_heavy && part.HeavyXId(av) != kInvalidValue) {
                           continue;
                         }
                         EmitHead(ctx, opts, av, nullptr, &em);
                       }
                       em.Flush();
                     });
  TraceEnd(trace, light_span);
  result.light_seconds = light_timer.Seconds();

  // ---- Heavy step: every heavy x row whole (its light witnesses fold into
  // the row's bulk emit). If the sink was satisfied by the light pass
  // alone, the whole step — operand build included — is skipped with every
  // chunk accounted skipped: the total is the same whether the step ran or
  // not, at every thread count (guarded by
  // QueryEngine.DoneMidChunkSkipsIdenticalDownstreamBlocks).
  bool heavy_interrupted = false;
  if (matrix) {
    HeavyProduct hp;
    static_cast<ExecContext&>(hp) = opts;
    hp.row_block = opts.row_block;
    hp.sink = &sink;
    // One snapshot on both sides: M2 = M1^T, so the product is symmetric.
    hp.symmetric = &r == &s;
    hp.on_row = [&](int w, uint32_t row, const HeavyRow& out) {
      EmitHead(ctx, opts, hxs[row], &out, &emitters[w]);
    };
    hp.on_chunk_done = [&](int w) { emitters[w].Flush(); };
    operands.RunMmHeavyStep(
        gate, std::move(hp), "csr-build",
        [&](const HeavyProduct& p) {
          TraceRecorder::Scope csr_scope(trace, "csr-build", p.trace_parent);
          CsrMatrix m1 = HeavyOperand(ctx, /*m2=*/false, threads);
          CsrMatrix m2 = HeavyOperand(ctx, /*m2=*/true, threads);
          csr_scope.Close("cache-miss");
          return PrepareHeavyProduct(std::move(m1), std::move(m2), p);
        },
        &result, &heavy_interrupted);
  } else {
    PairwiseHeavyStep(ctx, opts, gate, emitters, sink, &result,
                      &heavy_interrupted);
    operands.RecordCache(&result);
  }

  // ---- Merge point. Dynamic chunk claiming makes the pair ORDER
  // run-dependent (the header documents it as unspecified); the pair SET is
  // deterministic at every thread count.
  {
    TraceRecorder::Scope finish_scope(trace, "sink-finish", tparent);
    sink.Finish();
  }
  static_cast<LightRun&>(result) =
      gate.Record((r.num_x() + kHeadGrain - 1) / kHeadGrain);
  result.interrupted |= heavy_interrupted;

  RecordRunMetrics(result, LightUnit::kChunks);
  return result;
}

}  // namespace

RunRecord MmJoinTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                        const MmJoinOptions& opts, ResultSink& sink) {
  return TwoPathJoin(r, s, opts, sink, /*matrix=*/true);
}

RunRecord NonMmJoinTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                           const MmJoinOptions& opts, ResultSink& sink) {
  return TwoPathJoin(r, s, opts, sink, /*matrix=*/false);
}

}  // namespace jpmm
