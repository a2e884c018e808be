#include "core/mm_join.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/metrics.h"
#include "common/stamp_set.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/heavy_product.h"
#include "core/result_sink.h"
#include "core/trace.h"
#include "core/two_path_internal.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {
namespace {

// Per-worker dedup scratch + output shard.
struct WorkerState {
  StampCounter counter;
  std::vector<Value> touched;
  ResultSink::Shard* shard = nullptr;  // this worker's emission handle
};

// Emits the output pairs of head value a: its light witnesses (classes L1
// + L2) plus, when `heavy` is non-null, its all-heavy witness counts by
// heavy-z column. The epoch-stamped counter dedups in O(1) per witness.
void EmitHead(const internal::TwoPathContext& ctx, const MmJoinOptions& opts,
              Value a, const HeavyRow* heavy, WorkerState* ws) {
  ws->counter.NewEpoch();
  ws->touched.clear();
  ctx.AccumulateLight(a, &ws->counter, &ws->touched);
  if (heavy != nullptr) {
    const auto& hz = ctx.part.heavy_z();
    heavy->ForEach([&](uint32_t col, uint32_t cnt) {
      const Value z = hz[col];
      if (ws->counter.Add(z, cnt) == 0) ws->touched.push_back(z);
    });
  }
  for (Value c : ws->touched) {
    const uint32_t cnt = ws->counter.Get(c);
    if (cnt < opts.min_count) continue;
    if (opts.count_witnesses) {
      ws->shard->OnCountedPair(CountedPair{a, c, cnt});
    } else {
      ws->shard->OnPair(OutPair{a, c});
    }
  }
}

// Exact nnz of the two heavy operands under the current partition: one
// adjacency sweep each, no materialization. Drives both the memory-cap
// accounting and the density instrumentation.
void CountHeavyNnz(const IndexedRelation& r, const IndexedRelation& s,
                   const TwoPathPartition& part, int threads, uint64_t* nnz1,
                   uint64_t* nnz2) {
  const auto& hxs = part.heavy_x();
  const auto& hys = part.heavy_y();
  std::vector<uint64_t> partial(static_cast<size_t>(std::max(1, threads)), 0);
  ParallelForDynamic(threads, hxs.size(), /*grain=*/64,
                     [&](size_t i0, size_t i1, int w) {
                       uint64_t local = 0;
                       for (size_t i = i0; i < i1; ++i) {
                         for (Value b : r.YsOf(hxs[i])) {
                           if (part.HeavyYId(b) != kInvalidValue) ++local;
                         }
                       }
                       partial[static_cast<size_t>(w)] += local;
                     });
  *nnz1 = 0;
  for (uint64_t c : partial) *nnz1 += c;
  std::fill(partial.begin(), partial.end(), 0);
  ParallelForDynamic(threads, hys.size(), /*grain=*/64,
                     [&](size_t i0, size_t i1, int w) {
                       uint64_t local = 0;
                       for (size_t i = i0; i < i1; ++i) {
                         for (Value c : s.XsOf(hys[i])) {
                           if (part.HeavyZId(c) != kInvalidValue) ++local;
                         }
                       }
                       partial[static_cast<size_t>(w)] += local;
                     });
  *nnz2 = 0;
  for (uint64_t c : partial) *nnz2 += c;
}

}  // namespace

RunRecord MmJoinTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                        const MmJoinOptions& opts, ResultSink& sink) {
  JPMM_CHECK(opts.min_count >= 1);
  JPMM_CHECK_MSG(opts.min_count == 1 || opts.count_witnesses,
                 "min_count > 1 requires count_witnesses");
  JPMM_CHECK(opts.row_block >= 1);

  Thresholds t = opts.thresholds;
  t.delta1 = std::max<uint64_t>(1, t.delta1);
  t.delta2 = std::max<uint64_t>(1, t.delta2);
  const int threads = std::max(1, opts.threads);

  // Build the context; double the thresholds until the heavy-part working
  // set fits the memory cap. The gates (core/heavy_product.h) price the
  // representations the heavy kernels need from the exact operand nnz;
  // under kAuto the expensive ones are gated off instead of doubling
  // thresholds, so only the CSR floor must fit.
  TraceRecorder* const trace = opts.trace;
  const TraceRecorder::SpanId tparent = opts.trace_parent;
  TraceRecorder::Scope fit_scope(trace, "threshold-fit", tparent);
  std::unique_ptr<internal::TwoPathContext> ctx;
  HeavyShape shape;
  HeavyGates gates;
  for (;;) {
    ctx = std::make_unique<internal::TwoPathContext>(r, s, t);
    shape = HeavyShape{ctx->part.heavy_x().size(), ctx->part.heavy_y().size(),
                       ctx->part.heavy_z().size()};
    if (shape.inner == 0) break;
    CountHeavyNnz(r, s, ctx->part, threads, &shape.a_nnz, &shape.b_nnz);
    gates = GateHeavyProduct(shape, opts.heavy_path, opts.row_block, threads,
                             opts.max_matrix_bytes);
    if (gates.bytes <= opts.max_matrix_bytes) break;
    t.delta1 *= 2;
    t.delta2 *= 2;
  }
  fit_scope.Close();

  RunRecord result;
  result.adjusted_thresholds = t;
  const auto& part = ctx->part;
  const auto& hxs = part.heavy_x();
  const auto& hys = part.heavy_y();
  const auto& hzs = part.heavy_z();
  result.heavy_rows = hxs.size();
  result.heavy_inner = hys.size();
  result.heavy_cols = hzs.size();
  const bool use_matrix = !hxs.empty() && !hys.empty() && !hzs.empty();

  sink.Open(threads);
  std::vector<WorkerState> workers(static_cast<size_t>(threads));
  const size_t num_z = s.num_x();
  auto worker = [&](int w) -> WorkerState& {
    WorkerState& ws = workers[static_cast<size_t>(w)];
    if (ws.shard == nullptr) ws.shard = &sink.shard(w);
    if (ws.counter.universe() < num_z) ws.counter.ResizeUniverse(num_z);
    return ws;
  };
  ChunkGate gate(&sink, opts.cancel);

  // ---- Pass A: head values with no matrix row (light part only).
  // Dynamic chunking: zipf-skewed x degrees make contiguous static chunks
  // wildly unbalanced (one worker can own all the hubs).
  WallTimer light_timer;
  constexpr size_t kHeadGrain = 256;
  const TraceRecorder::SpanId light_span = TraceBegin(trace, "light-pass", tparent);
  ParallelForDynamic(threads, r.num_x(), kHeadGrain,
                     [&](size_t a0, size_t a1, int w) {
                       if (!gate.Claim()) return;
                       TraceRecorder::Scope chunk_scope(trace, "light-chunk",
                                                        light_span);
                       WorkerState& ws = worker(w);
                       for (size_t a = a0; a < a1; ++a) {
                         const auto av = static_cast<Value>(a);
                         if (r.DegX(av) == 0) continue;
                         if (use_matrix && part.HeavyXId(av) != kInvalidValue) {
                           continue;
                         }
                         EmitHead(*ctx, opts, av, nullptr, &ws);
                       }
                     });
  TraceEnd(trace, light_span);
  result.light_seconds = light_timer.Seconds();

  // ---- Pass B: heavy rows through the heavy-product executor, which hands
  // back every heavy x row whole (light witnesses join its heavy counts in
  // one stamp epoch). If the sink was satisfied by the light pass alone,
  // skip the whole phase — operand build included — with every chunk
  // accounted skipped: the total is the same whether the phase ran or not,
  // at every thread count (guarded by
  // QueryEngine.DoneMidChunkSkipsIdenticalDownstreamBlocks).
  bool heavy_interrupted = false;
  if (use_matrix && gate.Stopped()) {
    static_cast<HeavyRun&>(result) = SkippedHeavyRun(shape, opts.row_block);
  } else if (use_matrix) {
    WallTimer heavy_timer;
    TraceRecorder::Scope heavy_scope(trace, "heavy", tparent);
    // CSR operands straight from the heavy adjacency lists — no dense
    // materialization pass. Column ids ascend within each row because the
    // index's adjacency lists are sorted and heavy ids are assigned in
    // ascending value order.
    const TraceRecorder::SpanId csr_span =
        TraceBegin(trace, "csr-build", heavy_scope.id());
    const CsrMatrix m1 = CsrMatrix::FromRows(
        hxs.size(), hys.size(), threads,
        [&](size_t i, std::vector<uint32_t>* out) {
          for (Value b : r.YsOf(hxs[i])) {
            const Value id = part.HeavyYId(b);
            if (id != kInvalidValue) out->push_back(id);
          }
        });
    const CsrMatrix m2 = CsrMatrix::FromRows(
        hys.size(), hzs.size(), threads,
        [&](size_t i, std::vector<uint32_t>* out) {
          for (Value c : s.XsOf(hys[i])) {
            const Value id = part.HeavyZId(c);
            if (id != kInvalidValue) out->push_back(id);
          }
        });
    TraceEnd(trace, csr_span);

    HeavyProduct hp;
    static_cast<ExecContext&>(hp) = opts;
    hp.trace_parent = heavy_scope.id();
    hp.row_block = opts.row_block;
    hp.grid_cache = opts.grid_cache;
    hp.grid_key = t;
    hp.sink = &sink;
    hp.whole_rows = true;
    hp.on_row = [&](int w, uint32_t row, const HeavyRow& out) {
      EmitHead(*ctx, opts, hxs[row], &out, &worker(w));
    };
    static_cast<HeavyRun&>(result) =
        RunHeavyProduct(m1, m2, hp, &heavy_interrupted);
    result.heavy_seconds = heavy_timer.Seconds();
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
  if (MetricsEnabled()) {
    static Counter& operand_bytes = MetricsRegistry::Global().GetCounter(
        "jpmm_join_heavy_operand_bytes_total");
    operand_bytes.Add(gates.bytes);
  }
  return result;
}

}  // namespace jpmm
