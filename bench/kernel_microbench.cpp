// Kernel microbenchmark — the heavy product's kernels, dense and sparse.
//
// Measures the matrix layer in isolation:
//   sparse: CSR x dense saxpy and CSR x CSR stamp kernels across a density
//           sweep {1e-4 .. 0.25} at n in {1024, 4096}; BM_SparseCrossover
//           emits the measured dense/sparse crossover density into the
//           bench JSON;
//   bit count : the heavy product's dense-block kernel (BitCountRowRange,
//           AND + popcount over bit rows) on the two-path's and the star's
//           block shapes, under the active dispatch level (JPMM_ISA);
//   heavy-row emit : the two-path's bulk emit of a chunk's float rows into
//           pairs (PairEmitter::EmitHeavyHead), plain and mirrored;
//   wcoj-full mirror : the WCOJ full join's mirrored self-join loop on
//           DBLP@0.1 at one thread, in results/s;
//   metrics overhead : the same instrumented join executed with metrics on
//           vs JPMM_METRICS=off in one process; the overhead_pct counter is
//           the observability acceptance row (CI asserts < 2%).
// Every timed kernel is verified against its reference once at setup, so a
// reported speedup can never come from computing something different.
//
// The "gflops" / "gnnzops" counters make the speedups comparable across
// rows; set JPMM_BENCH_JSON=<path> for machine-readable output. Run:
//   ./build/bench_kernel_microbench --benchmark_filter=BitCount

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/cpu_features.h"
#include "common/metrics.h"
#include "core/density_partition.h"
#include "core/heavy_product.h"
#include "core/join_project.h"
#include "core/query_engine.h"
#include "core/result_sink.h"
#include "core/two_path_internal.h"
#include "datagen/presets.h"
#include "matrix/bit_rows.h"
#include "matrix/calibration.h"
#include "matrix/cost_model.h"
#include "matrix/dense_matrix.h"
#include "matrix/random.h"
#include "matrix/sparse_matrix.h"

using namespace jpmm;

namespace {

// ---- Sparse (CSR) kernels ------------------------------------------------
//
// Density arrives as parts-per-million in the second benchmark argument
// (google benchmark args are integers). Operands are built once per row
// via the shared generators, so the CSR and dense kernels see identical
// matrices. Verification oracle: CsrProductReference, the unblocked
// double-accumulator saxpy (checked against a triple loop in
// sparse_kernel_test) — full-product verification would be O(n^3) at
// n = 4096, so rows are verified up to a bounded op budget from row 0.

double PpmToDensity(int64_t ppm) { return static_cast<double>(ppm) * 1e-6; }

// Verify a prefix of rows of `got` against the reference, capped at roughly
// `max_ops` accumulate operations so high-density 4096 rows stay tractable.
void VerifySparsePrefix(const CsrMatrix& a, const Matrix& b,
                        const std::function<void(size_t, size_t,
                                                 std::span<float>)>& got_rows,
                        double max_ops = 2e9) {
  const size_t w = b.cols();
  size_t vrows = 0;
  double ops = 0.0;
  while (vrows < a.rows() && ops < max_ops) {
    ops += static_cast<double>(a.Row(vrows).size() + 1) * w;
    ++vrows;
  }
  if (vrows == 0) return;
  std::vector<float> out(vrows * w);
  got_rows(0, vrows, out);
  // Reference over the verified prefix only — a full-matrix reference at
  // dim 4096 / density 0.25 would cost the very O(nnz * w) the cap bounds.
  CsrMatrix prefix(a.cols());
  for (size_t i = 0; i < vrows; ++i) {
    for (uint32_t c : a.Row(i)) prefix.PushCol(c);
    prefix.FinishRow();
  }
  const Matrix want = CsrProductReference(prefix, b);
  for (size_t i = 0; i < vrows; ++i) {
    JPMM_CHECK_MSG(std::memcmp(out.data() + i * w, want.Row(i).data(),
                               w * sizeof(float)) == 0,
                   "sparse kernel diverged from the saxpy reference");
  }
}

void AddSparseCounters(benchmark::State& state, size_t dim, uint64_t nnz,
                       double ops) {
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["nnz"] = static_cast<double>(nnz);
  state.counters["density"] =
      static_cast<double>(nnz) / (static_cast<double>(dim) * dim);
  state.counters["gnnzops"] = benchmark::Counter(
      ops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SparseCsrDense(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  const double density = PpmToDensity(state.range(1));
  const Matrix b = RandomDenseMatrix(dim, dim, density, 11);
  const CsrMatrix a =
      CsrMatrix::FromDense(RandomDenseMatrix(dim, dim, density, 12));
  VerifySparsePrefix(a, b, [&](size_t r0, size_t r1, std::span<float> out) {
    CsrDenseRowRange(a, b, r0, r1, out);
  });
  for (auto _ : state) {
    Matrix c = CsrDenseProduct(a, b, 1);
    benchmark::DoNotOptimize(c.data());
  }
  AddSparseCounters(state, dim, a.nnz(), SparseProductOps(a.nnz(), dim, dim));
}

void BM_SparseCsrCsr(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  const double density = PpmToDensity(state.range(1));
  const Matrix bd = RandomDenseMatrix(dim, dim, density, 11);
  const CsrMatrix a =
      CsrMatrix::FromDense(RandomDenseMatrix(dim, dim, density, 12));
  const CsrMatrix b = CsrMatrix::FromDense(bd);
  {
    CsrScratch scratch;
    VerifySparsePrefix(a, bd,
                       [&](size_t r0, size_t r1, std::span<float> out) {
                         SparseRowBlock blk;
                         CsrCsrRowRange(a, b, r0, r1, &scratch, &blk);
                         for (size_t i = r0; i < r1; ++i) {
                           const auto cols = blk.RowCols(i - r0);
                           const auto counts = blk.RowCounts(i - r0);
                           float* row = out.data() + (i - r0) * dim;
                           std::fill(row, row + dim, 0.0f);
                           for (size_t e = 0; e < cols.size(); ++e) {
                             row[cols[e]] = static_cast<float>(counts[e]);
                           }
                         }
                       });
  }
  for (auto _ : state) {
    Matrix c = CsrCsrProduct(a, b, 1);
    benchmark::DoNotOptimize(c.data());
  }
  AddSparseCounters(state, dim, a.nnz(),
                    CsrCsrExpandOps(a, b, 0, a.rows()));
}

// The dense blocks' bit-count kernel on one rows x inner by inner x cols
// block at density 0.135 (Protein@1.5's heavy part), with the output
// window from column 0. gflops counts the 2 * rows * inner * cols flops a
// float GEMM would spend (the unit SparseKernelRates stores the kernel's
// rate in). The kernel is density-blind.
void BM_BitCount(benchmark::State& state) {
  const auto rows = static_cast<size_t>(state.range(0));
  const auto inner = static_cast<size_t>(state.range(1));
  const auto cols = static_cast<size_t>(state.range(2));
  const CsrMatrix a =
      CsrMatrix::FromDense(RandomDenseMatrix(rows, inner, 0.135, 12));
  const Matrix b = RandomDenseMatrix(inner, cols, 0.135, 11);
  const BitRows abits = BitRows::FromRows(a);
  const BitRows btbits = BitRows::FromColumns(CsrMatrix::FromDense(b));
  VerifySparsePrefix(a, b, [&](size_t r0, size_t r1, std::span<float> out) {
    BitCountRowRange(abits, btbits, r0, r1, 0, cols, out);
  });
  std::vector<float> out(rows * cols);
  for (auto _ : state) {
    BitCountRowRange(abits, btbits, 0, rows, 0, cols, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(rows) * static_cast<double>(inner) *
          static_cast<double>(cols) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["words"] = static_cast<double>(abits.words());
}

// The two-path's heavy-row emit (PairEmitter::EmitHeavyHead) over one
// 256-row chunk of 1187 heavy-z columns (Protein@1.5's heavy part): float
// rows at the given nonzero density, plain pairs, either direct or
// mirrored (the self join's symmetric rows: row i at position i emits from
// its own column on, every later cell both ways). Heads have no light
// witnesses; results go to a CountOnlySink. The setup checks the pairs
// against a scalar reference.
void BM_EmitHeavyRow(benchmark::State& state) {
  constexpr size_t kRows = 256;
  constexpr Value kCols = 1187;
  const double density = PpmToDensity(state.range(0));
  const bool mirrored = state.range(1) != 0;
  // Every value of 0..kCols-1 is a heavy x and a heavy z: degree 2 on two
  // shared y values, thresholds 1.
  BinaryRelation rel;
  for (Value x = 0; x < kCols; ++x) {
    rel.Add(x, 0);
    rel.Add(x, 1);
  }
  rel.Finalize();
  const IndexedRelation index(rel);
  const TwoPathPartition part(index, index, Thresholds{1, 1});
  JPMM_CHECK(part.heavy_z().size() == kCols);
  const Matrix cells = RandomDenseMatrix(kRows, kCols, density, 13);
  auto emit_all = [&](ResultSink& sink) {
    sink.Open(1);
    internal::PairEmitters emitters(sink, 1, kCols);
    internal::PairEmitter& em = emitters[0];
    for (size_t i = 0; i < kRows; ++i) {
      HeavyRow row;
      row.values = cells.data() + i * kCols;
      row.width = kCols;
      row.symmetric = mirrored;
      row.position = static_cast<uint32_t>(i);
      em.BeginHead();
      em.EmitHeavyHead(static_cast<Value>(i), row, part,
                       /*count_witnesses=*/false, /*min_count=*/1);
    }
    em.Flush();
    sink.Finish();
  };
  std::vector<OutPair> want;
  for (Value i = 0; i < kRows; ++i) {
    for (Value j = mirrored ? i : 0; j < kCols; ++j) {
      if (cells.At(i, j) <= 0.5f) continue;
      want.push_back({i, j});
      if (mirrored && j != i) want.push_back({j, i});
    }
  }
  VectorSink check;
  emit_all(check);
  std::vector<OutPair> got = check.pairs();
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  JPMM_CHECK_MSG(got == want, "heavy-row emit differs from the reference");
  for (auto _ : state) {
    CountOnlySink sink;
    emit_all(sink);
    benchmark::DoNotOptimize(sink.count());
  }
  state.counters["pairs"] = static_cast<double>(want.size());
  state.counters["cells_per_s"] = benchmark::Counter(
      static_cast<double>(kRows) * kCols,
      benchmark::Counter::kIsIterationInvariantRate);
}

// The WCOJ full join of a DBLP@0.1 self join (WcojFullJoinProject) at one
// thread into a CountOnlySink: the mirrored loop, which counts each pair
// once from its smaller head, scanning y's x list from each tuple's stored
// twin position. The setup checks its pairs against the unmirrored loop
// over a second snapshot of the same data.
void BM_WcojFullMirror(benchmark::State& state) {
  const BinaryRelation rel =
      MakePreset(DatasetPreset::kDblp, 0.1 * ScaleFromEnv(), 42);
  const IndexedRelation index(rel);
  const IndexedRelation copy(rel);
  VectorSink mirrored, direct;
  JPMM_CHECK(WcojFullJoinProject(index, index, /*count_witnesses=*/false,
                                 /*min_count=*/1, /*threads=*/1, &mirrored)
                 .mirrored);
  WcojFullJoinProject(index, copy, false, 1, 1, &direct);
  std::vector<OutPair> got = mirrored.pairs();
  std::vector<OutPair> want = direct.pairs();
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  JPMM_CHECK_MSG(got == want, "mirrored WCOJ differs from the direct loop");
  for (auto _ : state) {
    CountOnlySink sink;
    WcojFullJoinProject(index, index, false, 1, 1, &sink);
    benchmark::DoNotOptimize(sink.count());
  }
  state.counters["pairs"] = static_cast<double>(want.size());
  state.counters["results_per_s"] =
      benchmark::Counter(static_cast<double>(want.size()),
                         benchmark::Counter::kIsIterationInvariantRate);
}

// Measures SparseKernelRates and bisects the density where the modeled
// dense (bit-count) time equals the modeled CSR x dense time at this dim —
// the machine's dense/sparse crossover, emitted into the bench JSON for
// trajectory tracking.
void BM_SparseCrossover(benchmark::State& state) {
  const auto dim = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    const SparseKernelRates rates = SparseKernelRates::Measure(
        static_cast<uint32_t>(std::min<uint64_t>(dim, 1024)));
    benchmark::DoNotOptimize(&rates);
    auto csr_minus_dense = [&](double d) {
      const auto nnz =
          static_cast<uint64_t>(d * static_cast<double>(dim) * dim);
      const double dense_sec = 2.0 * static_cast<double>(dim) * dim * dim /
                               rates.dense_flops_per_sec;
      const double csr_sec = SparseProductSeconds(
          SparseProductOps(nnz, dim, dim), rates.CsrDenseRate(d));
      return csr_sec - dense_sec;
    };
    double lo = 1e-6, hi = 1.0;
    if (csr_minus_dense(hi) < 0.0) {
      state.counters["crossover_density"] = 1.0;  // CSR wins everywhere
    } else {
      for (int it = 0; it < 64; ++it) {
        const double mid = std::sqrt(lo * hi);  // bisect in log space
        (csr_minus_dense(mid) < 0.0 ? lo : hi) = mid;
      }
      state.counters["crossover_density"] = hi;
    }
    state.counters["dense_gflops"] = rates.dense_flops_per_sec * 1e-9;
  }
}

// ---- Instrumentation overhead --------------------------------------------

// The observability acceptance row: the same prepared two-path join
// executed with the metrics registry enabled vs disabled
// (SetMetricsEnabled, the runtime form of JPMM_METRICS=off), alternating
// within every iteration so clock drift and cache warmth cancel. Emits
//
//   overhead_pct = (time_on / time_off - 1) * 100
//
// which CI's bench smoke asserts stays under 2. Tracing stays off on both
// sides — no TraceRecorder is attached — so the row isolates the always-on
// counter/histogram cost, which is what production pays.
void BM_MetricsOverhead(benchmark::State& state) {
  static QueryEngine* engine = [] {
    auto* e = new QueryEngine();
    e->AddRelation("R", MakePreset(DatasetPreset::kJokes,
                                   0.2 * ScaleFromEnv(), 42));
    return e;
  }();
  static PreparedQuery* query = [] {
    QuerySpec spec;
    spec.kind = QueryKind::kTwoPath;
    spec.relations = {"R"};
    auto* q = new PreparedQuery();
    JPMM_CHECK(engine->Prepare(spec, q).ok());
    CountOnlySink warm;  // warm the plan cache outside the timed region
    JPMM_CHECK(engine->Execute(*q, warm, {}).ok());
    return q;
  }();
  using clock = std::chrono::steady_clock;
  double on_s = 0.0, off_s = 0.0;
  for (auto _ : state) {
    SetMetricsEnabled(true);
    auto t0 = clock::now();
    CountOnlySink a;
    JPMM_CHECK(engine->Execute(*query, a, {}).ok());
    on_s += std::chrono::duration<double>(clock::now() - t0).count();

    SetMetricsEnabled(false);
    t0 = clock::now();
    CountOnlySink b;
    JPMM_CHECK(engine->Execute(*query, b, {}).ok());
    off_s += std::chrono::duration<double>(clock::now() - t0).count();
    benchmark::DoNotOptimize(a.count() + b.count());
  }
  SetMetricsEnabled(true);  // leave the process instrumented
  state.counters["overhead_pct"] =
      off_s > 0.0 ? (on_s / off_s - 1.0) * 100.0 : 0.0;
}

}  // namespace

// Density sweep {1e-4, 1e-3, 1e-2, 0.1, 0.25} (ppm) at n in {1024, 4096}.
#define JPMM_SPARSE_SWEEP(bench)                                          \
  BENCHMARK(bench)                                                        \
      ->Args({1024, 100})                                                 \
      ->Args({1024, 1000})                                                \
      ->Args({1024, 10000})                                               \
      ->Args({1024, 100000})                                              \
      ->Args({1024, 250000})                                              \
      ->Args({4096, 100})                                                 \
      ->Args({4096, 1000})                                                \
      ->Args({4096, 10000})                                               \
      ->Args({4096, 100000})                                              \
      ->Args({4096, 250000})                                              \
      ->Unit(benchmark::kMillisecond)
JPMM_SPARSE_SWEEP(BM_SparseCsrDense);
JPMM_SPARSE_SWEEP(BM_SparseCsrCsr);
#undef JPMM_SPARSE_SWEEP
// Two-path (Protein@1.5: one 256-row chunk of 1173 x 1200 x 1173) and
// star (inner 70, 2 words) block shapes, and a square 1024 product.
BENCHMARK(BM_BitCount)
    ->Args({256, 1200, 1173})
    ->Args({256, 70, 1024})
    ->Args({1024, 1024, 1024})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EmitHeavyRow)
    ->ArgNames({"ppm", "mirrored"})
    ->Args({980000, 0})
    ->Args({980000, 1})
    ->Args({140000, 0})
    ->Args({140000, 1})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WcojFullMirror)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SparseCrossover)->Arg(1024)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_MetricsOverhead)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0)
    ->UseRealTime();

JPMM_BENCH_MAIN();
