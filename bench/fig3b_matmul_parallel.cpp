// Figure 3b — matrix construction + multiplication vs core count.
//
// The paper shows near-linear speedup of Eigen's product at 20000^2 as
// cores grow; here the same experiment runs the kernel jpmm's dense blocks
// run (the bit-packed AND-popcount count, matrix/bit_rows.h) at a
// laptop-scale dimension, split into row bands over the pool as the
// executor's chunks are, reporting construction (the random 0/1 operands
// and their bit rows) and multiplication separately like the figure's
// stacked bars. (On a single-core container the curve is flat.)

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "matrix/bit_rows.h"
#include "matrix/sparse_matrix.h"

using namespace jpmm;

namespace {

constexpr size_t kDim = 1024;

void BM_ConstructAndMultiply(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  double construct_sec = 0.0, multiply_sec = 0.0;
  std::vector<float> c(kDim * kDim);
  for (auto _ : state) {
    WallTimer tc;
    CsrMatrix a(kDim), b(kDim);
    Rng rng(7);
    for (size_t i = 0; i < kDim; ++i) {
      for (uint32_t j = 0; j < kDim; ++j) {
        if (rng.NextBool(0.5)) a.PushCol(j);
        if (rng.NextBool(0.5)) b.PushCol(j);
      }
      a.FinishRow();
      b.FinishRow();
    }
    const BitRows abits = BitRows::FromRows(a, threads);
    const BitRows btbits = BitRows::FromColumns(b, threads);
    construct_sec += tc.Seconds();
    WallTimer tm;
    ParallelFor(threads, kDim, [&](size_t r0, size_t r1, int) {
      BitCountRowRange(
          abits, btbits, r0, r1, 0, kDim,
          std::span<float>(c).subspan(r0 * kDim, (r1 - r0) * kDim));
    });
    multiply_sec += tm.Seconds();
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["threads"] = threads;
  state.counters["construct_s"] =
      construct_sec / static_cast<double>(state.iterations());
  state.counters["multiply_s"] =
      multiply_sec / static_cast<double>(state.iterations());
}

}  // namespace

BENCHMARK(BM_ConstructAndMultiply)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK_MAIN();
