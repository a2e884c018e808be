// Figure 3a — matrix multiplication running time vs dimension, single core.
//
// The paper plots Eigen+MKL square-product times for dimensions up to
// 10000; the same sweep over the kernel jpmm's dense blocks run (the
// bit-packed AND-popcount count, matrix/bit_rows.h) shows the near-cubic
// growth the §5 cost table extrapolates from. Dimensions are scaled down to
// keep the single-core run short. gflops counts the 2 * dim^3 flops a float
// GEMM would spend, the unit the calibration stores the kernel's rate in.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_util.h"
#include "matrix/bit_rows.h"
#include "matrix/random.h"
#include "matrix/sparse_matrix.h"

using namespace jpmm;

namespace {

CsrMatrix RandomSquare(size_t dim, uint64_t seed) {
  return CsrMatrix::FromDense(RandomDenseMatrix(dim, dim, 0.5, seed));
}

void BM_SquareMatMul(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  const BitRows a = BitRows::FromRows(RandomSquare(dim, 1));
  const BitRows bt = BitRows::FromColumns(RandomSquare(dim, 2));
  std::vector<float> c(dim * dim);
  for (auto _ : state) {
    BitCountRowRange(a, bt, 0, dim, 0, dim, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(dim) * dim * dim * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

BENCHMARK(BM_SquareMatMul)
    ->Arg(256)
    ->Arg(512)
    ->Arg(768)
    ->Arg(1024)
    ->Arg(1536)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

JPMM_BENCH_MAIN();
