// Figures 4d/4e — two-path join, thread scaling (Jokes- and Words-like).
//
// Series: MMJoin vs Non-MMJoin at 1..4 threads. The paper's curves fall
// near-linearly with cores; on a single-core container both stay flat
// (EXPERIMENTS.md) while still exercising the parallel code paths.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

using namespace jpmm;
using benchutil::CachedPreset;

namespace {

void BM_TwoPathParallel(benchmark::State& state, DatasetPreset preset,
                        Strategy strategy, int threads) {
  const auto& ds = CachedPreset(preset);
  size_t out_size = 0;
  for (auto _ : state) {
    out_size = benchutil::RunTwoPath(state, ds, strategy, threads);
    benchmark::DoNotOptimize(out_size);
  }
  state.counters["threads"] = threads;
  state.counters["out"] = static_cast<double>(out_size);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::WarmCalibration();
  for (DatasetPreset p : {DatasetPreset::kJokes, DatasetPreset::kWords}) {
    const char* fig =
        p == DatasetPreset::kJokes ? "Fig4d" : "Fig4e";
    for (Strategy s : {Strategy::kMmJoin, Strategy::kNonMmJoin}) {
      for (int threads : benchutil::ThreadSweep()) {
        const std::string name = std::string(fig) + "/" + PresetName(p) + "/" +
                                 StrategyName(s) + "/threads:" +
                                 std::to_string(threads);
        benchmark::RegisterBenchmark(name.c_str(), BM_TwoPathParallel, p, s, threads)
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
