// Figures 4f/4g — star query, thread scaling (Jokes- and Words-like).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

using namespace jpmm;

namespace {

void BM_StarParallel(benchmark::State& state, DatasetPreset preset,
                     Strategy strategy, int threads) {
  const auto& ds = benchutil::StarPreset(preset);
  size_t out_size = 0;
  for (auto _ : state) {
    out_size = benchutil::RunStar(state, ds, strategy, threads);
    benchmark::DoNotOptimize(out_size);
  }
  state.counters["threads"] = threads;
  state.counters["out"] = static_cast<double>(out_size);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::WarmCalibration();
  for (DatasetPreset p : {DatasetPreset::kJokes, DatasetPreset::kWords}) {
    const char* fig = p == DatasetPreset::kJokes ? "Fig4f" : "Fig4g";
    for (Strategy s : {Strategy::kMmJoin, Strategy::kNonMmJoin}) {
      for (int threads : benchutil::ThreadSweep()) {
        const std::string name = std::string(fig) + "/" + PresetName(p) + "/" +
                                 StrategyName(s) + "/threads:" +
                                 std::to_string(threads);
        benchmark::RegisterBenchmark(name.c_str(), BM_StarParallel, p, s, threads)
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
