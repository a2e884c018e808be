// Figures 7a-7d — parallel SCJ: MM-SCJ vs PIEJoin, thread scaling, on the
// four dense datasets (Jokes, Words, Protein, Image).
//
// Paper shape: MM-SCJ scales smoothly (row-partitioned matrix work);
// PIEJoin's static partitioning is skew-sensitive and scales worse.

#include <benchmark/benchmark.h>

#include "bench/set_join_engines.h"

using namespace jpmm;
using benchutil::CachedPreset;
using benchutil::ScjEngine;

namespace {

void BM_ScjParallel(benchmark::State& state, DatasetPreset preset,
                    ScjEngine engine, int threads) {
  const auto& ds = CachedPreset(preset);
  ScjOptions opts;
  opts.threads = threads;
  size_t out_size = 0;
  for (auto _ : state) {
    out_size = benchutil::RunScj(state, ds, engine, opts);
    benchmark::DoNotOptimize(out_size);
  }
  state.counters["threads"] = threads;
  state.counters["out"] = static_cast<double>(out_size);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::WarmCalibration();
  const std::pair<DatasetPreset, const char*> figs[] = {
      {DatasetPreset::kJokes, "Fig7a"},
      {DatasetPreset::kWords, "Fig7b"},
      {DatasetPreset::kProtein, "Fig7c"},
      {DatasetPreset::kImage, "Fig7d"},
  };
  for (const auto& [preset, fig] : figs) {
    for (ScjEngine engine : {ScjEngine::kMm, ScjEngine::kPie}) {
      for (int threads : benchutil::ThreadSweep()) {
        const std::string name = std::string(fig) + "/" + PresetName(preset) +
                                 "/" + benchutil::ScjEngineName(engine) +
                                 "/threads:" + std::to_string(threads);
        benchmark::RegisterBenchmark(name.c_str(), BM_ScjParallel, preset, engine, threads)
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
