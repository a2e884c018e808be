// Figures 5d/5g/5h — unordered SSJ at c = 2, thread scaling (DBLP-, Jokes-,
// Image-like).
//
// Paper shape: MMJoin and SizeAware++ scale (matrix row partitioning is
// coordination-free); SizeAware's light phase is inherently sequential so
// its curve flattens.

#include <benchmark/benchmark.h>

#include "bench/set_join_engines.h"

using namespace jpmm;
using benchutil::CachedPreset;
using benchutil::SsjEngine;

namespace {

void BM_SsjParallel(benchmark::State& state, DatasetPreset preset,
                    SsjEngine engine, int threads) {
  const double extra = preset == DatasetPreset::kDblp ? 0.25 : 1.0;
  const auto& ds = CachedPreset(preset, extra);
  SsjOptions opts;
  opts.c = 2;
  opts.threads = threads;
  size_t out_size = 0;
  for (auto _ : state) {
    out_size = benchutil::RunSsj(state, ds, engine, opts);
    benchmark::DoNotOptimize(out_size);
  }
  state.counters["threads"] = threads;
  state.counters["out"] = static_cast<double>(out_size);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::WarmCalibration();
  const std::pair<DatasetPreset, const char*> figs[] = {
      {DatasetPreset::kDblp, "Fig5d"},
      {DatasetPreset::kJokes, "Fig5g"},
      {DatasetPreset::kImage, "Fig5h"},
  };
  for (const auto& [preset, fig] : figs) {
    for (SsjEngine e : benchutil::kSsjEngines) {
      for (int threads : benchutil::ThreadSweep()) {
        const std::string name = std::string(fig) + "/" + PresetName(preset) +
                                 "/" + benchutil::SsjEngineName(e) + "/threads:" +
                                 std::to_string(threads);
        benchmark::RegisterBenchmark(name.c_str(), BM_SsjParallel, preset, e, threads)
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
