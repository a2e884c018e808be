// Figures 5a/5b/5c — unordered SSJ vs overlap threshold c, single core.
//
// Datasets: DBLP-like (5a), Jokes-like (5b), Image-like (5c). Series:
// MMJoin, SizeAware++, SizeAware, for c in 2..6. Paper shape: on the sparse
// DBLP all three are close (MMJoin ahead by the optimizer-cost margin); on
// the dense datasets SizeAware trails by an order of magnitude, MMJoin
// fastest, SizeAware++ between.

#include <benchmark/benchmark.h>

#include "bench/set_join_engines.h"

using namespace jpmm;
using benchutil::CachedPreset;
using benchutil::SsjEngine;

namespace {

void BM_SsjUnordered(benchmark::State& state, DatasetPreset preset,
                     SsjEngine engine, uint32_t c) {
  // DBLP at full bench scale makes the SizeAware baselines very slow; the
  // figure's point is the *relative* order, so sample like the paper does.
  const double extra = preset == DatasetPreset::kDblp ? 0.25 : 1.0;
  const auto& ds = CachedPreset(preset, extra);
  SsjOptions opts;
  opts.c = c;
  size_t out_size = 0;
  for (auto _ : state) {
    out_size = benchutil::RunSsj(state, ds, engine, opts);
    benchmark::DoNotOptimize(out_size);
  }
  state.counters["c"] = c;
  state.counters["out"] = static_cast<double>(out_size);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::WarmCalibration();
  const std::pair<DatasetPreset, const char*> figs[] = {
      {DatasetPreset::kDblp, "Fig5a"},
      {DatasetPreset::kJokes, "Fig5b"},
      {DatasetPreset::kImage, "Fig5c"},
  };
  for (const auto& [preset, fig] : figs) {
    for (SsjEngine e : benchutil::kSsjEngines) {
      for (uint32_t c : {2u, 3u, 4u, 5u, 6u}) {
        const std::string name = std::string(fig) + "/" + PresetName(preset) +
                                 "/" + benchutil::SsjEngineName(e) + "/c:" +
                                 std::to_string(c);
        benchmark::RegisterBenchmark(name.c_str(), BM_SsjUnordered, preset, e, c)
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
