// Figures 5e/5f — ordered SSJ vs overlap threshold c (DBLP-, Jokes-like).
//
// Ordered output = pairs sorted by overlap descending. MMJoin and
// SizeAware++ get overlaps for free from witness counting; SizeAware pays
// an extra intersection per output pair (§7.3).

#include <benchmark/benchmark.h>

#include "bench/set_join_engines.h"

using namespace jpmm;
using benchutil::CachedPreset;
using benchutil::SsjEngine;

namespace {

void BM_SsjOrdered(benchmark::State& state, DatasetPreset preset,
                   SsjEngine engine, uint32_t c) {
  const double extra = preset == DatasetPreset::kDblp ? 0.25 : 1.0;
  const auto& ds = CachedPreset(preset, extra);
  SsjOptions opts;
  opts.c = c;
  opts.ordered = true;
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
      {DatasetPreset::kDblp, "Fig5e"},
      {DatasetPreset::kJokes, "Fig5f"},
  };
  for (const auto& [preset, fig] : figs) {
    for (SsjEngine e : benchutil::kSsjEngines) {
      for (uint32_t c : {2u, 3u, 4u, 5u, 6u}) {
        const std::string name = std::string(fig) + "/" + PresetName(preset) +
                                 "/" + benchutil::SsjEngineName(e) + "/c:" +
                                 std::to_string(c);
        benchmark::RegisterBenchmark(name.c_str(), BM_SsjOrdered, preset, e, c)
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
