// Figure 4c — set containment join across the six datasets, single core.
//
// Series: MM-SCJ, PIEJoin, PRETTI, LIMIT+. Paper shape (§7.4): join-project
// evaluation fastest on the dense families (verification-free), trie
// methods competitive on the sparse ones (DBLP/RoadNet).

#include <benchmark/benchmark.h>

#include "bench/set_join_engines.h"

using namespace jpmm;
using benchutil::CachedPreset;
using benchutil::ScjEngine;

namespace {

void BM_Scj(benchmark::State& state, DatasetPreset preset, ScjEngine engine) {
  const auto& ds = CachedPreset(preset);
  size_t out_size = 0;
  for (auto _ : state) {
    out_size = benchutil::RunScj(state, ds, engine, ScjOptions{});
    benchmark::DoNotOptimize(out_size);
  }
  state.counters["out"] = static_cast<double>(out_size);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::WarmCalibration();
  for (DatasetPreset p : AllPresets()) {
    for (ScjEngine e : {ScjEngine::kMm, ScjEngine::kPie, ScjEngine::kPretti,
                        ScjEngine::kLimit}) {
      const std::string name =
          std::string("Fig4c/") + PresetName(p) + "/" + benchutil::ScjEngineName(e);
      benchmark::RegisterBenchmark(name.c_str(), BM_Scj, p, e)
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
