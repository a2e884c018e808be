// Figure 4b — three-relation star query, single core.
//
// Q*3(x, z, p) = R(x,y), R(z,y), R(p,y) over a sample of each dataset
// (the paper samples so the result fits in memory; we scale the presets
// down instead). Series: MMJoin (§3.2) vs the combinatorial Non-MM star.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

using namespace jpmm;

namespace {

void BM_Star(benchmark::State& state, DatasetPreset preset, Strategy strategy) {
  const auto& ds = benchutil::StarPreset(preset);
  size_t out_size = 0;
  for (auto _ : state) {
    out_size = benchutil::RunStar(state, ds, strategy);
    benchmark::DoNotOptimize(out_size);
  }
  state.counters["out"] = static_cast<double>(out_size);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::WarmCalibration();
  for (DatasetPreset p : AllPresets()) {
    const std::string mm = std::string("Fig4b/") + PresetName(p) + "/MMJoin";
    benchmark::RegisterBenchmark(mm.c_str(), BM_Star, p, Strategy::kMmJoin)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    const std::string nonmm =
        std::string("Fig4b/") + PresetName(p) + "/NonMMJoin";
    benchmark::RegisterBenchmark(nonmm.c_str(), BM_Star, p,
                                 Strategy::kNonMmJoin)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  return benchutil::RunBenchmarks(argc, argv);
}
