// Figure 6a — ordered SSJ vs overlap threshold c on the Image-like dataset
// (the densest family; the regime where SizeAware's per-pair overlap
// computation hurts the most).

#include <benchmark/benchmark.h>

#include "bench/set_join_engines.h"

using namespace jpmm;
using benchutil::CachedPreset;
using benchutil::SsjEngine;

namespace {

void BM_OrderedImage(benchmark::State& state, SsjEngine engine, uint32_t c) {
  const auto& ds = CachedPreset(DatasetPreset::kImage);
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
  for (SsjEngine engine : benchutil::kSsjEngines) {
    for (uint32_t c : {2u, 3u, 4u, 5u, 6u}) {
      const std::string name = std::string("Fig6a/Image/") +
                               benchutil::SsjEngineName(engine) + "/c:" +
                               std::to_string(c);
      benchmark::RegisterBenchmark(name.c_str(), BM_OrderedImage, engine, c)
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
