// Table 2 — dataset characteristics.
//
// Prints, for each synthetic preset, the columns the paper reports: |R|,
// number of sets, |dom|, avg/min/max set size — plus the full-join size and
// duplication factor that drive every other experiment. The "benchmark"
// timings here are generation times; the table itself goes to stdout.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "storage/stats.h"

using namespace jpmm;
using benchutil::CachedPreset;

namespace {

void BM_GenerateAndDescribe(benchmark::State& state, DatasetPreset preset) {
  for (auto _ : state) {
    const auto& ds = CachedPreset(preset);
    benchmark::DoNotOptimize(ds.rel->size());
  }
  const auto& ds = CachedPreset(preset);
  const SetFamilyStats st = ds.fam->Stats();
  TwoPathStats tp(*ds.idx, *ds.idx);
  state.counters["tuples"] = static_cast<double>(st.num_tuples);
  state.counters["sets"] = static_cast<double>(st.num_sets);
  state.counters["dom"] = static_cast<double>(st.dom_size);
  state.counters["avg_size"] = st.avg_set_size;
  state.counters["min_size"] = static_cast<double>(st.min_set_size);
  state.counters["max_size"] = static_cast<double>(st.max_set_size);
  state.counters["join_size"] = static_cast<double>(tp.full_join_size());
  state.counters["join_per_tuple"] =
      static_cast<double>(tp.full_join_size()) /
      static_cast<double>(st.num_tuples);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Table 2: dataset characteristics (scale=%.2f)\n",
              ScaleFromEnv());
  for (DatasetPreset p : AllPresets()) {
    benchmark::RegisterBenchmark((std::string("Table2/") + PresetName(p)).c_str(),
                                 BM_GenerateAndDescribe, p)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
