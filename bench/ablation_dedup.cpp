// Design-choice ablation (DESIGN.md §2, §6 of the paper): light-part
// deduplication.
//
//   stamp-array : epoch-stamped dense vector (the §6 idiom, O(1) clear) —
//                 what MMJoin runs
//   hash-set    : the full-join + hash-set dedup a DBMS would use, for
//                 reference
// docs/kernels.md ("Light-part dedup") records why the paper's second
// strategy (append witnesses, sort, aggregate) has no row here.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/mm_join.h"
#include "join/hash_join.h"
#include "matrix/calibration.h"

using namespace jpmm;
using benchutil::CachedPreset;

namespace {

void BM_StampDedup(benchmark::State& state, DatasetPreset preset) {
  const auto& ds = CachedPreset(preset);
  for (auto _ : state) {
    MmJoinOptions opts;
    opts.thresholds = {16, 16};
    auto res = MmJoinTwoPath(*ds.idx, *ds.idx, opts);
    benchmark::DoNotOptimize(res.pairs.data());
    state.counters["out"] = static_cast<double>(res.pairs.size());
  }
}

void BM_HashSetDedup(benchmark::State& state, DatasetPreset preset) {
  const auto& ds = CachedPreset(preset);
  for (auto _ : state) {
    auto res = HashJoinProject(*ds.idx, *ds.idx, DedupMode::kHashSet);
    benchmark::DoNotOptimize(res.data());
    state.counters["out"] = static_cast<double>(res.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (DatasetPreset p : {DatasetPreset::kJokes, DatasetPreset::kWords}) {
    const std::string stamp = std::string("Dedup/") + PresetName(p) +
                              "/stamp-array";
    benchmark::RegisterBenchmark(stamp.c_str(), BM_StampDedup, p)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    const std::string hashs = std::string("Dedup/") + PresetName(p) +
                              "/hash-set";
    benchmark::RegisterBenchmark(hashs.c_str(), BM_HashSetDedup, p)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  // Every row runs once, so the kernel-rate calibration the heavy-part
  // dispatch triggers on first use (~200 ms) must not land in the first row.
  SparseKernelRates::Default();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
