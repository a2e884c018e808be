// Figure 4a — two-path join-project across the six datasets, single core.
//
// Series: MMJoin (Algorithm 1 + optimizer), Non-MMJoin (Lemma 2
// combinatorial), and the simulated engines — Postgres-like (hash join +
// sort dedup), MySQL-like (sort-merge + sort dedup), System-X-like (hash
// join + preallocated hash dedup), EmptyHeaded-like (per-x k-way sorted
// unions). Expected shape (paper §7.2): full-join engines slowest by 1-2
// orders of magnitude on the dense datasets; MMJoin fastest everywhere
// except the sparse DBLP/RoadNet where the optimizer picks the plain WCOJ
// plan; EmptyHeaded-like competitive on the densest inputs.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "join/dbms_baselines.h"

using namespace jpmm;
using benchutil::CachedPreset;

namespace {

enum class Engine {
  kMmJoin,
  kNonMm,
  kPostgres,
  kMySql,
  kSystemX,
  kEmptyHeaded,
};

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kMmJoin:
      return "MMJoin";
    case Engine::kNonMm:
      return "NonMMJoin";
    case Engine::kPostgres:
      return "PostgresLike";
    case Engine::kMySql:
      return "MySQLLike";
    case Engine::kSystemX:
      return "SystemXLike";
    case Engine::kEmptyHeaded:
      return "EmptyHeadedLike";
  }
  return "?";
}

void BM_TwoPath(benchmark::State& state, DatasetPreset preset, Engine engine) {
  const auto& ds = CachedPreset(preset);
  size_t out_size = 0;
  for (auto _ : state) {
    switch (engine) {
      case Engine::kMmJoin:
        out_size = benchutil::RunTwoPath(state, ds, Strategy::kAuto);
        break;
      case Engine::kNonMm:
        out_size = benchutil::RunTwoPath(state, ds, Strategy::kNonMmJoin);
        break;
      case Engine::kPostgres:
        out_size = PostgresLikeJoinProject(*ds.idx, *ds.idx).size();
        break;
      case Engine::kMySql:
        out_size = MySqlLikeJoinProject(*ds.rel, *ds.rel).size();
        break;
      case Engine::kSystemX:
        out_size = SystemXLikeJoinProject(*ds.idx, *ds.idx).size();
        break;
      case Engine::kEmptyHeaded:
        out_size = EmptyHeadedLikeJoinProject(*ds.idx, *ds.idx).size();
        break;
    }
    benchmark::DoNotOptimize(out_size);
  }
  state.counters["out"] = static_cast<double>(out_size);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::WarmCalibration();
  for (DatasetPreset p : AllPresets()) {
    for (Engine e : {Engine::kMmJoin, Engine::kNonMm, Engine::kPostgres,
                     Engine::kMySql, Engine::kSystemX, Engine::kEmptyHeaded}) {
      const std::string name =
          std::string("Fig4a/") + PresetName(p) + "/" + EngineName(e);
      benchmark::RegisterBenchmark(name.c_str(), BM_TwoPath, p, e)
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
