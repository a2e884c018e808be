// Extension bench (§9 future work): triangle counting, MM (AYZ split,
// through QueryEngine) vs the combinatorial node iterator, on community
// graphs of growing size.
//
// The MM rows report the split as `light` / `heavy` counters. On these
// graphs (4 communities, p = 0.6) the heavy part is empty at every size:
// the default delta sqrt(|E|) (154, 309 and 619) sits above every vertex
// degree (at most 76, 141 and 270), so every triangle is found by the
// light-vertex enumeration and the trace(A_H^3) product never runs. The
// rows compare the light enumeration with the node iterator; the trace
// product's regime (hub vertices above delta) is covered by triangle_test
// and by the CI triangle smoke, which runs `jpmm_cli triangles` on a hub
// graph.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "core/query_engine.h"
#include "core/triangle.h"
#include "datagen/generators.h"
#include "storage/index.h"

using namespace jpmm;

namespace {

// One engine per graph size, holding the community graph as "G".
QueryEngine& Engine(int communities, int size) {
  static std::map<std::pair<int, int>, std::unique_ptr<QueryEngine>> cache;
  auto key = std::make_pair(communities, size);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto engine = std::make_unique<QueryEngine>();
    engine->AddRelation("G", CommunityGraph(communities, size, 0.6, 11));
    it = cache.emplace(key, std::move(engine)).first;
  }
  return *it->second;
}

void BM_TrianglesMm(benchmark::State& state) {
  QueryEngine& engine = Engine(4, static_cast<int>(state.range(0)));
  QuerySpec spec;
  spec.kind = QueryKind::kTriangle;
  spec.relations = {"G"};
  PreparedQuery query;
  QueryStatus st = engine.Prepare(spec, &query);
  ExecStats stats;
  for (auto _ : state) {
    if (!st.ok()) break;
    CountOnlySink sink;
    st = engine.Execute(query, sink, ExecOptions{}, &stats);
    benchmark::DoNotOptimize(stats.triangles);
  }
  if (!st.ok()) {
    state.SkipWithError(st.message().c_str());
    return;
  }
  state.counters["triangles"] = static_cast<double>(stats.triangles);
  state.counters["light"] = static_cast<double>(stats.light_triangles);
  state.counters["heavy"] = static_cast<double>(stats.heavy_triangles);
  state.counters["delta"] =
      static_cast<double>(stats.adjusted_thresholds.delta1);
}

void BM_TrianglesNodeIterator(benchmark::State& state) {
  QueryEngine& engine = Engine(4, static_cast<int>(state.range(0)));
  const IndexedRelation& g = engine.catalog().Index("G");
  uint64_t count = 0;
  for (auto _ : state) {
    count = CountTrianglesNodeIterator(g);
    benchmark::DoNotOptimize(count);
  }
  state.counters["triangles"] = static_cast<double>(count);
}

}  // namespace

BENCHMARK(BM_TrianglesMm)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_TrianglesNodeIterator)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK_MAIN();
