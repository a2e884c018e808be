// QueryEngine sink microbench — the output-sensitivity acceptance row.
//
// Same prepared query (plan cached before timing starts), different
// consumers on an output-heavy input:
//
//   FullMaterialize   VectorSink, every pair materialized
//   CountOnly         CountOnlySink, no storage
//   Limit10           PageSink(0, 10) — done() fires in the first light
//                     chunks, the remaining chunks and every heavy product
//                     block are skipped
//   TopK10            OrderedBySink(kCountDescending, 10) over the counted
//                     query
//
// The limit row is the criterion: limit-10 latency must sit far below
// (>= 5x) full materialization, because early exit skips the work, not
// just the storage.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/query_engine.h"
#include "core/result_sink.h"
#include "datagen/presets.h"

using namespace jpmm;

namespace {

// One engine + prepared query per (counted) flavor, shared across
// benchmark runs so every timed iteration is a plan-cache hit — the
// numbers compare sink behavior, not optimizer time.
QueryEngine& SharedEngine() {
  static QueryEngine* engine = [] {
    auto* e = new QueryEngine();
    e->catalog().Put("R", MakePreset(DatasetPreset::kJokes,
                                     0.6 * ScaleFromEnv(), 42));
    return e;
  }();
  return *engine;
}

PreparedQuery& SharedQuery(bool counted) {
  static PreparedQuery* plain = nullptr;
  static PreparedQuery* with_counts = nullptr;
  PreparedQuery*& slot = counted ? with_counts : plain;
  if (slot == nullptr) {
    QuerySpec spec;
    spec.kind = QueryKind::kTwoPath;
    spec.relations = {"R"};
    spec.count_witnesses = counted;
    slot = new PreparedQuery();
    QueryStatus st = SharedEngine().Prepare(spec, slot);
    if (!st.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n", st.message().c_str());
      std::abort();
    }
    // Warm the plan cache so the timed loop measures execution only.
    CountOnlySink warm;
    SharedEngine().Execute(*slot, warm, {});
  }
  return *slot;
}

void BM_TwoPathFullMaterialize(benchmark::State& state) {
  PreparedQuery& q = SharedQuery(false);
  size_t n = 0;
  for (auto _ : state) {
    VectorSink sink;
    QueryStatus st = SharedEngine().Execute(q, sink, {});
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    n = sink.size();
    benchmark::DoNotOptimize(n);
  }
  state.counters["pairs"] = static_cast<double>(n);
}
BENCHMARK(BM_TwoPathFullMaterialize)->Unit(benchmark::kMillisecond);

void BM_TwoPathCountOnly(benchmark::State& state) {
  PreparedQuery& q = SharedQuery(false);
  uint64_t n = 0;
  for (auto _ : state) {
    CountOnlySink sink;
    QueryStatus st = SharedEngine().Execute(q, sink, {});
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    n = sink.count();
    benchmark::DoNotOptimize(n);
  }
  state.counters["pairs"] = static_cast<double>(n);
}
BENCHMARK(BM_TwoPathCountOnly)->Unit(benchmark::kMillisecond);

void BM_TwoPathLimit10(benchmark::State& state) {
  PreparedQuery& q = SharedQuery(false);
  ExecStats stats;
  for (auto _ : state) {
    PageSink sink(0, 10);
    QueryStatus st = SharedEngine().Execute(q, sink, {}, &stats);
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    benchmark::DoNotOptimize(sink.size());
  }
  state.counters["blocks_skipped"] =
      static_cast<double>(stats.heavy_blocks_skipped);
  state.counters["blocks_total"] =
      static_cast<double>(stats.heavy_blocks_total);
}
BENCHMARK(BM_TwoPathLimit10)->Unit(benchmark::kMillisecond);

void BM_TwoPathTopK10(benchmark::State& state) {
  PreparedQuery& q = SharedQuery(true);
  for (auto _ : state) {
    OrderedBySink sink(ResultOrder::kCountDescending, 10);
    QueryStatus st = SharedEngine().Execute(q, sink, {});
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    benchmark::DoNotOptimize(sink.ranked().size());
  }
}
BENCHMARK(BM_TwoPathTopK10)->Unit(benchmark::kMillisecond);

}  // namespace

JPMM_BENCH_MAIN();
