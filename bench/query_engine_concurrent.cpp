// Concurrent multi-client QueryEngine throughput — the serving-mode
// acceptance row.
//
// One shared engine + one shared PreparedQuery, hammered by 1 / 4 / 16
// simulated clients (google benchmark's ->Threads fan-out; every benchmark
// thread is one client running Execute with its own sink, threads=1 per
// execution so clients, not intra-query workers, carry the parallelism):
//
//   SharedEngineExecute      CountOnlySink full evaluation per request
//   SharedEngineLimit10      PageSink(0, 10) — the early-exit request mix
//   SharedEnginePage         PageSink(100, 25) — pagination requests
//   SharedEngineMixedPrepare each iteration Prepares a fresh PreparedQuery
//                            then Executes it (the catalog read path)
//
// The criterion: aggregate items/sec at 4 clients >= 2x the 1-client row
// (hardware permitting — on a single-core container the curve is flat and
// the row still guards against lock regressions: a serialized engine would
// scale *below* 1x).

// Each row additionally reports its per-request latency distribution
// (client_p50_ms / client_p99_ms / client_lat_le_* bucket counters) via
// the shared Histogram type, so bench_compare.py can diff tail latency,
// not just throughput.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "core/query_engine.h"
#include "core/result_sink.h"
#include "datagen/presets.h"

using namespace jpmm;

namespace {

// Times one client's requests into the shared histogram type. One
// standalone (ungated) instance per benchmark thread; ReportLatency sums
// the buckets across threads and averages the percentiles.
struct LatencyProbe {
  Histogram hist{DefaultLatencyBoundsMs()};
  std::chrono::steady_clock::time_point t0;

  void Start() { t0 = std::chrono::steady_clock::now(); }
  void Stop() {
    hist.Record(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
  }
  void Report(benchmark::State& state) {
    benchutil::ReportLatency(state, hist.Snapshot());
  }
};

// Shared across all benchmark threads: the serving topology under test is
// many clients -> one engine -> one catalog.
QueryEngine& SharedEngine() {
  static QueryEngine* engine = [] {
    auto* e = new QueryEngine();
    e->AddRelation("R", MakePreset(DatasetPreset::kJokes,
                                   0.4 * ScaleFromEnv(), 42));
    return e;
  }();
  return *engine;
}

PreparedQuery& SharedQuery() {
  static PreparedQuery* query = [] {
    QuerySpec spec;
    spec.kind = QueryKind::kTwoPath;
    spec.relations = {"R"};
    auto* q = new PreparedQuery();
    QueryStatus st = SharedEngine().Prepare(spec, q);
    if (!st.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n", st.message().c_str());
      std::abort();
    }
    // Warm the plan cache so the timed loop measures the serving path, not
    // the one-time optimizer run.
    CountOnlySink warm;
    SharedEngine().Execute(*q, warm, {});
    return q;
  }();
  return *query;
}

void BM_SharedEngineExecute(benchmark::State& state) {
  PreparedQuery& q = SharedQuery();
  LatencyProbe lat;
  for (auto _ : state) {
    CountOnlySink sink;
    lat.Start();
    QueryStatus st = SharedEngine().Execute(q, sink, {});
    lat.Stop();
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    benchmark::DoNotOptimize(sink.count());
  }
  lat.Report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedEngineExecute)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SharedEngineLimit10(benchmark::State& state) {
  PreparedQuery& q = SharedQuery();
  LatencyProbe lat;
  for (auto _ : state) {
    PageSink sink(0, 10);
    lat.Start();
    QueryStatus st = SharedEngine().Execute(q, sink, {});
    lat.Stop();
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    benchmark::DoNotOptimize(sink.size());
  }
  lat.Report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedEngineLimit10)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SharedEnginePage(benchmark::State& state) {
  PreparedQuery& q = SharedQuery();
  LatencyProbe lat;
  for (auto _ : state) {
    PageSink sink(100, 25);
    lat.Start();
    QueryStatus st = SharedEngine().Execute(q, sink, {});
    lat.Stop();
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    benchmark::DoNotOptimize(sink.size());
  }
  lat.Report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedEnginePage)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SharedEngineMixedPrepare(benchmark::State& state) {
  SharedQuery();  // ensure the engine + catalog exist before timing
  QuerySpec spec;
  spec.kind = QueryKind::kTwoPath;
  spec.relations = {"R"};
  LatencyProbe lat;
  for (auto _ : state) {
    lat.Start();
    PreparedQuery q;
    QueryStatus st = SharedEngine().Prepare(spec, &q);
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    PageSink sink(0, 10);
    st = SharedEngine().Execute(q, sink, {});
    lat.Stop();
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    benchmark::DoNotOptimize(sink.size());
  }
  lat.Report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedEngineMixedPrepare)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

JPMM_BENCH_MAIN();
