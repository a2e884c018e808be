// Shared benchmark plumbing: preset caching, registration helpers, JSON
// output.
//
// Every bench binary regenerates one table or figure of the paper; its
// stdout rows (one benchmark per configuration) are the figure's series.
// JPMM_SCALE rescales all datasets (default 1.0 = laptop scale).
//
// Machine-readable output: binaries whose main is JPMM_BENCH_MAIN() mirror
// their results to a JSON file when JPMM_BENCH_JSON=<path> is set, e.g.
//   JPMM_BENCH_JSON=kernels.json ./bench_kernel_microbench
// which is google benchmark's JSON schema — the source for BENCH_*.json
// trajectory tracking.

#ifndef JPMM_BENCH_BENCH_UTIL_H_
#define JPMM_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/query_engine.h"
#include "datagen/presets.h"
#include "matrix/calibration.h"
#include "storage/index.h"
#include "storage/set_family.h"

namespace jpmm::benchutil {

/// Initializes and runs google benchmark, adding
/// --benchmark_out=<JPMM_BENCH_JSON> --benchmark_out_format=json when the
/// environment variable is set (explicit command-line flags still win:
/// google benchmark takes the last occurrence).
inline int RunBenchmarks(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag;
  const char* json_path = std::getenv("JPMM_BENCH_JSON");
  if (json_path != nullptr && *json_path != '\0') {
    out_flag = std::string("--benchmark_out=") + json_path;
    fmt_flag = "--benchmark_out_format=json";
    // Insert before user flags so explicit flags override.
    args.insert(args.begin() + 1, fmt_flag.data());
    args.insert(args.begin() + 1, out_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// The name a Dataset's relation has in its engine's catalog.
inline constexpr const char* kRelation = "R";

/// One generated dataset, registered in its own QueryEngine as kRelation,
/// with the catalog's index and a set-family view over it. The index is
/// built here, so a timed Prepare measures planning, not indexing.
struct Dataset {
  std::unique_ptr<QueryEngine> engine = std::make_unique<QueryEngine>();
  const BinaryRelation* rel = nullptr;
  const IndexedRelation* idx = nullptr;
  std::unique_ptr<SetFamily> fam;

  explicit Dataset(BinaryRelation r) {
    engine->AddRelation(kRelation, std::move(r));
    rel = &engine->catalog().Get(kRelation);
    idx = &engine->catalog().Index(kRelation);
    fam = std::make_unique<SetFamily>(*idx);
  }
};

/// Returns a process-cached dataset for (preset, extra_scale * JPMM_SCALE).
inline const Dataset& CachedPreset(DatasetPreset p, double extra_scale = 1.0) {
  static std::map<std::pair<int, long>, std::unique_ptr<Dataset>> cache;
  const double scale = ScaleFromEnv() * extra_scale;
  const auto key = std::make_pair(static_cast<int>(p),
                                  std::lround(scale * 1000.0));
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::make_unique<Dataset>(MakePreset(p, scale)))
             .first;
  }
  return *it->second;
}

/// A query over `arity` copies of the dataset's relation (1 for the
/// two-path and set-join self joins, k for a k-star).
inline QuerySpec SelfSpec(QueryKind kind, Strategy strategy,
                          size_t arity = 1) {
  QuerySpec spec;
  spec.kind = kind;
  spec.strategy = strategy;
  spec.relations.assign(arity, kRelation);
  return spec;
}

/// Runs `spec` on the dataset's engine into `sink`. Prepare and Execute both
/// run here, inside the caller's timed loop, so a row includes planning as
/// a served query does. An error status ends the row with an error.
inline void RunQuery(benchmark::State& state, const Dataset& ds,
                     const QuerySpec& spec, ResultSink& sink,
                     int threads = 1) {
  PreparedQuery query;
  QueryStatus st = ds.engine->Prepare(spec, &query);
  if (st.ok()) {
    ExecOptions exec;
    exec.threads = threads;
    st = ds.engine->Execute(query, sink, exec);
  }
  if (!st.ok()) state.SkipWithError(st.message().c_str());
}

/// One two-path self join, materialized into a VectorSink; returns the pair
/// count.
inline size_t RunTwoPath(benchmark::State& state, const Dataset& ds,
                         Strategy strategy, int threads = 1) {
  VectorSink sink;
  RunQuery(state, ds, SelfSpec(QueryKind::kTwoPath, strategy), sink, threads);
  return sink.size();
}

/// The star figures' dataset. Star outputs are k-dimensional, so it is
/// sampled harder than the two-path one (the paper does the same: "we take
/// the largest sample of each relation so that the result can fit in main
/// memory"). Words gets the hardest cut — its hub elements make the 3-star
/// output near-cubic.
inline const Dataset& StarPreset(DatasetPreset p) {
  return CachedPreset(p, p == DatasetPreset::kWords ? 0.05 : 0.2);
}

/// One 3-star self join; returns the tuple count. Counting keeps the row
/// free of any materialized copy: the star merges its light and heavy parts
/// straight into the sink.
inline size_t RunStar(benchmark::State& state, const Dataset& ds,
                      Strategy strategy, int threads = 1) {
  CountOnlySink sink;
  RunQuery(state, ds, SelfSpec(QueryKind::kStar, strategy, 3), sink,
           threads);
  return sink.count();
}

/// Emits one latency HistogramSnapshot (milliseconds) into the benchmark's
/// counters, flattened into BENCH_*.json:
///
///   <prefix>_p50_ms / <prefix>_p99_ms   percentile estimates, averaged
///                                       across benchmark threads
///   <prefix>_lat_count                  total recorded samples (summed)
///   <prefix>_lat_le_<bound>             non-empty bucket counts (summed),
///                                       Prometheus `le` semantics; the
///                                       overflow bucket is _le_inf
///
/// tools/bench_compare.py reconstructs and diffs the full latency
/// distribution from the _lat_le_* keys, not just the midpoint.
inline void ReportLatency(benchmark::State& state, const HistogramSnapshot& s,
                          const std::string& prefix = "client") {
  using benchmark::Counter;
  state.counters[prefix + "_p50_ms"] =
      Counter(s.Percentile(50.0), Counter::kAvgThreads);
  state.counters[prefix + "_p99_ms"] =
      Counter(s.Percentile(99.0), Counter::kAvgThreads);
  state.counters[prefix + "_lat_count"] =
      Counter(static_cast<double>(s.count));
  for (size_t i = 0; i < s.counts.size(); ++i) {
    if (s.counts[i] == 0) continue;
    char key[80];
    if (i < s.bounds.size()) {
      std::snprintf(key, sizeof(key), "%s_lat_le_%g", prefix.c_str(),
                    s.bounds[i]);
    } else {
      std::snprintf(key, sizeof(key), "%s_lat_le_inf", prefix.c_str());
    }
    state.counters[key] = Counter(static_cast<double>(s.counts[i]));
  }
}

/// Warm the matrix-multiplication calibration singleton so its one-time
/// measurement cost never lands inside a timed region.
inline void WarmCalibration() { MatMulCalibration::Default(); }

/// Thread counts swept by the "parallel" figures. The container this repo
/// ships in may expose a single hardware thread; the sweep still exercises
/// the parallel code paths (EXPERIMENTS.md discusses the flat curves).
inline const std::vector<int>& ThreadSweep() {
  static const std::vector<int> kThreads = {1, 2, 4, 8};
  return kThreads;
}

}  // namespace jpmm::benchutil

/// Drop-in replacement for BENCHMARK_MAIN() with JPMM_BENCH_JSON support.
#define JPMM_BENCH_MAIN()                                \
  int main(int argc, char** argv) {                      \
    return jpmm::benchutil::RunBenchmarks(argc, argv);   \
  }                                                      \
  int main(int, char**)

#endif  // JPMM_BENCH_BENCH_UTIL_H_
