// Design-choice ablation (DESIGN.md §2): heavy-part strategies.
//
// The all-heavy witness class is evaluated two ways:
//   float-GEMM       : Algorithm 1's dense product (what MMJoin ships)
//   pairwise-gallop  : per-(heavy x, heavy z) sorted-list intersection
//                      (Non-MM's strategy)
// This bench compares the two on the heavy part of a dense community
// graph, at equal thresholds.
//
// A second family of rows ablates the density-adaptive grid
// (core/density_partition.h) against the uniform row-block plan:
//   *Skew rows    clustered-zipf instance — disjoint communities whose
//                 density decays zipf-style, so the degree remap clusters
//                 the communities into bands, prunes the provably-empty
//                 cross blocks, and runs each diagonal block on its own
//                 density's kernel. Off (kOff) vs Grid (kForce) is the
//                 headline speedup; Auto shows kAuto engaging on its own.
//   *Uniform rows flat degrees — the remap buys nothing, Auto must
//                 decline the grid and stay within noise of Off (the
//                 no-regression guard); GridUniform (kForce) measures the
//                 pure overhead of a grid nobody asked for.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/density_partition.h"
#include "core/mm_join.h"
#include "core/result_sink.h"
#include "datagen/generators.h"
#include "storage/index.h"

using namespace jpmm;

namespace {

struct HeavyFixture {
  BinaryRelation rel;
  std::unique_ptr<IndexedRelation> idx;

  explicit HeavyFixture(BinaryRelation r) : rel(std::move(r)) {
    idx = std::make_unique<IndexedRelation>(rel);
  }
};

const HeavyFixture& Fixture() {
  static HeavyFixture f(CommunityGraph(6, 160, 0.5, 17));
  return f;
}

constexpr Thresholds kThresholds{16, 16};

void BM_HeavyFloatGemm(benchmark::State& state) {
  const auto& f = Fixture();
  for (auto _ : state) {
    MmJoinOptions opts;
    opts.thresholds = kThresholds;
    VectorSink sink;
    MmJoinTwoPath(*f.idx, *f.idx, opts, sink);
    benchmark::DoNotOptimize(sink.pairs().data());
    state.counters["out"] = static_cast<double>(sink.pairs().size());
  }
}

void BM_HeavyPairwiseGallop(benchmark::State& state) {
  const auto& f = Fixture();
  for (auto _ : state) {
    MmJoinOptions opts;
    opts.thresholds = kThresholds;
    VectorSink sink;
    NonMmJoinTwoPath(*f.idx, *f.idx, opts, sink);
    benchmark::DoNotOptimize(sink.pairs().data());
    state.counters["out"] = static_cast<double>(sink.pairs().size());
  }
}

// ---- density-adaptive partitioning ablation ------------------------------

// Clustered-zipf instance: disjoint communities over disjoint y-domains
// whose per-community degree decays zipf-style (400, 250, 150, 80). The
// degree sort clusters each community into its own band, every cross-
// community block has a zero witness bound (pruned), and the diagonal
// blocks span densities from ~0.66 down to ~0.13 — exactly the internal
// skew a single global kernel choice cannot serve.
const HeavyFixture& ClusteredZipfFixture() {
  static HeavyFixture f([] {
    constexpr uint32_t kXsPer = 600, kYsPer = 600;
    constexpr uint32_t kDeg[4] = {400, 250, 150, 80};
    BinaryRelation rel;
    Rng rng(19);
    for (uint32_t c = 0; c < 4; ++c) {
      for (uint32_t i = 0; i < kXsPer; ++i) {
        const Value x = c * kXsPer + i;
        for (uint32_t k = 0; k < kDeg[c]; ++k) {
          rel.Add(x, c * kYsPer +
                         static_cast<Value>(rng.NextBounded(kYsPer)));
        }
      }
    }
    rel.Finalize();
    return rel;
  }());
  return f;
}

// Uniform instance: flat degrees, so the remap buys nothing and the grid
// must cost within noise of the uniform plan (the no-regression guard).
const HeavyFixture& UniformFixture() {
  static HeavyFixture f(UniformBipartite(1200, 500, 60000, 23));
  return f;
}

void RunPartitionRow(benchmark::State& state, const HeavyFixture& f,
                     PartitionMode mode) {
  for (auto _ : state) {
    MmJoinOptions opts;
    opts.thresholds = kThresholds;
    opts.partition = mode;
    VectorSink sink;
    const RunRecord res = MmJoinTwoPath(*f.idx, *f.idx, opts, sink);
    benchmark::DoNotOptimize(sink.pairs().data());
    state.counters["out"] = static_cast<double>(sink.pairs().size());
    state.counters["grid_pruned"] =
        static_cast<double>(res.partition_blocks_pruned);
    state.counters["grid_scheduled"] =
        static_cast<double>(res.partition_blocks_scheduled);
  }
}

void BM_HeavyPartitionOffSkew(benchmark::State& state) {
  RunPartitionRow(state, ClusteredZipfFixture(), PartitionMode::kOff);
}

void BM_HeavyPartitionGridSkew(benchmark::State& state) {
  RunPartitionRow(state, ClusteredZipfFixture(), PartitionMode::kForce);
}

void BM_HeavyPartitionAutoSkew(benchmark::State& state) {
  RunPartitionRow(state, ClusteredZipfFixture(), PartitionMode::kAuto);
}

void BM_HeavyPartitionOffUniform(benchmark::State& state) {
  RunPartitionRow(state, UniformFixture(), PartitionMode::kOff);
}

void BM_HeavyPartitionAutoUniform(benchmark::State& state) {
  RunPartitionRow(state, UniformFixture(), PartitionMode::kAuto);
}

void BM_HeavyPartitionGridUniform(benchmark::State& state) {
  RunPartitionRow(state, UniformFixture(), PartitionMode::kForce);
}

}  // namespace

BENCHMARK(BM_HeavyFloatGemm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HeavyPairwiseGallop)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HeavyPartitionOffSkew)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HeavyPartitionGridSkew)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HeavyPartitionAutoSkew)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HeavyPartitionOffUniform)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HeavyPartitionAutoUniform)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HeavyPartitionGridUniform)->Unit(benchmark::kMillisecond);

JPMM_BENCH_MAIN();
