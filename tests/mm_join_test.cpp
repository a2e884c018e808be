// Correctness tests for Algorithm 1 (MMJoin) and the combinatorial Non-MM
// join, against brute-force oracles, across thresholds / skews / threads —
// the central property suite of the library.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/density_partition.h"
#include "core/join_project.h"
#include "core/mm_join.h"
#include "core/optimizer.h"
#include "core/query_engine.h"
#include "core/result_sink.h"
#include "core/trace.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::OracleTwoPath;
using testutil::OracleTwoPathCounted;
using testutil::RandomRelation;
using testutil::MmRun;
using testutil::NonMmRun;
using testutil::SortedOutput;
using testutil::SpanDetail;
using testutil::WcojReference;

TEST(MmJoin, TinyHandComputedExample) {
  // R = {(0,0), (0,1), (1,1)}, S = {(5,0), (6,1)}:
  // output = {(0,5), (0,6), (1,6)}.
  BinaryRelation r, s;
  r.Add(0, 0);
  r.Add(0, 1);
  r.Add(1, 1);
  r.Finalize();
  s.Add(5, 0);
  s.Add(6, 1);
  s.Finalize();
  IndexedRelation ri(r), si(s);
  MmJoinOptions opts;
  opts.thresholds = {1, 1};
  auto res = MmRun(ri, si, opts);
  EXPECT_EQ(res.pairs,
            (std::vector<OutPair>{{0, 5}, {0, 6}, {1, 6}}));
}

TEST(MmJoin, PaperExample2) {
  // Example 2 of the paper: two bipartite relations where x,y in {1..6};
  // light part has values 1-3, heavy part 4-6 under Delta1 = Delta2 = 2.
  BinaryRelation r, s;
  // R: 1-1, 2-2, 3-3 (light chains) and dense block on {4,5,6}.
  r.Add(1, 1);
  r.Add(2, 2);
  r.Add(3, 3);
  r.Add(4, 4);
  r.Add(4, 6);
  r.Add(5, 4);
  r.Add(5, 5);
  r.Add(5, 6);
  r.Add(6, 4);
  r.Add(6, 5);
  r.Finalize();
  s.Add(1, 1);
  s.Add(2, 2);
  s.Add(3, 3);
  s.Add(4, 4);
  s.Add(4, 5);
  s.Add(5, 4);
  s.Add(5, 5);
  s.Add(5, 6);
  s.Add(6, 5);
  s.Add(6, 6);
  s.Finalize();
  IndexedRelation ri(r), si(s);
  MmJoinOptions opts;
  opts.thresholds = {2, 2};
  opts.count_witnesses = true;
  auto res = MmRun(ri, si, opts);
  EXPECT_EQ(res.counted, OracleTwoPathCounted(r, s));
  // The heavy block {4,5,6} x {4,5,6} should have gone through the matrix.
  EXPECT_GT(res.heavy_rows, 0u);
  EXPECT_GT(res.heavy_inner, 0u);
}

// ---------------------------------------------------------------------------
// Property sweep: (num_x, num_y, tuples, skew, delta1, delta2, threads).
struct SweepParam {
  uint32_t nx, ny, tuples;
  double skew;
  uint64_t d1, d2;
  int threads;
};

class MmJoinSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MmJoinSweep, EnumerationMatchesOracle) {
  const SweepParam p = GetParam();
  BinaryRelation r = RandomRelation(p.nx, p.ny, p.tuples, p.skew, 31);
  BinaryRelation s = RandomRelation(p.nx + 7, p.ny, p.tuples, p.skew, 32);
  IndexedRelation ri(r), si(s);
  MmJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  auto res = MmRun(ri, si, opts);
  EXPECT_EQ(res.pairs, OracleTwoPath(r, s));
}

TEST_P(MmJoinSweep, CountsMatchOracle) {
  const SweepParam p = GetParam();
  BinaryRelation r = RandomRelation(p.nx, p.ny, p.tuples, p.skew, 33);
  BinaryRelation s = RandomRelation(p.nx + 3, p.ny, p.tuples, p.skew, 34);
  IndexedRelation ri(r), si(s);
  MmJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  opts.count_witnesses = true;
  auto res = MmRun(ri, si, opts);
  EXPECT_EQ(res.counted, OracleTwoPathCounted(r, s));
}

TEST_P(MmJoinSweep, NonMmMatchesOracle) {
  const SweepParam p = GetParam();
  BinaryRelation r = RandomRelation(p.nx, p.ny, p.tuples, p.skew, 35);
  BinaryRelation s = RandomRelation(p.nx + 5, p.ny, p.tuples, p.skew, 36);
  IndexedRelation ri(r), si(s);
  MmJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  auto res = NonMmRun(ri, si, opts);
  EXPECT_EQ(res.pairs, OracleTwoPath(r, s));

  opts.count_witnesses = true;
  auto counted = NonMmRun(ri, si, opts);
  EXPECT_EQ(counted.counted, OracleTwoPathCounted(r, s));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MmJoinSweep,
    ::testing::Values(
        // all-light extreme
        SweepParam{30, 20, 150, 0.8, 1000, 1000, 1},
        // all-heavy extreme
        SweepParam{30, 20, 150, 0.8, 1, 1, 1},
        // balanced thresholds, single thread
        SweepParam{40, 30, 300, 1.0, 3, 3, 1},
        // asymmetric thresholds
        SweepParam{40, 30, 300, 1.0, 2, 8, 1},
        SweepParam{40, 30, 300, 1.0, 8, 2, 1},
        // heavy skew (hubs)
        SweepParam{60, 40, 500, 1.6, 4, 4, 1},
        // no skew (uniform)
        SweepParam{60, 40, 500, 0.0, 4, 4, 1},
        // multithreaded variants
        SweepParam{40, 30, 300, 1.0, 3, 3, 4},
        SweepParam{60, 40, 500, 1.6, 2, 2, 3},
        // larger instance
        SweepParam{200, 150, 3000, 1.2, 6, 6, 2}));

// ---------------------------------------------------------------------------

TEST(MmJoin, SelfJoinMatchesOracle) {
  BinaryRelation r = RandomRelation(50, 35, 400, 1.3, 41);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {3, 3};
  auto res = MmRun(ri, ri, opts);
  EXPECT_EQ(res.pairs, OracleTwoPath(r, r));
}

TEST(MmJoin, CommunityGraphFromExample1) {
  // Example 1: N^{3/2} join size but Theta(N) projected output.
  BinaryRelation r = CommunityGraph(4, 24, 0.9, 7);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {8, 8};
  auto res = MmRun(ri, ri, opts);
  EXPECT_EQ(res.pairs, OracleTwoPath(r, r));
  EXPECT_GT(res.heavy_rows, 0u);  // communities are heavy
}

TEST(MmJoin, MinCountFiltersPairs) {
  BinaryRelation r = RandomRelation(30, 20, 250, 1.0, 42);
  IndexedRelation ri(r);
  for (uint32_t c : {2u, 3u, 5u}) {
    MmJoinOptions opts;
    opts.thresholds = {3, 3};
    opts.count_witnesses = true;
    opts.min_count = c;
    auto res = MmRun(ri, ri, opts);
    EXPECT_EQ(res.counted, OracleTwoPathCounted(r, r, c)) << "c=" << c;
  }
}

TEST(MmJoin, SmallRowBlocksMatch) {
  BinaryRelation r = RandomRelation(60, 30, 600, 1.4, 44);
  IndexedRelation ri(r);
  MmJoinOptions a;
  a.thresholds = {2, 2};
  a.row_block = 1;
  MmJoinOptions b = a;
  b.row_block = 7;
  MmJoinOptions c = a;
  c.row_block = 4096;
  const auto ref = MmRun(ri, ri, a).pairs;
  EXPECT_EQ(MmRun(ri, ri, b).pairs, ref);
  EXPECT_EQ(MmRun(ri, ri, c).pairs, ref);
}

TEST(MmJoin, MemoryCapRaisesThresholds) {
  BinaryRelation r = RandomRelation(200, 100, 3000, 1.2, 45);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {1, 1};
  opts.max_matrix_bytes = 1024;  // absurdly small: force adjustment
  auto res = MmRun(ri, ri, opts);
  EXPECT_GT(res.adjusted_thresholds.delta1, 1u);
  EXPECT_EQ(res.pairs, OracleTwoPath(r, r));
}

TEST(MmJoin, EmptyRelations) {
  BinaryRelation r;
  r.Finalize();
  IndexedRelation ri(r);
  MmJoinOptions opts;
  auto res = MmRun(ri, ri, opts);
  EXPECT_TRUE(res.pairs.empty());
}

TEST(MmJoin, DisjointYDomainsProduceNothing) {
  BinaryRelation r, s;
  r.Add(0, 0);
  r.Add(1, 1);
  r.Finalize();
  s.Add(0, 5);
  s.Add(1, 6);
  s.Finalize();
  IndexedRelation ri(r), si(s);
  MmJoinOptions opts;
  opts.thresholds = {1, 1};
  EXPECT_TRUE(MmRun(ri, si, opts).pairs.empty());
}

TEST(MmJoin, OutputHasNoDuplicates) {
  BinaryRelation r = RandomRelation(80, 40, 900, 1.3, 46);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {3, 5};
  auto res = MmRun(ri, ri, opts);
  auto sorted = res.pairs;
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(NonMm, HeavyPathExercised) {
  BinaryRelation r = CommunityGraph(3, 16, 1.0, 3);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {4, 4};
  auto res = NonMmRun(ri, ri, opts);
  EXPECT_GT(res.heavy_rows, 0u);
  EXPECT_EQ(res.pairs, OracleTwoPath(r, r));
}

// Guard for the dynamic (atomic-chunk-claiming) scheduler: on skewed
// inputs, every thread count — including ones above the hardware count —
// must produce the identical sorted output. A partition-dependent race or
// per-worker-state collision would show up as a diff here.
TEST(MmJoin, ThreadCountDoesNotChangeSortedOutput) {
  BipartiteSpec spec;
  spec.num_sets = 1500;
  spec.dom_size = 500;
  spec.min_set_size = 1;
  spec.max_set_size = 16;
  spec.element_skew = 0.9;  // zipf-heavy hubs => skewed x/y degrees
  spec.size_skew = 1.0;
  spec.seed = 97;
  BinaryRelation rel = MakeBipartite(spec);
  IndexedRelation ri(rel);

  const std::vector<int> sweep = {1, 3, HardwareThreads()};
  MmJoinOptions base;
  base.thresholds = {4, 4};  // force a real heavy part
  base.threads = 1;
  const auto ref = MmRun(ri, ri, base).pairs;
  EXPECT_FALSE(ref.empty());
  for (int threads : sweep) {
    MmJoinOptions opts = base;
    opts.threads = threads;
    EXPECT_EQ(MmRun(ri, ri, opts).pairs, ref)
        << "threads=" << threads;
  }
  // Counted variant: witness counts must also be partition-independent.
  MmJoinOptions counted = base;
  counted.count_witnesses = true;
  const auto cref = MmRun(ri, ri, counted).counted;
  for (int threads : sweep) {
    MmJoinOptions opts = counted;
    opts.threads = threads;
    EXPECT_EQ(MmRun(ri, ri, opts).counted, cref)
        << "threads=" << threads;
  }
}

// Same property through plan choice + dispatch (ChooseTwoPathPlan at each
// thread count, then RunTwoPath), with a pinned calibration so the
// optimizer's decision is deterministic and no measurement runs inside the
// test.
TEST(MmJoin, PlannedRunThreadSweepIsDeterministic) {
  BipartiteSpec spec;
  spec.num_sets = 2500;
  spec.dom_size = 600;
  spec.max_set_size = 20;
  spec.element_skew = 0.8;
  spec.seed = 131;
  BinaryRelation rel = MakeBipartite(spec);
  IndexedRelation ri(rel);
  const TwoPathStats stats(ri, ri);

  const MatMulCalibration cal =
      MatMulCalibration::FromFlopsRate(5e10, {1, 2, 4, 8});
  auto plan_at = [&](int threads) {
    OptimizerOptions oo;
    oo.calibration = &cal;
    oo.threads = threads;
    return ChooseTwoPathPlan(ri, ri, stats, oo);
  };
  auto run_at = [&](int threads, const PlanChoice& plan) {
    MmJoinOptions opts;
    opts.threads = threads;
    VectorSink sink;
    RunTwoPath(ri, ri, plan, Strategy::kAuto, opts, sink);
    return testutil::SortedOutput(sink).pairs;
  };
  const PlanChoice ref_plan = plan_at(1);
  const auto ref = run_at(1, ref_plan);
  EXPECT_FALSE(ref.empty());
  for (int threads : {3, HardwareThreads()}) {
    // The thresholds may move with the thread count (parallel efficiency
    // is part of the cost model), but not between two plannings at one
    // count, and the strategy and the output stay the same.
    const PlanChoice plan = plan_at(threads);
    EXPECT_EQ(plan_at(threads).thresholds, plan.thresholds)
        << "threads=" << threads;
    EXPECT_EQ(ResolveStrategy(Strategy::kAuto, plan),
              ResolveStrategy(Strategy::kAuto, ref_plan))
        << "threads=" << threads;
    EXPECT_EQ(run_at(threads, plan), ref) << "threads=" << threads;
  }
}

TEST(MmJoin, InstrumentationIsConsistent) {
  BinaryRelation r = CommunityGraph(3, 20, 1.0, 9);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {5, 5};
  auto res = MmRun(ri, ri, opts);
  EXPECT_GE(res.light_seconds, 0.0);
  EXPECT_GE(res.heavy_seconds, 0.0);
  EXPECT_EQ(res.adjusted_thresholds.delta1, 5u);
  EXPECT_GT(res.heavy_rows, 0u);
  EXPECT_GT(res.heavy_cols, 0u);
}

// ---- The operand memo (HeavyOperandCache) --------------------------------
//
// A prepared two-path keeps its threshold fit, M1 / M2 and their prepared
// product for its lifetime. A repeat execution must reuse all three and
// answer exactly like the first; a change to any input of the build must
// rebuild.

// Four dense communities: under thresholds {4, 4} most of the join is
// heavy, so every execution reaches the product.
BinaryRelation MemoGraph(uint64_t seed = 11) {
  return CommunityGraph(4, 60, 0.5, seed);
}

QuerySpec MemoSpec(QueryKind kind) {
  QuerySpec spec;
  spec.kind = kind;
  spec.relations = {"R"};
  spec.strategy = Strategy::kMmJoin;
  spec.count_witnesses = kind == QueryKind::kTwoPath;
  spec.ssj_c = 2;
  return spec;
}

ExecOptions MemoExec() {
  ExecOptions exec;
  exec.thresholds = {4, 4};
  return exec;
}

// One traced execution: its record and sorted output.
struct MemoRun {
  ExecStats stats;
  SortedOutput out;
  std::string Detail(const char* span) const { return SpanDetail(stats, span); }
};

MemoRun ExecuteMemo(QueryEngine& engine, PreparedQuery& q, ExecOptions exec) {
  TraceRecorder rec;
  exec.trace = &rec;
  VectorSink sink;
  MemoRun run;
  EXPECT_TRUE(engine.Execute(q, sink, exec, &run.stats).ok());
  run.out = SortedOutput(sink);
  return run;
}

// The build spans of a run: the fit, then M1 / M2 and their pack.
constexpr const char* kBuildSpans[] = {"threshold-fit", "csr-build", "pack"};

// Non-MMJoin builds no matrices, so it keeps only its fit: its repeat hits
// on "threshold-fit" and opens no operand build span.
TEST(HeavyOperandMemo, RepeatExecuteHitsOnEveryBuildSpan) {
  const BinaryRelation rel = MemoGraph();
  const IndexedRelation idx(rel);
  const SortedOutput want = WcojReference(idx, idx, /*count_witnesses=*/true);
  QueryEngine engine;
  engine.AddRelation("R", rel);
  struct Input {
    Strategy strategy;
    PartitionMode partition;
  };
  for (const Input in : {Input{Strategy::kMmJoin, PartitionMode::kOff},
                         Input{Strategy::kMmJoin, PartitionMode::kForce},
                         Input{Strategy::kNonMmJoin, PartitionMode::kOff}}) {
    const bool mm = in.strategy == Strategy::kMmJoin;
    const std::string where = std::string(StrategyName(in.strategy)) + "/" +
                              PartitionModeName(in.partition);
    QuerySpec spec = MemoSpec(QueryKind::kTwoPath);
    spec.strategy = in.strategy;
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(spec, &q).ok());
    ExecOptions exec = MemoExec();
    exec.partition = in.partition;
    const MemoRun cold = ExecuteMemo(engine, q, exec);
    const MemoRun warm = ExecuteMemo(engine, q, exec);
    ASSERT_GT(cold.stats.heavy_blocks_executed, 0u) << where;
    for (const char* span : kBuildSpans) {
      const bool built = mm || std::string(span) == "threshold-fit";
      EXPECT_EQ(cold.Detail(span), built ? "cache-miss" : "")
          << where << " " << span;
      EXPECT_EQ(warm.Detail(span), built ? "cache-hit" : "")
          << where << " " << span;
    }
    const bool grid = in.partition != PartitionMode::kOff;
    EXPECT_EQ(warm.Detail("degree-remap"), grid ? "cache-hit" : "") << where;
    EXPECT_FALSE(cold.stats.partition_cache_hit) << where;
    EXPECT_EQ(warm.stats.partition_cache_hit, grid) << where;
    EXPECT_FALSE(cold.stats.operand_cache_hit) << where;
    EXPECT_TRUE(warm.stats.operand_cache_hit) << where;
    EXPECT_GT(cold.stats.operand_cache_bytes, 0u) << where;
    EXPECT_EQ(warm.stats.operand_cache_bytes, cold.stats.operand_cache_bytes)
        << where;
    EXPECT_EQ(warm.stats.partition_signature, cold.stats.partition_signature)
        << where;
    EXPECT_EQ(warm.stats.heavy_blocks_executed,
              cold.stats.heavy_blocks_executed)
        << where;
    EXPECT_EQ(cold.out, want) << where;
    EXPECT_EQ(warm.out, want) << where;
  }
}

// Every query the two-path family serves — plain and counted two-path, SSJ
// and SCJ — answers like the WCOJ reference, cold and warm, at 1 and 4
// threads.
TEST(HeavyOperandMemo, MatchesWcojReferenceColdAndWarm) {
  // MemoGraph plus 40 nested prefix sets {0..i}, which give SCJ its pairs.
  BinaryRelation rel = MemoGraph();
  for (Value i = 0; i < 40; ++i) {
    for (Value y = 0; y <= i; ++y) rel.Add(1000 + i, y);
  }
  rel.Finalize();
  const IndexedRelation idx(rel);
  const SortedOutput counted = WcojReference(idx, idx, true);
  SortedOutput plain = WcojReference(idx, idx);
  SortedOutput ssj, scj;
  for (const CountedPair& p : counted.counted) {
    if (p.x < p.z && p.count >= 2) ssj.pairs.push_back({p.x, p.z});
    if (p.x != p.z && p.count == idx.DegX(p.x)) scj.pairs.push_back({p.x, p.z});
  }
  ASSERT_FALSE(ssj.pairs.empty());
  ASSERT_FALSE(scj.pairs.empty());
  struct Case {
    const char* name;
    QuerySpec spec;
    const SortedOutput& want;
  };
  QuerySpec two_path = MemoSpec(QueryKind::kTwoPath);
  two_path.count_witnesses = false;
  const Case cases[] = {
      {"two-path", two_path, plain},
      {"counted", MemoSpec(QueryKind::kTwoPath), counted},
      {"ssj", MemoSpec(QueryKind::kSsj), ssj},
      {"scj", MemoSpec(QueryKind::kScj), scj},
  };
  QueryEngine engine;
  engine.AddRelation("R", rel);
  for (const Case& c : cases) {
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(c.spec, &q).ok()) << c.name;
    for (int threads : {1, 4}) {
      ExecOptions exec = MemoExec();
      exec.threads = threads;
      const MemoRun cold = ExecuteMemo(engine, q, exec);
      const MemoRun warm = ExecuteMemo(engine, q, exec);
      const std::string where = std::string(c.name) + "/" +
                                std::to_string(threads);
      EXPECT_EQ(cold.Detail("pack"), "cache-miss") << where;
      EXPECT_EQ(warm.Detail("pack"), "cache-hit") << where;
      EXPECT_EQ(cold.out, c.want) << where;
      EXPECT_EQ(warm.out, c.want) << where;
    }
  }
}

TEST(HeavyOperandMemo, EveryKeyFieldRebuilds) {
  const BinaryRelation rel = MemoGraph();
  const IndexedRelation idx(rel);
  const SortedOutput want = WcojReference(idx, idx, true);
  QueryEngine engine;
  engine.AddRelation("R", rel);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(MemoSpec(QueryKind::kTwoPath), &q).ok());

  const ExecOptions base = MemoExec();
  ExecOptions threads = base;
  threads.threads = 3;
  ExecOptions heavy_path = base;
  heavy_path.heavy_path = HeavyPathMode::kForceCsrCsr;
  ExecOptions cap = base;
  cap.max_matrix_bytes = 256 << 10;
  ExecOptions thresholds = base;
  thresholds.thresholds = {2, 2};
  ExecOptions partition = base;
  partition.partition = PartitionMode::kForce;
  const std::pair<const char*, ExecOptions> changes[] = {
      {"threads", threads},
      {"heavy_path", heavy_path},
      {"max_matrix_bytes", cap},
      {"thresholds", thresholds},
      {"partition", partition},
  };
  const MemoRun first = ExecuteMemo(engine, q, base);
  ASSERT_EQ(first.Detail("pack"), "cache-miss");
  for (const auto& [field, exec] : changes) {
    const MemoRun changed = ExecuteMemo(engine, q, exec);
    for (const char* span : kBuildSpans) {
      EXPECT_EQ(changed.Detail(span), "cache-miss") << field << " " << span;
    }
    EXPECT_EQ(changed.out, want) << field;
    EXPECT_EQ(ExecuteMemo(engine, q, exec).Detail("pack"), "cache-hit")
        << field;
    // Back to the first key: the memo holds one slot, so this rebuilds too.
    const MemoRun back = ExecuteMemo(engine, q, base);
    EXPECT_EQ(back.Detail("threshold-fit"), "cache-miss") << field;
    EXPECT_EQ(back.Detail("pack"), "cache-miss") << field;
    EXPECT_EQ(back.out, want) << field;
  }
}

// The row block is no ExecOptions field; the memo keys it all the same.
TEST(HeavyOperandMemo, RowBlockRebuilds) {
  const BinaryRelation rel = MemoGraph();
  const IndexedRelation idx(rel);
  HeavyOperandCache cache;
  MmJoinOptions opts;
  opts.thresholds = {4, 4};
  opts.count_witnesses = true;
  opts.operand_cache = &cache;
  const auto first = MmRun(idx, idx, opts);
  EXPECT_TRUE(MmRun(idx, idx, opts).operand_cache_hit);
  opts.row_block = 16;
  const auto small = MmRun(idx, idx, opts);
  EXPECT_FALSE(small.operand_cache_hit);
  EXPECT_GT(small.heavy_blocks_total, first.heavy_blocks_total);
  EXPECT_EQ(small.counted, first.counted);
  EXPECT_TRUE(MmRun(idx, idx, opts).operand_cache_hit);
}

// The memo lives in the PreparedQuery: the old query keeps answering on its
// snapshot, and a re-Prepare after the relation is replaced rebuilds.
TEST(HeavyOperandMemo, RePrepareAfterAddRelationMisses) {
  const BinaryRelation before = MemoGraph(11);
  const BinaryRelation after = MemoGraph(29);
  const IndexedRelation before_idx(before), after_idx(after);
  const SortedOutput want_before = WcojReference(before_idx, before_idx, true);
  const SortedOutput want_after = WcojReference(after_idx, after_idx, true);
  ASSERT_NE(want_before, want_after);

  QueryEngine engine;
  engine.AddRelation("R", before);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(MemoSpec(QueryKind::kTwoPath), &q).ok());
  EXPECT_EQ(ExecuteMemo(engine, q, MemoExec()).out, want_before);

  engine.AddRelation("R", after);
  const MemoRun stale = ExecuteMemo(engine, q, MemoExec());
  EXPECT_EQ(stale.Detail("pack"), "cache-hit");
  EXPECT_EQ(stale.out, want_before);

  ASSERT_TRUE(engine.Prepare(MemoSpec(QueryKind::kTwoPath), &q).ok());
  const MemoRun fresh = ExecuteMemo(engine, q, MemoExec());
  for (const char* span : kBuildSpans) {
    EXPECT_EQ(fresh.Detail(span), "cache-miss") << span;
  }
  EXPECT_EQ(fresh.out, want_after);
}

// A build that throws keeps nothing: the fit survives (it was complete),
// the operands are built afresh by the next execution, which succeeds.
TEST(HeavyOperandMemo, ThrowingCsrBuildLeavesTheSlotEmpty) {
  struct Disarm {
    ~Disarm() { FailPoints::DeactivateAll(); }
  } disarm;
  const BinaryRelation rel = MemoGraph();
  const IndexedRelation idx(rel);
  QueryEngine engine;
  engine.AddRelation("R", rel);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(MemoSpec(QueryKind::kTwoPath), &q).ok());

  FailPoints::Activate("csr.build", FailPoints::Action::kThrow, 1.0);
  VectorSink failed;
  EXPECT_THROW(engine.Execute(q, failed, MemoExec()), FailPointError);
  FailPoints::Deactivate("csr.build");

  const MemoRun next = ExecuteMemo(engine, q, MemoExec());
  EXPECT_EQ(next.Detail("threshold-fit"), "cache-hit");
  EXPECT_EQ(next.Detail("csr-build"), "cache-miss");
  EXPECT_EQ(next.Detail("pack"), "cache-miss");
  EXPECT_EQ(next.out, WcojReference(idx, idx, true));
  EXPECT_EQ(ExecuteMemo(engine, q, MemoExec()).Detail("pack"), "cache-hit");
}

// jpmm_join_heavy_operand_bytes_total counts what a product build made: a
// limit the light pass satisfies builds nothing, a memo hit nothing more.
TEST(HeavyOperandMemo, OperandBytesCountOnlyWhatIsBuilt) {
  // Light section first in x order (groups of 4 x values sharing one y),
  // then a 100 x 100 complete bipartite heavy block.
  BinaryRelation rel;
  for (Value x = 0; x < 200; ++x) rel.Add(x, 1000 + x / 4);
  for (Value i = 0; i < 100; ++i) {
    for (Value j = 0; j < 100; ++j) rel.Add(500 + i, 2000 + j);
  }
  rel.Finalize();
  QueryEngine engine;
  engine.AddRelation("R", rel);
  QuerySpec spec = MemoSpec(QueryKind::kTwoPath);
  spec.count_witnesses = false;
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(spec, &q).ok());
  ExecOptions exec;
  exec.thresholds = {5, 5};
  const Counter& bytes = MetricsRegistry::Global().GetCounter(
      "jpmm_join_heavy_operand_bytes_total");

  uint64_t before = bytes.value();
  PageSink limit(0, 3);
  ExecStats limited;
  ASSERT_TRUE(engine.Execute(q, limit, exec, &limited).ok());
  ASSERT_GT(limited.heavy_rows, 0u) << "test premise: heavy part must exist";
  EXPECT_EQ(limited.heavy_blocks_skipped, limited.heavy_blocks_total);
  EXPECT_EQ(bytes.value() - before, 0u);

  before = bytes.value();
  VectorSink full;
  ExecStats built;
  ASSERT_TRUE(engine.Execute(q, full, exec, &built).ok());
  EXPECT_GT(built.heavy_blocks_executed, 0u);
  EXPECT_GT(bytes.value() - before, 0u);
  EXPECT_LT(bytes.value() - before, built.operand_cache_bytes);

  before = bytes.value();
  VectorSink warm;
  ExecStats hit;
  ASSERT_TRUE(engine.Execute(q, warm, exec, &hit).ok());
  EXPECT_TRUE(hit.operand_cache_hit);
  EXPECT_EQ(bytes.value() - before, 0u);
}

// ---- Self-join symmetry --------------------------------------------------
//
// A spec naming one relation hands one snapshot to both sides, so M2 is
// M1^T: each chunk computes only its column window and every heavy pair is
// emitted both ways from one count. The output must stay byte-identical to
// the WCOJ reference for every query, knob and row block; two names keep
// the full product.

// Six random communities of 100 plus one dense community of 80 (about 680
// heavy rows under {4, 4}: three chunks at the engine's row block of 256),
// plus 150 light x values with two edges each, so light heads, light
// witnesses and heavy heads with light z all occur.
BinaryRelation SymmetryGraph() {
  BinaryRelation rel = CommunityGraph(6, 100, 0.3, 17);
  Rng rng(18);
  for (Value i = 0; i < 80; ++i) {
    for (Value j = 0; j < 80; ++j) {
      if (i != j && rng.NextBool(0.8)) rel.Add(700 + i, 700 + j);
    }
  }
  for (Value x = 1000; x < 1150; ++x) {
    rel.Add(x, static_cast<Value>(rng.NextBounded(780)));
    rel.Add(x, static_cast<Value>(rng.NextBounded(780)));
  }
  rel.Finalize();
  return rel;
}

constexpr PartitionMode kPartitions[] = {
    PartitionMode::kOff, PartitionMode::kForce, PartitionMode::kAuto};
constexpr HeavyPathMode kHeavyPaths[] = {
    HeavyPathMode::kAuto, HeavyPathMode::kForceDense,
    HeavyPathMode::kForceCsrDense, HeavyPathMode::kForceCsrCsr};

// The query family on one relation and its WCOJ answers.
struct SymmetryCase {
  std::string name;
  QuerySpec spec;
  SortedOutput want;
};

std::vector<SymmetryCase> SymmetryCases(const BinaryRelation& rel) {
  const IndexedRelation idx(rel);
  const SortedOutput counted = WcojReference(idx, idx, true);
  SortedOutput ssj, ssj_ordered, scj;
  for (const CountedPair& p : counted.counted) {
    if (p.x < p.z && p.count >= 2) {
      ssj.pairs.push_back({p.x, p.z});
      ssj_ordered.counted.push_back(p);
    }
    if (p.x != p.z && p.count == idx.DegX(p.x)) scj.pairs.push_back({p.x, p.z});
  }
  QuerySpec plain = MemoSpec(QueryKind::kTwoPath);
  plain.count_witnesses = false;
  QuerySpec min3 = MemoSpec(QueryKind::kTwoPath);
  min3.min_count = 3;
  QuerySpec ordered = MemoSpec(QueryKind::kSsj);
  ordered.ssj_ordered = true;
  return {
      {"plain", plain, WcojReference(idx, idx)},
      {"counted", MemoSpec(QueryKind::kTwoPath), counted},
      {"min_count=3", min3, WcojReference(idx, idx, true, 3)},
      {"ssj", MemoSpec(QueryKind::kSsj), ssj},
      {"ssj-ordered", ordered, ssj_ordered},
      {"scj", MemoSpec(QueryKind::kScj), scj},
  };
}

TEST(SelfJoinSymmetry, EngineMatchesWcojReferenceOnEveryKnob) {
  const BinaryRelation rel = SymmetryGraph();
  QueryEngine engine;
  engine.AddRelation("R", rel);
  for (const SymmetryCase& c : SymmetryCases(rel)) {
    ASSERT_FALSE(c.want.size() == 0) << c.name;
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(c.spec, &q).ok()) << c.name;
    for (PartitionMode partition : kPartitions) {
      for (HeavyPathMode heavy_path : kHeavyPaths) {
        for (int threads : {1, 4}) {
          ExecOptions exec = MemoExec();
          exec.partition = partition;
          exec.heavy_path = heavy_path;
          exec.threads = threads;
          const std::string where =
              c.name + " " + PartitionModeName(partition) + " " +
              HeavyPathModeName(heavy_path) + " t" + std::to_string(threads);
          const MemoRun run = ExecuteMemo(engine, q, exec);
          ASSERT_GT(run.stats.heavy_blocks_total, 1u) << where;
          EXPECT_TRUE(run.stats.symmetric) << where;
          EXPECT_EQ(run.out, c.want) << where;
        }
      }
    }
  }
}

// The row block is no engine knob: row blocks of 100 and 1 run
// MmJoinTwoPath directly on one index. A chunk's window starts at its first
// row r0 for any row block.
TEST(SelfJoinSymmetry, UnalignedRowBlocksMatchWcojReference) {
  const BinaryRelation rel = SymmetryGraph();
  const IndexedRelation idx(rel);
  struct Query {
    const char* name;
    bool counted;
    uint32_t min_count;
  };
  const Query queries[] = {
      {"plain", false, 1}, {"counted", true, 1}, {"min_count=3", true, 3}};
  for (const Query& query : queries) {
    const SortedOutput want =
        WcojReference(idx, idx, query.counted, query.min_count);
    for (size_t row_block : {size_t{100}, size_t{1}}) {
      for (PartitionMode partition : kPartitions) {
        for (HeavyPathMode heavy_path : kHeavyPaths) {
          for (int threads : {1, 4}) {
            MmJoinOptions opts;
            opts.thresholds = {4, 4};
            opts.count_witnesses = query.counted;
            opts.min_count = query.min_count;
            opts.row_block = row_block;
            opts.partition = partition;
            opts.heavy_path = heavy_path;
            opts.threads = threads;
            const std::string where =
                std::string(query.name) + " rb" + std::to_string(row_block) +
                " " + PartitionModeName(partition) + " " +
                HeavyPathModeName(heavy_path) + " t" + std::to_string(threads);
            const auto res = MmRun(idx, idx, opts);
            EXPECT_TRUE(res.symmetric) << where;
            // Every block on a float kernel (kAuto's choice depends on the
            // host's rates; CSR x CSR keeps whole rows).
            if (heavy_path == HeavyPathMode::kForceDense ||
                heavy_path == HeavyPathMode::kForceCsrDense) {
              EXPECT_LT(res.computed_cell_share, 1.0) << where;
            }
            EXPECT_EQ(static_cast<const SortedOutput&>(res), want) << where;
          }
        }
      }
    }
  }
}

// x = 0 is the only heavy row: it reaches y 0..9, and each y also has four
// light x values of degree one, so the heavy part is 1 x 10 x 1.
TEST(SelfJoinSymmetry, OneRowHeavyPart) {
  BinaryRelation rel;
  for (Value y = 0; y < 10; ++y) {
    rel.Add(0, y);
    for (Value k = 0; k < 4; ++k) rel.Add(100 + 4 * y + k, y);
  }
  rel.Finalize();
  const IndexedRelation idx(rel);
  for (bool counted : {false, true}) {
    for (PartitionMode partition : kPartitions) {
      MmJoinOptions opts;
      opts.thresholds = {3, 3};
      opts.count_witnesses = counted;
      opts.partition = partition;
      const auto res = MmRun(idx, idx, opts);
      ASSERT_EQ(res.heavy_rows, 1u) << "test premise";
      EXPECT_TRUE(res.symmetric);
      EXPECT_EQ(static_cast<const SortedOutput&>(res),
                WcojReference(idx, idx, counted))
          << counted << " " << PartitionModeName(partition);
    }
  }
}

// The light fold of a heavy head's bulk emit. Under thresholds {2, 2} the
// heavy values are 1, 2, 3, 5, 6, 7 and 9 is light. Head 5's light
// witnesses (the light y values 10..14, each shared with one other x, and
// the class-L2 path 5 -> heavy y 0 -> light 9) land on every kind of z:
//   6 (y 10): a heavy column whose cell is nonzero (heavy y 0 is shared);
//   7 (y 11): a heavy column whose cell is zero (no shared heavy y);
//   1 (y 12) and 2 (y 13): heavy columns positioned before 5 on the
//     uniform plan, one nonzero (heavy y 1), one zero;
//   9 (y 14 and y 0): no heavy column.
// Each of 6 and 1 also sees 5 from the other side of the mirror. The pairs
// (5, 6), (5, 1) and (5, 9) reach min_count 2 only when the light witness
// joins the heavy (or the L2) one.
TEST(MmJoin, LightWitnessesFoldIntoEveryKindOfHeavyCell) {
  BinaryRelation rel;
  const std::pair<Value, std::vector<Value>> adjacency[] = {
      {1, {1, 2, 12}},  {2, {2, 13, 15}}, {3, {1, 15, 16}},
      {5, {0, 1, 10, 11, 12, 13, 14}},    {6, {0, 2, 10}},
      {7, {2, 11, 16}}, {9, {0, 14}}};
  for (const auto& [x, ys] : adjacency) {
    for (Value y : ys) rel.Add(x, y);
  }
  rel.Finalize();
  const IndexedRelation idx(rel);
  const IndexedRelation other(rel);  // a second snapshot: no symmetry
  const Thresholds t{2, 2};
  const TwoPathPartition part(idx, idx, t);
  for (Value z : {1, 2, 3, 5, 6, 7}) {
    ASSERT_NE(part.HeavyZId(z), kInvalidValue) << "test premise: z " << z;
  }
  ASSERT_EQ(part.HeavyZId(9), kInvalidValue) << "test premise";
  for (Value y : {0, 1, 2}) ASSERT_FALSE(part.YLight(y)) << "premise y " << y;
  for (Value y : {10, 11, 12, 13, 14}) ASSERT_TRUE(part.YLight(y));

  for (bool symmetric : {true, false}) {
    const IndexedRelation& s = symmetric ? idx : other;
    for (uint32_t min_count : {1u, 2u}) {
      for (bool counted : {false, true}) {
        if (min_count > 1 && !counted) continue;
        const auto want_counted = OracleTwoPathCounted(rel, rel, min_count);
        for (PartitionMode partition :
             {PartitionMode::kOff, PartitionMode::kForce}) {
          for (HeavyPathMode heavy_path :
               {HeavyPathMode::kForceDense, HeavyPathMode::kForceCsrDense,
                HeavyPathMode::kForceCsrCsr}) {
            for (int threads : {1, 4}) {
              MmJoinOptions opts;
              opts.thresholds = t;
              opts.count_witnesses = counted;
              opts.min_count = min_count;
              opts.row_block = 2;
              opts.partition = partition;
              opts.heavy_path = heavy_path;
              opts.threads = threads;
              const std::string where =
                  std::string(symmetric ? "self" : "two snapshots") +
                  (counted ? " counted" : " plain") + " min" +
                  std::to_string(min_count) + " " +
                  PartitionModeName(partition) + " " +
                  HeavyPathModeName(heavy_path) + " t" +
                  std::to_string(threads);
              const auto res = MmRun(idx, s, opts);
              ASSERT_EQ(res.heavy_rows, 6u) << where;
              EXPECT_EQ(res.symmetric, symmetric) << where;
              EXPECT_EQ(res.partition_used, partition == PartitionMode::kForce)
                  << where;
              if (counted) {
                EXPECT_EQ(res.counted, want_counted) << where;
              } else {
                EXPECT_EQ(res.pairs, OracleTwoPath(rel, rel)) << where;
              }
            }
          }
        }
      }
    }
  }
}

// Two names for the same data are two snapshots: the full product runs.
TEST(SelfJoinSymmetry, TwoNamesRunTheFullProduct) {
  const BinaryRelation rel = SymmetryGraph();
  const IndexedRelation idx(rel);
  QueryEngine engine;
  engine.AddRelation("R", rel);
  engine.AddRelation("S", rel);
  for (PartitionMode partition : kPartitions) {
    QuerySpec one = MemoSpec(QueryKind::kTwoPath);
    QuerySpec two = one;
    two.relations = {"R", "S"};
    PreparedQuery q1, q2;
    ASSERT_TRUE(engine.Prepare(one, &q1).ok());
    ASSERT_TRUE(engine.Prepare(two, &q2).ok());
    ExecOptions exec = MemoExec();
    exec.partition = partition;
    exec.heavy_path = HeavyPathMode::kForceCsrDense;  // windows on every block
    const MemoRun sym = ExecuteMemo(engine, q1, exec);
    const MemoRun full = ExecuteMemo(engine, q2, exec);
    const char* where = PartitionModeName(partition);
    EXPECT_TRUE(sym.stats.symmetric) << where;
    EXPECT_LT(sym.stats.computed_cell_share, 1.0) << where;
    EXPECT_FALSE(full.stats.symmetric) << where;
    EXPECT_EQ(full.stats.computed_cell_share, 1.0) << where;
    EXPECT_EQ(full.stats.heavy_blocks_total, sym.stats.heavy_blocks_total)
        << where;
    EXPECT_EQ(sym.out, WcojReference(idx, idx, true)) << where;
    EXPECT_EQ(full.out, sym.out) << where;
  }
}

// A limit on a symmetric run: k members of the answer, every chunk counted
// executed or skipped, cold and warm.
TEST(SelfJoinSymmetry, LimitReturnsOracleMembersAndAccountsEveryChunk) {
  const BinaryRelation rel = SymmetryGraph();
  const IndexedRelation idx(rel);
  const std::vector<OutPair> all = WcojReference(idx, idx).pairs;
  QueryEngine engine;
  engine.AddRelation("R", rel);
  QuerySpec spec = MemoSpec(QueryKind::kTwoPath);
  spec.count_witnesses = false;
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(spec, &q).ok());
  for (uint64_t k : {uint64_t{1}, uint64_t{500}, uint64_t{20000}}) {
    for (int threads : {1, 4}) {
      ExecOptions exec = MemoExec();
      exec.threads = threads;
      PageSink sink(0, k);
      ExecStats stats;
      ASSERT_TRUE(engine.Execute(q, sink, exec, &stats).ok());
      const std::string where =
          "k=" + std::to_string(k) + " t" + std::to_string(threads);
      ASSERT_EQ(sink.pairs().size(), k) << where;
      for (const OutPair& p : sink.pairs()) {
        EXPECT_TRUE(std::binary_search(all.begin(), all.end(), p))
            << where << " (" << p.x << ", " << p.z << ")";
      }
      EXPECT_EQ(stats.heavy_blocks_executed + stats.heavy_blocks_skipped,
                stats.heavy_blocks_total)
          << where;
    }
  }
}

// The memo keeps the symmetric prepared product: warm equals cold.
TEST(SelfJoinSymmetry, WarmMemoHitIsByteIdentical) {
  const BinaryRelation rel = SymmetryGraph();
  const IndexedRelation idx(rel);
  QueryEngine engine;
  engine.AddRelation("R", rel);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(MemoSpec(QueryKind::kTwoPath), &q).ok());
  for (PartitionMode partition : kPartitions) {
    ExecOptions exec = MemoExec();
    exec.partition = partition;
    exec.threads = 4;
    const MemoRun cold = ExecuteMemo(engine, q, exec);
    const MemoRun warm = ExecuteMemo(engine, q, exec);
    const char* where = PartitionModeName(partition);
    EXPECT_EQ(warm.Detail("pack"), "cache-hit") << where;
    EXPECT_TRUE(warm.stats.symmetric) << where;
    EXPECT_EQ(warm.stats.computed_cell_share, cold.stats.computed_cell_share)
        << where;
    EXPECT_EQ(warm.stats.operand_cache_bytes, cold.stats.operand_cache_bytes)
        << where;
    EXPECT_EQ(cold.out, WcojReference(idx, idx, true)) << where;
    EXPECT_EQ(warm.out, cold.out) << where;
  }
}

}  // namespace
}  // namespace jpmm
