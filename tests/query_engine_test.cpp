// QueryEngine facade + ResultSink semantics: limit early exit mid product
// block on every strategy, cross-thread-count determinism, ranked sinks
// against a full-sort oracle, PreparedQuery reuse (plan-cache hits must
// not change results), and structured validation errors instead of aborts.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/thread_pool.h"
#include "core/join_project.h"
#include "core/mm_join.h"
#include "core/query_engine.h"
#include "core/result_sink.h"
#include "core/star_join.h"
#include "datagen/generators.h"
#include "scj/pretti.h"
#include "ssj/size_aware.h"
#include "storage/set_family.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::MakeEngine;
using testutil::OracleTwoPath;
using testutil::SetInstance;
using testutil::Sorted;
using testutil::TwoPathSpec;

// A skewed graph whose two-path join has a real heavy part under small
// thresholds (four dense communities). Small enough for the O(|R|^2)
// brute-force oracle; tests that need several product blocks shrink
// row_block instead of growing the graph.
BinaryRelation SkewedGraph() {
  return CommunityGraph(/*communities=*/4, /*community_size=*/60,
                        /*p_in=*/0.5, /*seed=*/11);
}

std::vector<OutPair> EngineAllPairs(QueryEngine* engine,
                                    const QuerySpec& spec,
                                    const ExecOptions& exec) {
  PreparedQuery q;
  auto st = engine->Prepare(spec, &q);
  EXPECT_TRUE(st.ok()) << st.message();
  VectorSink sink;
  st = engine->Execute(q, sink, exec);
  EXPECT_TRUE(st.ok()) << st.message();
  return Sorted(sink.pairs());
}

// ---- Limit semantics: exactly min(k, |OUT|) pairs, every one a real
// output pair, on every strategy and thread count.

TEST(QueryEngine, LimitSinkEveryStrategy) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);
  const auto oracle = OracleTwoPath(rel, rel);
  std::set<std::pair<Value, Value>> full;
  for (const OutPair& p : oracle) full.insert({p.x, p.z});

  for (Strategy s : {Strategy::kMmJoin, Strategy::kNonMmJoin,
                     Strategy::kWcojFull}) {
    for (int threads : {1, 3}) {
      PreparedQuery q;
      auto st = engine.Prepare(TwoPathSpec(s), &q);
      ASSERT_TRUE(st.ok()) << st.message();
      PageSink sink(0, 37);
      ExecOptions exec;
      exec.threads = threads;
      st = engine.Execute(q, sink, exec);
      ASSERT_TRUE(st.ok()) << st.message();
      EXPECT_EQ(sink.pairs().size(), std::min<size_t>(37, full.size()))
          << StrategyName(s) << " threads=" << threads;
      for (const OutPair& p : sink.pairs()) {
        EXPECT_TRUE(full.count({p.x, p.z})) << StrategyName(s);
      }
    }
  }
}

TEST(QueryEngine, LimitLargerThanOutputDeliversEverything) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);
  const auto oracle = OracleTwoPath(rel, rel);
  PageSink sink(0, oracle.size() + 1000);
  auto st = engine.Run(TwoPathSpec(Strategy::kAuto), sink, {});
  ASSERT_TRUE(st.ok()) << st.message();
  auto got = sink.pairs();
  EXPECT_EQ(Sorted(got), oracle);
}

// The core acceptance property: a small limit on a heavy-part query stops
// mid product pass — some planned blocks are never executed.

TEST(QueryEngine, LimitSkipsHeavyProductBlocks) {
  const BinaryRelation rel = SkewedGraph();
  IndexedRelation idx(rel);

  // Thresholds {1, 1}: everything is heavy, so the output comes from the
  // product blocks alone (240 heavy rows = 4 blocks of 64).
  MmJoinOptions opts;
  opts.thresholds = {1, 1};
  opts.row_block = 64;
  PageSink sink(0, 5);
  auto res = MmJoinTwoPath(idx, idx, opts, sink);
  EXPECT_GE(res.heavy_blocks_total, 2u);
  EXPECT_GT(res.heavy_blocks_skipped, 0u);
  EXPECT_LT(res.heavy_blocks_executed, res.heavy_blocks_total);
  EXPECT_EQ(res.heavy_blocks_executed + res.heavy_blocks_skipped,
            res.heavy_blocks_total);
  EXPECT_EQ(sink.pairs().size(), 5u);

  std::set<std::pair<Value, Value>> full;
  for (const OutPair& p : OracleTwoPath(rel, rel)) full.insert({p.x, p.z});
  for (const OutPair& p : sink.pairs()) {
    EXPECT_TRUE(full.count({p.x, p.z}));
  }
}

// When the light pass alone satisfies the sink, the heavy phase is
// skipped wholesale — no operand build, every planned block accounted as
// skipped.

TEST(QueryEngine, LimitSatisfiedByLightPassSkipsWholeHeavyPhase) {
  // Light section: groups of 4 x values sharing one y (800 light pairs,
  // emitted first — the x domain scan hits them before any heavy row).
  // Heavy section: a 100 x 100 complete bipartite block (2 product blocks
  // at row_block 64).
  BinaryRelation rel;
  for (Value x = 0; x < 200; ++x) rel.Add(x, 1000 + x / 4);
  for (Value i = 0; i < 100; ++i) {
    for (Value j = 0; j < 100; ++j) rel.Add(500 + i, 2000 + j);
  }
  rel.Finalize();
  IndexedRelation idx(rel);

  MmJoinOptions opts;
  opts.thresholds = {5, 5};
  opts.row_block = 64;
  PageSink sink(0, 3);
  auto res = MmJoinTwoPath(idx, idx, opts, sink);
  ASSERT_GT(res.heavy_rows, 0u) << "test premise: heavy part must exist";
  EXPECT_EQ(sink.pairs().size(), 3u);
  EXPECT_EQ(res.heavy_blocks_executed, 0u);
  EXPECT_GT(res.heavy_blocks_total, 0u);
  EXPECT_EQ(res.heavy_blocks_skipped, res.heavy_blocks_total);
}

// ---- Determinism: sorted full output is identical at every thread
// count; limit output count is identical at every thread count.

TEST(QueryEngine, SortedOutputDeterministicAcrossThreadCounts) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);
  ExecOptions exec1;
  exec1.threads = 1;
  auto base = EngineAllPairs(&engine, TwoPathSpec(Strategy::kAuto), exec1);
  for (int threads : {2, 4}) {
    ExecOptions exec;
    exec.threads = threads;
    auto got = EngineAllPairs(&engine, TwoPathSpec(Strategy::kAuto), exec);
    EXPECT_EQ(got, base) << "threads=" << threads;
  }
}

TEST(QueryEngine, LimitCountDeterministicAcrossThreadCounts) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec(Strategy::kMmJoin), &q).ok());
  for (int threads : {1, 2, 4}) {
    PageSink sink(0, 64);
    ExecOptions exec;
    exec.threads = threads;
    ASSERT_TRUE(engine.Execute(q, sink, exec).ok());
    EXPECT_EQ(sink.pairs().size(), 64u) << "threads=" << threads;
  }
}

// ---- LimitSink and TopKByCountSink are constructor-only names (the
// benchmark still uses them); each behaves exactly as the sink it names.
// OrderedBySinkMatchesFullSortOracle checks the ranking itself.

TEST(QueryEngine, LimitSinkNameIsPageSinkFromZero) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec(Strategy::kAuto), &q).ok());
  const uint64_t out = OracleTwoPath(rel, rel).size();
  for (int threads : {1, 4}) {
    for (uint64_t k : {uint64_t{0}, uint64_t{25}, out + 1}) {
      ExecOptions exec;
      exec.threads = threads;
      LimitSink named(k);
      PageSink page(0, k);
      EXPECT_EQ(named.may_finish_early(), page.may_finish_early());
      ASSERT_TRUE(engine.Execute(q, named, exec).ok());
      ASSERT_TRUE(engine.Execute(q, page, exec).ok());
      EXPECT_EQ(named.size(), page.size()) << "k=" << k;
      EXPECT_EQ(named.size(), std::min(k, out)) << "k=" << k;
      EXPECT_EQ(named.done(), page.done()) << "k=" << k;
    }
  }
}

TEST(QueryEngine, TopKByCountSinkNameIsOrderedByCount) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);
  QuerySpec spec = TwoPathSpec(Strategy::kAuto);
  spec.count_witnesses = true;
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(spec, &q).ok());
  const size_t out = OracleTwoPath(rel, rel).size();
  for (int threads : {1, 4}) {
    for (size_t k : {size_t{0}, size_t{25}, out + 1}) {
      ExecOptions exec;
      exec.threads = threads;
      TopKByCountSink named(k);
      OrderedBySink ranked(ResultOrder::kCountDescending, k);
      ASSERT_TRUE(engine.Execute(q, named, exec).ok());
      ASSERT_TRUE(engine.Execute(q, ranked, exec).ok());
      EXPECT_EQ(named.top(), ranked.ranked())
          << "threads=" << threads << " k=" << k;
      EXPECT_EQ(named.top().size(), std::min(k, out)) << "k=" << k;
    }
  }
}

// ---- CountOnlySink.

TEST(QueryEngine, CountOnlyMatchesMaterializedSize) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);
  const auto oracle = OracleTwoPath(rel, rel);
  CountOnlySink counter;
  ASSERT_TRUE(engine.Run(TwoPathSpec(Strategy::kAuto), counter, {}).ok());
  EXPECT_EQ(counter.count(), oracle.size());
}

// ---- PreparedQuery reuse: the second execution must be a plan-cache hit
// and return identical results.

TEST(QueryEngine, PreparedReuseIsCacheHitWithIdenticalResults) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec(Strategy::kAuto), &q).ok());

  VectorSink first, second;
  ExecStats stats1, stats2;
  ASSERT_TRUE(engine.Execute(q, first, {}, &stats1).ok());
  ASSERT_TRUE(engine.Execute(q, second, {}, &stats2).ok());
  EXPECT_FALSE(stats1.plan_cache_hit);
  EXPECT_TRUE(stats2.plan_cache_hit);
  EXPECT_TRUE(q.has_plan());
  EXPECT_EQ(q.executions(), 2u);
  EXPECT_EQ(Sorted(first.pairs()), Sorted(second.pairs()));

  // A thread-count change re-plans (the cost model is thread-aware), then
  // caches again.
  VectorSink third;
  ExecStats stats3;
  ExecOptions exec;
  exec.threads = 2;
  ASSERT_TRUE(engine.Execute(q, third, exec, &stats3).ok());
  EXPECT_FALSE(stats3.plan_cache_hit);
  EXPECT_EQ(Sorted(third.pairs()), Sorted(first.pairs()));
}

// ---- Structured validation errors (no aborts).

TEST(QueryEngine, UnknownRelationNameIsError) {
  QueryEngine engine = MakeEngine(SkewedGraph());
  QuerySpec spec = TwoPathSpec(Strategy::kAuto);
  spec.relations = {"nope"};
  PreparedQuery q;
  auto st = engine.Prepare(spec, &q);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unknown relation"), std::string::npos);
}

TEST(QueryEngine, MinCountWithoutWitnessesIsError) {
  QueryEngine engine = MakeEngine(SkewedGraph());
  QuerySpec spec = TwoPathSpec(Strategy::kAuto);
  spec.min_count = 3;  // count_witnesses stays false
  PreparedQuery q;
  auto st = engine.Prepare(spec, &q);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("count_witnesses"), std::string::npos);

  spec.min_count = 0;  // never a valid threshold, counted or not
  spec.count_witnesses = true;
  st = engine.Prepare(spec, &q);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("min_count"), std::string::npos);
}

TEST(QueryEngine, NonPositiveThreadsIsError) {
  QueryEngine engine = MakeEngine(SkewedGraph());
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec(Strategy::kAuto), &q).ok());
  VectorSink sink;
  ExecOptions exec;
  exec.threads = 0;
  auto st = engine.Execute(q, sink, exec);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("threads"), std::string::npos);
}

TEST(QueryEngine, StarIntoPairOnlySinkIsError) {
  QueryEngine engine = MakeEngine(SkewedGraph());
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R", "R"};
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(spec, &q).ok());
  TopKByCountSink topk(5);  // pair-only: would silently drop every tuple
  auto st = engine.Execute(q, topk, {});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("tuple"), std::string::npos);
}

TEST(QueryEngine, WrongRelationCountIsError) {
  QueryEngine engine = MakeEngine(SkewedGraph());
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R"};  // star needs >= 2
  PreparedQuery q;
  EXPECT_FALSE(engine.Prepare(spec, &q).ok());

  spec.kind = QueryKind::kTwoPath;
  spec.relations = {"R", "R", "R"};  // two-path takes at most 2
  EXPECT_FALSE(engine.Prepare(spec, &q).ok());
}

// ---- Star queries through the engine: full tuple delivery + limit.

TEST(QueryEngine, StarVectorSinkMatchesWcojStar) {
  const BinaryRelation rel =
      UniformBipartite(/*num_x=*/120, /*num_y=*/40, /*num_tuples=*/700, 3);
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R", "R", "R"};

  IndexedRelation idx(rel);
  const TupleBuffer expect = WcojStarJoin({&idx, &idx, &idx});

  VectorSink sink;
  ExecStats stats;
  ASSERT_TRUE(engine.Run(spec, sink, {}, &stats).ok());
  EXPECT_EQ(sink.tuple_arity(), 3u);
  EXPECT_EQ(sink.tuple_data(), expect.flat());
}

TEST(QueryEngine, StarLimitDeliversDistinctSubset) {
  const BinaryRelation rel =
      UniformBipartite(/*num_x=*/120, /*num_y=*/40, /*num_tuples=*/700, 3);
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R", "R"};

  VectorSink all;
  ASSERT_TRUE(engine.Run(spec, all, {}).ok());
  const size_t total = all.tuple_data().size() / 2;
  std::set<std::vector<Value>> full;
  for (size_t i = 0; i < total; ++i) {
    full.insert({all.tuple_data()[2 * i], all.tuple_data()[2 * i + 1]});
  }

  PageSink limited(0, 50);
  ASSERT_TRUE(engine.Run(spec, limited, {}).ok());
  ASSERT_EQ(limited.tuple_arity(), 2u);
  const size_t got = limited.tuple_data().size() / 2;
  EXPECT_EQ(got, std::min<size_t>(50, total));
  std::set<std::vector<Value>> seen;
  for (size_t i = 0; i < got; ++i) {
    std::vector<Value> t{limited.tuple_data()[2 * i],
                         limited.tuple_data()[2 * i + 1]};
    EXPECT_TRUE(full.count(t)) << "tuple not in the full star output";
    EXPECT_TRUE(seen.insert(t).second) << "duplicate tuple delivered";
  }
}

// ---- SCJ / SSJ through the engine match the competitor algorithms.

// A family of 300 sets over 120 elements, at most 10 per set;
// `subset_fraction` of them are drawn as subsets of others.
SetInstance SetFamilyInstance(double subset_fraction = 0.0) {
  BipartiteSpec bs;
  bs.num_sets = 300;
  bs.dom_size = 120;
  bs.max_set_size = 10;
  bs.subset_fraction = subset_fraction;
  return SetInstance(MakeBipartite(bs));
}

TEST(QueryEngine, ScjMatchesPretti) {
  const SetInstance inst = SetFamilyInstance(0.3);
  EXPECT_EQ(testutil::EngineScj(inst.rel), PrettiJoin(inst.fam));
}

TEST(QueryEngine, SsjMatchesSizeAware) {
  const SetInstance inst = SetFamilyInstance();
  SsjOptions so;
  so.c = 2;
  so.ordered = true;
  EXPECT_EQ(testutil::EngineSsj(inst.rel, so), SizeAwareJoin(inst.fam, so));
}

// SSJ with a limit: the engine's early exit flows through the adapter to
// the underlying two-path join.

TEST(QueryEngine, SsjLimitDeliversQualifyingPairs) {
  BipartiteSpec bs;
  bs.num_sets = 400;
  bs.dom_size = 100;
  bs.max_set_size = 12;
  const BinaryRelation rel = MakeBipartite(bs);
  IndexedRelation idx(rel);
  SetFamily fam(idx);
  SsjOptions so;
  so.c = 2;
  auto full = SizeAwareJoin(fam, so);
  std::set<std::pair<Value, Value>> full_set;
  for (const SimilarPair& p : full) full_set.insert({p.a, p.b});

  QueryEngine engine;
  engine.catalog().Put("R", rel);
  QuerySpec spec;
  spec.kind = QueryKind::kSsj;
  spec.relations = {"R"};
  spec.ssj_c = 2;
  PageSink sink(0, 20);
  ASSERT_TRUE(engine.Run(spec, sink, {}).ok());
  EXPECT_EQ(sink.pairs().size(), std::min<size_t>(20, full_set.size()));
  for (const OutPair& p : sink.pairs()) {
    EXPECT_TRUE(full_set.count({p.x, p.z}));
  }
}

// ---- PageSink oracle tests: exact page size + exact skip accounting on
// every strategy, page boundaries inside and beyond the output.

TEST(QueryEngine, PageSinkEveryStrategy) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);
  const auto oracle = OracleTwoPath(rel, rel);
  std::set<std::pair<Value, Value>> full;
  for (const OutPair& p : oracle) full.insert({p.x, p.z});
  const uint64_t out = full.size();

  for (Strategy s : {Strategy::kMmJoin, Strategy::kNonMmJoin,
                     Strategy::kWcojFull}) {
    for (uint64_t offset : {uint64_t{0}, uint64_t{17}, out - 5, out,
                            out + 100}) {
      for (int threads : {1, 3}) {
        PreparedQuery q;
        ASSERT_TRUE(engine.Prepare(TwoPathSpec(s), &q).ok());
        PageSink sink(offset, 25);
        ExecOptions exec;
        exec.threads = threads;
        ASSERT_TRUE(engine.Execute(q, sink, exec).ok());
        const uint64_t skipped = std::min(offset, out);
        EXPECT_EQ(sink.size(), std::min<uint64_t>(25, out - skipped))
            << StrategyName(s) << " offset=" << offset
            << " threads=" << threads;
        EXPECT_EQ(sink.skipped(), skipped)
            << StrategyName(s) << " offset=" << offset
            << " threads=" << threads;
        std::set<std::pair<Value, Value>> seen;
        for (const OutPair& p : sink.pairs()) {
          EXPECT_TRUE(full.count({p.x, p.z})) << StrategyName(s);
          EXPECT_TRUE(seen.insert({p.x, p.z}).second)
              << "duplicate in page";
        }
      }
    }
  }
}

// A page whose boundaries land inside the heavy product pass: blocks
// before the page fill it, blocks after the page are skipped, and the
// executed/skipped split accounts for every planned block.

TEST(QueryEngine, PageSpansHeavyProductBlockBoundary) {
  const BinaryRelation rel = SkewedGraph();
  IndexedRelation idx(rel);
  std::set<std::pair<Value, Value>> full;
  for (const OutPair& p : OracleTwoPath(rel, rel)) full.insert({p.x, p.z});

  // Thresholds {1, 1}: the whole output comes from the product blocks
  // (240 heavy rows = 4 blocks of 64), so a page deep into the output
  // must execute more than one block and still skip the tail.
  MmJoinOptions opts;
  opts.thresholds = {1, 1};
  opts.row_block = 64;
  PageSink sink(3000, 1200);
  auto res = MmJoinTwoPath(idx, idx, opts, sink);
  ASSERT_GE(res.heavy_blocks_total, 4u);
  EXPECT_EQ(sink.size(), std::min<uint64_t>(1200, full.size() - 3000));
  EXPECT_EQ(sink.skipped(), 3000u);
  EXPECT_GE(res.heavy_blocks_executed, 2u)
      << "the page offset spans past the first product block";
  EXPECT_GT(res.heavy_blocks_skipped, 0u)
      << "a full page must short-circuit the remaining blocks";
  EXPECT_EQ(res.heavy_blocks_executed + res.heavy_blocks_skipped,
            res.heavy_blocks_total);
  for (const OutPair& p : sink.pairs()) {
    EXPECT_TRUE(full.count({p.x, p.z}));
  }
}

TEST(QueryEngine, PageOffsetBeyondOutputIsEmptyWithExactSkip) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);
  std::set<std::pair<Value, Value>> full;
  for (const OutPair& p : OracleTwoPath(rel, rel)) full.insert({p.x, p.z});

  PageSink sink(full.size() + 1000, 10);
  ASSERT_TRUE(engine.Run(TwoPathSpec(Strategy::kAuto), sink, {}).ok());
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.skipped(), full.size())
      << "skip accounting stays exact when the page starts past the end";
}

// A bulk span reserves its slots with one fetch_add and keeps the part
// inside [offset, offset + limit): spans straddling either boundary, a
// span past the end and scalar results mix on one shard, in arrival order.

TEST(QueryEngine, PageSinkKeepsTheSlotsOfBulkSpans) {
  std::vector<OutPair> stream;
  for (Value v = 0; v < 12; ++v) stream.push_back({v, v + 100});
  const std::span<const OutPair> all(stream);
  PageSink page(3, 4);
  page.Open(1);
  page.shard(0).OnPairs(all.subspan(0, 2));  // slots [0, 2): all skipped
  page.shard(0).OnPair(stream[2]);           // slot 2: skipped
  page.shard(0).OnPairs(all.subspan(3, 2));  // [3, 5): both kept
  EXPECT_FALSE(page.done());
  page.shard(0).OnPairs(all.subspan(5, 5));  // [5, 10): 5 and 6 kept
  EXPECT_TRUE(page.done());
  page.shard(0).OnPairs(all.subspan(10, 2));  // past the page
  page.Finish();
  EXPECT_EQ(page.pairs(), std::vector<OutPair>(stream.begin() + 3,
                                               stream.begin() + 7));
  EXPECT_EQ(page.skipped(), 3u);

  PageSink past(20, 5);
  past.Open(2);
  past.shard(0).OnCountedPairs(std::vector<CountedPair>(7, {1, 2, 3}));
  past.shard(1).OnCountedPairs(std::vector<CountedPair>(5, {4, 5, 6}));
  past.Finish();
  EXPECT_EQ(past.size(), 0u);
  EXPECT_EQ(past.skipped(), 12u) << "skips stay exact under span admission";
}

// Pagination of star tuples: a page is a distinct subset with exact size.

TEST(QueryEngine, StarPageSinkDeliversDistinctPage) {
  const BinaryRelation rel =
      UniformBipartite(/*num_x=*/120, /*num_y=*/40, /*num_tuples=*/700, 3);
  QueryEngine engine;
  engine.AddRelation("R", rel);
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R", "R"};

  VectorSink all;
  ASSERT_TRUE(engine.Run(spec, all, {}).ok());
  const size_t total = all.tuple_data().size() / 2;
  std::set<std::vector<Value>> full;
  for (size_t i = 0; i < total; ++i) {
    full.insert({all.tuple_data()[2 * i], all.tuple_data()[2 * i + 1]});
  }

  PageSink page(10, 25);
  ASSERT_TRUE(engine.Run(spec, page, {}).ok());
  ASSERT_EQ(page.tuple_arity(), 2u);
  const size_t got = page.tuple_data().size() / 2;
  EXPECT_EQ(got, std::min<size_t>(25, total - std::min<size_t>(10, total)));
  EXPECT_EQ(page.skipped(), std::min<uint64_t>(10, total));
  std::set<std::vector<Value>> seen;
  for (size_t i = 0; i < got; ++i) {
    std::vector<Value> t{page.tuple_data()[2 * i],
                         page.tuple_data()[2 * i + 1]};
    EXPECT_TRUE(full.count(t)) << "page tuple not in the star output";
    EXPECT_TRUE(seen.insert(t).second) << "duplicate tuple in page";
  }
}

// ---- OrderedBySink oracle tests: ranked delivery equals sorting the full
// output, on every strategy and thread count, with and without a limit.

TEST(QueryEngine, OrderedBySinkMatchesFullSortOracle) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);

  // (x, z)-ascending oracle over plain pairs.
  const auto oracle = OracleTwoPath(rel, rel);  // already sorted
  // count-descending oracle over counted pairs.
  QuerySpec counted_spec = TwoPathSpec(Strategy::kAuto);
  counted_spec.count_witnesses = true;
  VectorSink all;
  ASSERT_TRUE(engine.Run(counted_spec, all, {}).ok());
  auto count_oracle = all.counted();
  std::sort(count_oracle.begin(), count_oracle.end(),
            [](const CountedPair& a, const CountedPair& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.x != b.x) return a.x < b.x;
              return a.z < b.z;
            });

  for (Strategy s : {Strategy::kMmJoin, Strategy::kNonMmJoin,
                     Strategy::kWcojFull}) {
    for (int threads : {1, 3, HardwareThreads()}) {
      ExecOptions exec;
      exec.threads = threads;

      OrderedBySink by_xz(ResultOrder::kXzAscending);
      ASSERT_TRUE(engine.Run(TwoPathSpec(s), by_xz, exec).ok());
      ASSERT_EQ(by_xz.ranked().size(), oracle.size())
          << StrategyName(s) << " threads=" << threads;
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(by_xz.ranked()[i].x, oracle[i].x);
        EXPECT_EQ(by_xz.ranked()[i].z, oracle[i].z);
        EXPECT_EQ(by_xz.ranked()[i].count, 1u);  // plain pairs weigh 1
      }

      QuerySpec cs = TwoPathSpec(s);
      cs.count_witnesses = true;
      OrderedBySink by_count(ResultOrder::kCountDescending);
      ASSERT_TRUE(engine.Run(cs, by_count, exec).ok());
      EXPECT_EQ(by_count.ranked(), count_oracle)
          << StrategyName(s) << " threads=" << threads;

      // Bounded merge buffer: the limited sink is the oracle's prefix.
      OrderedBySink top(ResultOrder::kCountDescending, 23);
      ASSERT_TRUE(engine.Run(cs, top, exec).ok());
      auto prefix = count_oracle;
      prefix.resize(std::min<size_t>(23, prefix.size()));
      EXPECT_EQ(top.ranked(), prefix)
          << StrategyName(s) << " threads=" << threads;
    }
  }
}

TEST(QueryEngine, OrderedBySinkStreamsInRankOrder) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine = MakeEngine(rel);
  OrderedBySink sink(ResultOrder::kXzAscending);
  std::vector<CountedPair> streamed;
  sink.set_on_result(
      [&streamed](const CountedPair& p) { streamed.push_back(p); });
  ASSERT_TRUE(engine.Run(TwoPathSpec(Strategy::kAuto), sink, {}).ok());
  EXPECT_EQ(streamed, sink.ranked())
      << "the callback must see exactly the ranked stream, in order";
  EXPECT_TRUE(std::is_sorted(streamed.begin(), streamed.end(),
                             [](const CountedPair& a, const CountedPair& b) {
                               return std::make_pair(a.x, a.z) <
                                      std::make_pair(b.x, b.z);
                             }));
}

TEST(QueryEngine, OrderedBySinkRejectsStarQueries) {
  QueryEngine engine = MakeEngine(SkewedGraph());
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R", "R"};
  OrderedBySink sink(ResultOrder::kXzAscending);
  auto st = engine.Run(spec, sink, {});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("tuple"), std::string::npos);
}

// ---- Ordered + page sinks through the SCJ / SSJ adapters (the remaining
// strategy emit paths).

TEST(QueryEngine, ScjOrderedBySinkMatchesPretti) {
  const SetInstance inst = SetFamilyInstance(0.3);
  const ScjResult expect = PrettiJoin(inst.fam);  // sorted (x, z)

  QuerySpec spec;
  spec.kind = QueryKind::kScj;
  spec.relations = {"R"};
  OrderedBySink sink(ResultOrder::kXzAscending);
  testutil::RunOnEngine(inst.rel, spec, sink);
  ASSERT_EQ(sink.ranked().size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(sink.ranked()[i].x, expect[i].sub);
    EXPECT_EQ(sink.ranked()[i].z, expect[i].super);
  }
}

TEST(QueryEngine, SsjOrderedAndPagedSinks) {
  const SetInstance inst = SetFamilyInstance();
  SsjOptions so;
  so.c = 2;
  so.ordered = true;
  // Overlap desc, (a, b) asc.
  const SsjResult expect = SizeAwareJoin(inst.fam, so);

  QueryEngine engine = MakeEngine(inst.rel);
  QuerySpec spec;
  spec.kind = QueryKind::kSsj;
  spec.relations = {"R"};
  spec.ssj_c = 2;
  spec.ssj_ordered = true;

  OrderedBySink ranked(ResultOrder::kCountDescending);
  ASSERT_TRUE(engine.Run(spec, ranked, {}).ok());
  ASSERT_EQ(ranked.ranked().size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(ranked.ranked()[i].count, expect[i].overlap) << "rank " << i;
  }

  // Page over the unordered SSJ pair stream: exact size + skip.
  QuerySpec plain = spec;
  plain.ssj_ordered = false;
  PageSink page(7, 9);
  ASSERT_TRUE(engine.Run(plain, page, {}).ok());
  const uint64_t out = expect.size();
  const uint64_t skipped = std::min<uint64_t>(7, out);
  EXPECT_EQ(page.size(), std::min<uint64_t>(9, out - skipped));
  EXPECT_EQ(page.skipped(), skipped);
}

// ---- ParallelForDynamic chunk-claim + done() audit regression: a sink
// that turns done MID-CHUNK during the light pass must skip the entire
// downstream heavy phase, and the skipped block count must be identical
// at every thread count (threads=1's in-order inline claims and the
// pooled path's dynamic claims account the same blocks).

TEST(QueryEngine, DoneMidChunkSkipsIdenticalDownstreamBlocks) {
  // Light section first in the x domain (800 light pairs inside the first
  // 256-head chunk — the limit of 3 fires mid-chunk), heavy section after
  // (100 x 100 complete bipartite block = multiple product blocks).
  BinaryRelation rel;
  for (Value x = 0; x < 200; ++x) rel.Add(x, 1000 + x / 4);
  for (Value i = 0; i < 100; ++i) {
    for (Value j = 0; j < 100; ++j) rel.Add(500 + i, 2000 + j);
  }
  rel.Finalize();
  IndexedRelation idx(rel);

  uint64_t mm_total = 0;
  uint64_t nonmm_total = 0;
  for (int threads : {1, 3, HardwareThreads()}) {
    {
      MmJoinOptions opts;
      opts.thresholds = {5, 5};
      opts.row_block = 64;
      opts.threads = threads;
      PageSink sink(0, 3);
      auto res = MmJoinTwoPath(idx, idx, opts, sink);
      ASSERT_GT(res.heavy_blocks_total, 0u);
      EXPECT_EQ(sink.size(), 3u) << "threads=" << threads;
      EXPECT_EQ(res.heavy_blocks_executed, 0u)
          << "light-satisfied sink must skip the whole heavy phase at "
             "threads="
          << threads;
      EXPECT_EQ(res.heavy_blocks_skipped, res.heavy_blocks_total);
      if (mm_total == 0) mm_total = res.heavy_blocks_total;
      EXPECT_EQ(res.heavy_blocks_total, mm_total)
          << "planned block count must not depend on threads";
    }
    {
      MmJoinOptions opts;
      opts.thresholds = {5, 5};
      opts.threads = threads;
      PageSink sink(0, 3);
      auto res = NonMmJoinTwoPath(idx, idx, opts, sink);
      ASSERT_GT(res.heavy_blocks_total, 0u);
      EXPECT_EQ(sink.size(), 3u) << "threads=" << threads;
      EXPECT_EQ(res.heavy_blocks_executed, 0u) << "threads=" << threads;
      EXPECT_EQ(res.heavy_blocks_skipped, res.heavy_blocks_total);
      if (nonmm_total == 0) nonmm_total = res.heavy_blocks_total;
      EXPECT_EQ(res.heavy_blocks_total, nonmm_total);
    }
    {
      // Page variant: the page fills from the light section alone.
      MmJoinOptions opts;
      opts.thresholds = {5, 5};
      opts.row_block = 64;
      opts.threads = threads;
      PageSink sink(5, 3);
      auto res = MmJoinTwoPath(idx, idx, opts, sink);
      EXPECT_EQ(sink.size(), 3u) << "threads=" << threads;
      EXPECT_EQ(sink.skipped(), 5u) << "threads=" << threads;
      EXPECT_EQ(res.heavy_blocks_executed, 0u) << "threads=" << threads;
      EXPECT_EQ(res.heavy_blocks_skipped, res.heavy_blocks_total);
    }
  }
}

// ---- Triangle count through the engine.

// Cancellation before any work: every light chunk and heavy block is
// accounted skipped, split by phase, identically at every thread count.

TEST(QueryEngine, TriangleCancellationSplitsSkipCountersExactly) {
  BinaryRelation sym = CommunityGraph(3, 60, 0.5, 21);
  QueryEngine engine;
  engine.AddRelation("G", sym);
  QuerySpec spec;
  spec.kind = QueryKind::kTriangle;
  spec.relations = {"G"};

  uint64_t light_skipped = 0;
  for (int threads : {1, 3}) {
    PageSink cancel(0, 0);  // done() from the first poll
    ExecStats stats;
    ExecOptions exec;
    exec.threads = threads;
    ASSERT_TRUE(engine.Run(spec, cancel, exec, &stats).ok());
    EXPECT_TRUE(stats.interrupted);
    EXPECT_EQ(stats.interrupt_reason, InterruptReason::kCancelled);
    EXPECT_EQ(stats.triangles, 0u) << "threads=" << threads;
    EXPECT_GT(stats.light_chunks_skipped, 0u);
    if (light_skipped == 0) light_skipped = stats.light_chunks_skipped;
    EXPECT_EQ(stats.light_chunks_skipped, light_skipped)
        << "skip accounting must not depend on the thread count";
  }
}

// The engine hands the count's whole record on: the total, its light/heavy
// split and the delta as run. The hub graph's five mutually adjacent hubs
// sit above delta, so its heavy part is not empty.
TEST(QueryEngine, TriangleCountMatchesDirect) {
  for (bool hubs : {false, true}) {
    SCOPED_TRACE(hubs ? "HubGraph" : "CommunityGraph");
    BinaryRelation sym =
        hubs ? testutil::HubGraph() : CommunityGraph(3, 60, 0.5, 21);
    IndexedRelation idx(sym);
    auto direct = CountTrianglesMm(idx, {});
    if (hubs) {
      ASSERT_GT(direct.heavy_triangles, 0u);
    }

    QueryEngine engine;
    engine.catalog().Put("G", sym);
    QuerySpec spec;
    spec.kind = QueryKind::kTriangle;
    spec.relations = {"G"};
    VectorSink sink;  // no pair delivery; cancellation token only
    ExecStats stats;
    ASSERT_TRUE(engine.Run(spec, sink, {}, &stats).ok());
    EXPECT_EQ(stats.triangles, direct.triangles);
    EXPECT_EQ(stats.light_triangles, direct.light_triangles);
    EXPECT_EQ(stats.heavy_triangles, direct.heavy_triangles);
    EXPECT_EQ(stats.adjusted_thresholds, direct.adjusted_thresholds);
    EXPECT_FALSE(stats.interrupted);
  }
}

// Under a tiny memory cap the MM strategies double their thresholds until
// the heavy operands fit; the engine reports the thresholds as run, and the
// output stays the oracle's.
TEST(QueryEngine, MemoryCapReportsAdjustedThresholds) {
  {
    const BinaryRelation rel = SkewedGraph();
    QueryEngine engine = MakeEngine(rel);
    ExecOptions exec;
    exec.thresholds = {1, 1};
    exec.max_matrix_bytes = 1024;
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(TwoPathSpec(Strategy::kMmJoin), &q).ok());
    VectorSink sink;
    ExecStats stats;
    ASSERT_TRUE(engine.Execute(q, sink, exec, &stats).ok());
    EXPECT_EQ(stats.executed, Strategy::kMmJoin);
    EXPECT_GT(stats.adjusted_thresholds.delta1, 1u);
    EXPECT_EQ(Sorted(sink.pairs()), OracleTwoPath(rel, rel));
  }
  {
    BinaryRelation rel;
    for (Value a = 0; a < 12; ++a) {
      for (Value b = 0; b < 12; ++b) rel.Add(a, b);
    }
    rel.Finalize();
    QueryEngine engine = MakeEngine(rel);
    QuerySpec spec;
    spec.kind = QueryKind::kStar;
    spec.relations = {"R", "R"};
    spec.strategy = Strategy::kMmJoin;
    ExecOptions exec;
    exec.thresholds = {1, 1};
    exec.max_matrix_bytes = 256;
    VectorSink sink;
    ExecStats stats;
    ASSERT_TRUE(engine.Run(spec, sink, exec, &stats).ok());
    EXPECT_EQ(stats.executed, Strategy::kMmJoin);
    EXPECT_GT(stats.adjusted_thresholds.delta1, 1u);
    EXPECT_EQ(testutil::ToVectors(TupleBuffer(2, sink.tuple_data())),
              testutil::OracleStar({&rel, &rel}));
  }
}

}  // namespace
}  // namespace jpmm
