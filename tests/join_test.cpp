// Unit tests for src/join: intersection kernels, full-join baselines, star
// WCOJ enumeration, TupleBuffer; the span delivery of the two-path
// executors (MM, Non-MM, WCOJ full join) into a ResultSink; and the WCOJ
// full join's self-join mirror against brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/two_path_internal.h"

#include "join/dbms_baselines.h"
#include "join/hash_join.h"
#include "join/intersection.h"
#include "join/sort_merge_join.h"
#include "join/sorted_set_ops.h"
#include "join/star_wcoj.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::OracleStar;
using testutil::OracleTwoPath;
using testutil::OracleTwoPathCounted;
using testutil::RandomRelation;
using testutil::SortedOutput;
using testutil::Sorted;
using testutil::ToVectors;

std::vector<Value> V(std::initializer_list<Value> v) { return v; }

TEST(Intersection, MergeBasics) {
  std::vector<Value> out;
  EXPECT_EQ(IntersectSorted(V({1, 3, 5}), V({2, 3, 5, 9}), &out), 2u);
  EXPECT_EQ(out, V({3, 5}));
}

TEST(Intersection, EmptyInputs) {
  std::vector<Value> out;
  EXPECT_EQ(IntersectSorted({}, V({1, 2}), &out), 0u);
  EXPECT_EQ(IntersectCount(V({1, 2}), {}), 0u);
  EXPECT_FALSE(IntersectsSorted({}, {}));
}

TEST(Intersection, CountMatchesMaterialized) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Value> a, b;
    for (Value v = 0; v < 300; ++v) {
      if (rng.NextBool(0.3)) a.push_back(v);
      if (rng.NextBool(0.1)) b.push_back(v);
    }
    std::vector<Value> out;
    const size_t n = IntersectSorted(a, b, &out);
    EXPECT_EQ(IntersectCount(a, b), n);
    EXPECT_EQ(IntersectsSorted(a, b), n > 0);
  }
}

TEST(Intersection, GallopingLopsidedLists) {
  // Small list vs huge list triggers the galloping path (>32x ratio).
  std::vector<Value> big;
  for (Value v = 0; v < 10000; v += 2) big.push_back(v);
  EXPECT_EQ(IntersectCount(V({5000, 5001, 9998}), big), 2u);
  EXPECT_TRUE(IntersectsSorted(V({9998}), big));
  EXPECT_FALSE(IntersectsSorted(V({9999}), big));
}

TEST(Intersection, SubsetChecks) {
  EXPECT_TRUE(IsSubsetSorted(V({2, 4}), V({1, 2, 3, 4})));
  EXPECT_TRUE(IsSubsetSorted({}, V({1})));
  EXPECT_FALSE(IsSubsetSorted(V({2, 5}), V({1, 2, 3, 4})));
  EXPECT_FALSE(IsSubsetSorted(V({1, 2}), V({1})));
}

TEST(Intersection, KWayUnionDedups) {
  std::vector<Value> l1 = {1, 3, 5};
  std::vector<Value> l2 = {1, 2, 5, 8};
  std::vector<Value> l3 = {8};
  std::vector<Value> out;
  EXPECT_EQ(KWayUnion({l1, l2, l3}, &out), 5u);
  EXPECT_EQ(out, V({1, 2, 3, 5, 8}));
}

TEST(Intersection, KWayUnionEmpty) {
  std::vector<Value> out;
  EXPECT_EQ(KWayUnion({}, &out), 0u);
}

TEST(FullJoin, SizeMatchesEnumeration) {
  BinaryRelation r = RandomRelation(30, 20, 150, 0.8, 1);
  BinaryRelation s = RandomRelation(25, 20, 120, 0.8, 2);
  IndexedRelation ri(r), si(s);
  uint64_t count = 0;
  EnumerateFullTwoPathJoin(ri, si, [&](Value, Value, Value) { ++count; });
  EXPECT_EQ(count, FullTwoPathJoinSize(ri, si));
}

class DedupModeTest : public ::testing::TestWithParam<DedupMode> {};

TEST_P(DedupModeTest, HashJoinProjectMatchesOracle) {
  BinaryRelation r = RandomRelation(40, 25, 200, 1.0, 3);
  BinaryRelation s = RandomRelation(35, 25, 180, 1.0, 4);
  IndexedRelation ri(r), si(s);
  EXPECT_EQ(Sorted(HashJoinProject(ri, si, GetParam())), OracleTwoPath(r, s));
}

INSTANTIATE_TEST_SUITE_P(AllModes, DedupModeTest,
                         ::testing::Values(DedupMode::kSortUnique,
                                           DedupMode::kHashSet,
                                           DedupMode::kPreallocatedHash));

TEST(Baselines, AllEnginesAgreeWithOracle) {
  BinaryRelation r = RandomRelation(50, 30, 300, 1.1, 5);
  BinaryRelation s = RandomRelation(45, 30, 280, 1.1, 6);
  IndexedRelation ri(r), si(s);
  const auto oracle = OracleTwoPath(r, s);
  EXPECT_EQ(Sorted(PostgresLikeJoinProject(ri, si)), oracle);
  EXPECT_EQ(Sorted(MySqlLikeJoinProject(r, s)), oracle);
  EXPECT_EQ(Sorted(SystemXLikeJoinProject(ri, si)), oracle);
  EXPECT_EQ(Sorted(EmptyHeadedLikeJoinProject(ri, si)), oracle);
}

TEST(Baselines, SelfJoin) {
  BinaryRelation r = RandomRelation(30, 15, 120, 1.0, 7);
  IndexedRelation ri(r);
  const auto oracle = OracleTwoPath(r, r);
  EXPECT_EQ(Sorted(PostgresLikeJoinProject(ri, ri)), oracle);
  EXPECT_EQ(Sorted(EmptyHeadedLikeJoinProject(ri, ri)), oracle);
}

TEST(TupleBuffer, AddGetSortUnique) {
  TupleBuffer buf(2);
  buf.Add(V({3, 1}));
  buf.Add(V({1, 2}));
  buf.Add(V({3, 1}));
  buf.Add(V({1, 1}));
  EXPECT_EQ(buf.size(), 4u);
  buf.SortUnique();
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(ToVectors(buf),
            (std::vector<std::vector<Value>>{{1, 1}, {1, 2}, {3, 1}}));
}

TEST(TupleBuffer, AppendConcatenates) {
  TupleBuffer a(2), b(2);
  a.Add(V({1, 2}));
  b.Add(V({3, 4}));
  a.Append(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(StarWcoj, TwoRelationsMatchesTwoPathOracle) {
  BinaryRelation r = RandomRelation(20, 15, 80, 0.7, 8);
  BinaryRelation s = RandomRelation(18, 15, 70, 0.7, 9);
  IndexedRelation ri(r), si(s);
  TupleBuffer res = StarJoinProjectWcoj({&ri, &si});
  const auto oracle = OracleTwoPath(r, s);
  ASSERT_EQ(res.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(res.Get(i)[0], oracle[i].x);
    EXPECT_EQ(res.Get(i)[1], oracle[i].z);
  }
}

class StarArityTest : public ::testing::TestWithParam<int> {};

TEST_P(StarArityTest, MatchesOracle) {
  const int k = GetParam();
  std::vector<BinaryRelation> rels;
  std::vector<const BinaryRelation*> rel_ptrs;
  std::vector<IndexedRelation> idx;
  for (int i = 0; i < k; ++i) {
    rels.push_back(RandomRelation(12, 10, 40, 0.6, 100 + i));
  }
  for (int i = 0; i < k; ++i) {
    rel_ptrs.push_back(&rels[i]);
    idx.emplace_back(rels[i]);
  }
  std::vector<const IndexedRelation*> idx_ptrs;
  for (auto& x : idx) idx_ptrs.push_back(&x);

  TupleBuffer res = StarJoinProjectWcoj(idx_ptrs);
  EXPECT_EQ(ToVectors(res), OracleStar(rel_ptrs));
}

INSTANTIATE_TEST_SUITE_P(Arity, StarArityTest, ::testing::Values(2, 3, 4, 5));

TEST(StarWcoj, ThreadsProduceSameResult) {
  BinaryRelation r = RandomRelation(25, 20, 150, 0.9, 11);
  IndexedRelation ri(r);
  const auto ref = ToVectors(StarJoinProjectWcoj({&ri, &ri, &ri}));
  for (int threads : {2, 4}) {
    EXPECT_EQ(
        ToVectors(StarJoinProjectWcoj({&ri, &ri, &ri}, nullptr, nullptr,
                                      threads)),
        ref);
  }
}

TEST(StarWcoj, FiltersRestrictTuples) {
  BinaryRelation r;
  r.Add(0, 0);
  r.Add(1, 0);
  r.Finalize();
  IndexedRelation ri(r);
  // Filter out x = 1 in relation 0 only.
  TupleBuffer res = StarJoinProjectWcoj(
      {&ri, &ri},
      [](size_t rel, Value a, Value) { return rel != 0 || a == 0; });
  EXPECT_EQ(ToVectors(res),
            (std::vector<std::vector<Value>>{{0, 0}, {0, 1}}));
}

TEST(StarWcoj, YFilterRestrictsExpansion) {
  BinaryRelation r;
  r.Add(0, 0);
  r.Add(1, 1);
  r.Finalize();
  IndexedRelation ri(r);
  TupleBuffer res = StarJoinProjectWcoj({&ri, &ri}, nullptr,
                                        [](Value b) { return b == 1; });
  EXPECT_EQ(ToVectors(res), (std::vector<std::vector<Value>>{{1, 1}}));
}

TEST(StarWcoj, FullStarJoinSizeMatchesProduct) {
  BinaryRelation r = RandomRelation(15, 10, 60, 0.5, 12);
  IndexedRelation ri(r);
  uint64_t expected = 0;
  for (Value b = 0; b < ri.num_y(); ++b) {
    expected += static_cast<uint64_t>(ri.DegY(b)) * ri.DegY(b) * ri.DegY(b);
  }
  EXPECT_EQ(FullStarJoinSize({&ri, &ri, &ri}), expected);
}

TEST(SortMergeJoin, EmptyRelation) {
  BinaryRelation r, s;
  r.Finalize();
  s.Add(1, 1);
  s.Finalize();
  EXPECT_TRUE(SortMergeJoinProject(r, s).empty());
}

// ---- Span delivery -------------------------------------------------------

// A sink that counts scalar deliveries (each one a failure: the two-path
// executors hand results over only as spans) and collects the spans.
class SpanOnlySink : public ResultSink {
 public:
  struct SpanShard : Shard {
    void OnPair(const OutPair&) override { ++scalar_calls; }
    void OnCountedPair(const CountedPair&) override { ++scalar_calls; }
    void OnPairs(std::span<const OutPair> ps) override {
      out.pairs.insert(out.pairs.end(), ps.begin(), ps.end());
    }
    void OnCountedPairs(std::span<const CountedPair> ps) override {
      out.counted.insert(out.counted.end(), ps.begin(), ps.end());
    }
    uint64_t scalar_calls = 0;
    SortedOutput out;
  };

  void Open(int num_shards) override {
    shards_.clear();
    for (int w = 0; w < num_shards; ++w) {
      shards_.push_back(std::make_unique<SpanShard>());
    }
  }
  Shard& shard(int w) override { return *shards_[static_cast<size_t>(w)]; }

  uint64_t scalar_calls() const {
    uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->scalar_calls;
    return n;
  }
  SortedOutput Collected() const {
    SortedOutput all;
    for (const auto& sh : shards_) {
      all.pairs.insert(all.pairs.end(), sh->out.pairs.begin(),
                       sh->out.pairs.end());
      all.counted.insert(all.counted.end(), sh->out.counted.begin(),
                         sh->out.counted.end());
    }
    std::sort(all.pairs.begin(), all.pairs.end());
    std::sort(all.counted.begin(), all.counted.end());
    return all;
  }

 private:
  std::vector<std::unique_ptr<SpanShard>> shards_;
};

// One two-path executor under test, run into any sink.
struct SpanExecutor {
  std::string name;
  std::function<RunRecord(const MmJoinOptions&, ResultSink&)> run;
  bool has_heavy_part;  // the run must report heavy rows
};

std::vector<SpanExecutor> SpanExecutors(const IndexedRelation& r,
                                        const IndexedRelation& s) {
  auto mm = [&r, &s](PartitionMode partition) {
    return [&r, &s, partition](const MmJoinOptions& opts, ResultSink& sink) {
      MmJoinOptions o = opts;
      o.partition = partition;
      return MmJoinTwoPath(r, s, o, sink);
    };
  };
  return {
      {"mm-uniform", mm(PartitionMode::kOff), true},
      {"mm-grid", mm(PartitionMode::kForce), true},
      {"nonmm",
       [&r, &s](const MmJoinOptions& opts, ResultSink& sink) {
         return NonMmJoinTwoPath(r, s, opts, sink);
       },
       true},
      {"wcoj",
       [&r, &s](const MmJoinOptions& opts, ResultSink& sink) {
         RunRecord run;
         static_cast<LightRun&>(run) =
             WcojFullJoinProject(r, s, opts.count_witnesses, opts.min_count,
                                 opts.threads, &sink);
         return run;
       },
       false},
  };
}

// The instances: a skewed self join, which runs as one index and so as a
// symmetric heavy product, and R != S. Each answer is larger than one span.
struct SpanInstance {
  std::string name;
  BinaryRelation r, s;
  bool self() const { return name == "self"; }
};

std::vector<SpanInstance> SpanInstances() {
  std::vector<SpanInstance> out;
  BinaryRelation self = RandomRelation(150, 60, 1500, 1.0, 31);
  out.push_back({"self", self, self});
  out.push_back({"r!=s", RandomRelation(150, 60, 1500, 1.0, 32),
                 RandomRelation(120, 60, 1200, 0.9, 33)});
  return out;
}

// No two-path executor calls a scalar hook: MM on the uniform plan and on
// the grid, Non-MM and WCOJ, self join and R != S, plain and counted,
// min_count 1 and 2, threads 1 and 4 all deliver only spans, and the spans
// hold exactly the brute-force answer.
TEST(SpanDelivery, ExecutorsDeliverOnlySpansThatMatchTheOracle) {
  for (const SpanInstance& inst : SpanInstances()) {
    const IndexedRelation r(inst.r);
    const IndexedRelation s_idx(inst.s);
    const IndexedRelation& s = inst.self() ? r : s_idx;
    ASSERT_GT(OracleTwoPath(inst.r, inst.s).size(),
              internal::PairEmitter::kFlushAt)
        << inst.name;
    struct Output {
      bool counted;
      uint32_t min_count;
    };
    for (const Output out : {Output{false, 1}, Output{true, 1},
                             Output{true, 2}}) {
      SortedOutput want;
      if (out.counted) {
        want.counted = OracleTwoPathCounted(inst.r, inst.s, out.min_count);
      } else {
        want.pairs = OracleTwoPath(inst.r, inst.s);
      }
      for (const SpanExecutor& ex : SpanExecutors(r, s)) {
        for (int threads : {1, 4}) {
          const std::string where =
              inst.name + " " + ex.name + " counted=" +
              std::to_string(out.counted) + " min_count=" +
              std::to_string(out.min_count) + " t" + std::to_string(threads);
          MmJoinOptions opts;
          opts.thresholds = {4, 4};
          opts.count_witnesses = out.counted;
          opts.min_count = out.min_count;
          opts.threads = threads;
          SpanOnlySink sink;
          const RunRecord run = ex.run(opts, sink);
          if (ex.has_heavy_part) EXPECT_GT(run.heavy_rows, 0u) << where;
          if (ex.name.starts_with("mm")) {
            EXPECT_EQ(run.symmetric, inst.self()) << where;
          }
          EXPECT_EQ(sink.scalar_calls(), 0u) << where;
          EXPECT_EQ(sink.Collected(), want) << where;
        }
      }
    }
  }
}

// Results leave at chunk ends, yet a page still holds exactly
// min(k, |OUT|) results and every light chunk and heavy block is counted
// executed or skipped.
TEST(SpanDelivery, PageStaysExactWithChunkAccounting) {
  for (const SpanInstance& inst : SpanInstances()) {
    const IndexedRelation r(inst.r);
    const IndexedRelation s_idx(inst.s);
    const IndexedRelation& s = inst.self() ? r : s_idx;
    const size_t all = OracleTwoPath(inst.r, inst.s).size();
    for (const SpanExecutor& ex : SpanExecutors(r, s)) {
      for (uint64_t k : {uint64_t{0}, uint64_t{7}, uint64_t{all + 1}}) {
        for (int threads : {1, 4}) {
          const std::string where = inst.name + " " + ex.name + " k=" +
                                    std::to_string(k) + " t" +
                                    std::to_string(threads);
          MmJoinOptions opts;
          opts.thresholds = {4, 4};
          opts.threads = threads;
          PageSink sink(0, k);
          const RunRecord run = ex.run(opts, sink);
          EXPECT_EQ(sink.size(), std::min<uint64_t>(k, all)) << where;
          EXPECT_EQ(run.light_chunks_executed + run.light_chunks_skipped,
                    run.light_chunks_total)
              << where;
          EXPECT_EQ(run.heavy_blocks_executed + run.heavy_blocks_skipped,
                    run.heavy_blocks_total)
              << where;
          if (k == 0) {
            EXPECT_EQ(run.light_chunks_executed, 0u) << where;
            EXPECT_EQ(run.heavy_blocks_executed, 0u) << where;
          }
        }
      }
    }
  }
}

// The set joins filter the counted self join through the engine's adapter,
// which forwards one span per span it receives: SSJ (plain and ordered) and
// SCJ reach the sink only as spans too, under every strategy.
TEST(SpanDelivery, SetJoinsDeliverOnlySpans) {
  const BinaryRelation rel = RandomRelation(150, 60, 1500, 1.0, 31);
  const IndexedRelation idx(rel);
  SortedOutput ssj, ssj_ordered, scj;
  for (const CountedPair& p : OracleTwoPathCounted(rel, rel)) {
    if (p.x < p.z && p.count >= 2) {
      ssj.pairs.push_back({p.x, p.z});
      ssj_ordered.counted.push_back(p);
    }
    if (p.x != p.z && p.count == idx.DegX(p.x)) scj.pairs.push_back({p.x, p.z});
  }
  struct Case {
    const char* name;
    QueryKind kind;
    bool ordered;
    const SortedOutput* want;
  };
  const Case cases[] = {{"ssj", QueryKind::kSsj, false, &ssj},
                        {"ssj-ordered", QueryKind::kSsj, true, &ssj_ordered},
                        {"scj", QueryKind::kScj, false, &scj}};
  QueryEngine engine = testutil::MakeEngine(rel);
  for (const Case& c : cases) {
    ASSERT_GT(c.want->size(), 0u) << c.name;
    for (Strategy strategy :
         {Strategy::kMmJoin, Strategy::kNonMmJoin, Strategy::kWcojFull}) {
      for (int threads : {1, 4}) {
        const std::string where = std::string(c.name) + " " +
                                  StrategyName(strategy) + " t" +
                                  std::to_string(threads);
        QuerySpec spec;
        spec.kind = c.kind;
        spec.relations = {"R"};
        spec.ssj_c = 2;
        spec.ssj_ordered = c.ordered;
        ExecOptions exec;
        exec.strategy_override = strategy;
        exec.threads = threads;
        exec.thresholds = {4, 4};
        SpanOnlySink sink;
        ASSERT_TRUE(engine.Run(spec, sink, exec).ok()) << where;
        EXPECT_EQ(sink.scalar_calls(), 0u) << where;
        EXPECT_EQ(sink.Collected(), *c.want) << where;
      }
    }
  }
}

// ---- The WCOJ-full self-join mirror ---------------------------------------

// Self joins for the mirror: a skewed relation with a hub y that every
// third x joins and an x (5) with no tuples below the largest x, over three
// 256-value chunks of the x domain; and a single tuple.
std::vector<std::pair<std::string, BinaryRelation>> MirrorInstances() {
  const BinaryRelation base = RandomRelation(600, 80, 2000, 1.0, 41);
  BinaryRelation skewed;
  for (const Tuple& t : base.tuples()) {
    if (t.x != 5) skewed.Add(t.x, t.y);
  }
  for (Value x = 0; x < 600; x += 3) skewed.Add(x, 80);
  skewed.Finalize();
  BinaryRelation single;
  single.Add(3, 4);
  single.Finalize();
  return {{"skewed", std::move(skewed)}, {"single", std::move(single)}};
}

// The distinct (x, z) keys among results, to tell a pair that arrived
// twice.
size_t DistinctKeys(std::span<const OutPair> pairs,
                    std::span<const CountedPair> counted) {
  std::set<std::pair<Value, Value>> keys;
  for (const OutPair& p : pairs) keys.insert({p.x, p.z});
  for (const CountedPair& p : counted) keys.insert({p.x, p.z});
  return keys.size();
}

// One snapshot on both sides runs mirrored. Plain and counted, min_count
// 1-3, threads 1, 3 and 4: the answer is the brute-force one, no pair
// arrives twice, and two snapshots of the same data, which run unmirrored,
// give the same answer.
TEST(WcojFull, SelfJoinMirrorMatchesBruteForce) {
  for (const auto& [name, rel] : MirrorInstances()) {
    const IndexedRelation idx(rel);
    const IndexedRelation copy(rel);
    struct Output {
      bool counted;
      uint32_t min_count;
    };
    for (const Output out : {Output{false, 1}, Output{true, 1},
                             Output{true, 2}, Output{true, 3}}) {
      SortedOutput want;
      if (out.counted) {
        want.counted = OracleTwoPathCounted(rel, rel, out.min_count);
      } else {
        want.pairs = OracleTwoPath(rel, rel);
      }
      for (int threads : {1, 3, 4}) {
        const std::string where =
            name + " counted=" + std::to_string(out.counted) +
            " min_count=" + std::to_string(out.min_count) + " t" +
            std::to_string(threads);
        VectorSink sink;
        const LightRun run = WcojFullJoinProject(
            idx, idx, out.counted, out.min_count, threads, &sink);
        EXPECT_TRUE(run.mirrored) << where;
        EXPECT_EQ(DistinctKeys(sink.pairs(), sink.counted()), sink.size())
            << where;
        EXPECT_EQ(SortedOutput(sink), want) << where;

        VectorSink two;
        EXPECT_FALSE(WcojFullJoinProject(idx, copy, out.counted,
                                         out.min_count, threads, &two)
                         .mirrored)
            << where;
        EXPECT_EQ(SortedOutput(two), want) << where;
      }
    }
  }
}

// The mirror's flat walk over each chunk's tuples, with its prefetch
// lookahead: a relation over more than three 256-head chunks with empty
// heads at every chunk edge, and one with fewer tuples than the lookahead
// distance. Plain and counted, threads 1, 3 and 4, against brute force.
TEST(WcojFull, SelfJoinMirrorAcrossChunkEdges) {
  const BinaryRelation base = RandomRelation(900, 60, 4000, 0.8, 53);
  const std::set<Value> empty_heads = {0, 255, 256, 511, 512, 767, 768};
  BinaryRelation edges;
  for (const Tuple& t : base.tuples()) {
    if (!empty_heads.contains(t.x)) edges.Add(t.x, t.y);
  }
  edges.Add(899, 7);
  edges.Finalize();
  ASSERT_EQ(edges.num_x(), 900u);
  BinaryRelation tiny;  // 5 tuples, under the 16-tuple lookahead
  for (const Tuple t : {Tuple{0, 1}, Tuple{1, 1}, Tuple{2, 1}, Tuple{3, 0},
                        Tuple{3, 1}}) {
    tiny.Add(t.x, t.y);
  }
  tiny.Finalize();
  for (const auto& [name, rel] :
       {std::pair<std::string, const BinaryRelation&>{"edges", edges},
        {"tiny", tiny}}) {
    const IndexedRelation idx(rel);
    for (const bool counted : {false, true}) {
      SortedOutput want;
      if (counted) {
        want.counted = OracleTwoPathCounted(rel, rel);
      } else {
        want.pairs = OracleTwoPath(rel, rel);
      }
      for (int threads : {1, 3, 4}) {
        const std::string where = name + " counted=" +
                                  std::to_string(counted) + " t" +
                                  std::to_string(threads);
        VectorSink sink;
        const LightRun run = WcojFullJoinProject(
            idx, idx, counted, /*min_count=*/1, threads, &sink);
        EXPECT_TRUE(run.mirrored) << where;
        EXPECT_EQ(DistinctKeys(sink.pairs(), sink.counted()), sink.size())
            << where;
        EXPECT_EQ(SortedOutput(sink), want) << where;
      }
    }
  }
}

// The mirror under early exit: a page of k = 1 or 7 ends inside a head's
// mirrored pairs and k = 4097 one past a span, yet the page holds exactly
// min(k, |OUT|) distinct members of the answer; at one thread the small
// pages skip the later chunks. A token fired before the run still reports
// interrupted.
TEST(WcojFull, SelfJoinMirrorStopsEarly) {
  const BinaryRelation rel = MirrorInstances()[0].second;
  const IndexedRelation idx(rel);
  const std::vector<OutPair> all = OracleTwoPath(rel, rel);
  ASSERT_GT(all.size(), internal::PairEmitter::kFlushAt + 1);
  for (uint64_t k : {uint64_t{1}, uint64_t{7}, uint64_t{4097}}) {
    for (int threads : {1, 4}) {
      const std::string where =
          "k=" + std::to_string(k) + " t" + std::to_string(threads);
      PageSink sink(0, k);
      const LightRun run =
          WcojFullJoinProject(idx, idx, /*count_witnesses=*/false,
                              /*min_count=*/1, threads, &sink);
      EXPECT_TRUE(run.mirrored) << where;
      EXPECT_EQ(sink.size(), std::min<uint64_t>(k, all.size())) << where;
      EXPECT_EQ(DistinctKeys(sink.pairs(), {}), sink.size()) << where;
      for (const OutPair& p : sink.pairs()) {
        EXPECT_TRUE(std::binary_search(all.begin(), all.end(), p)) << where;
      }
      EXPECT_EQ(run.light_chunks_executed + run.light_chunks_skipped,
                run.light_chunks_total)
          << where;
      if (threads == 1 && k < internal::PairEmitter::kFlushAt) {
        EXPECT_GT(run.light_chunks_skipped, 0u) << where;
      }
    }
  }
  CancelToken fired;
  fired.RequestCancel();
  for (int threads : {1, 4}) {
    VectorSink sink;
    const LightRun run =
        WcojFullJoinProject(idx, idx, /*count_witnesses=*/false,
                            /*min_count=*/1, threads, &sink, &fired);
    EXPECT_TRUE(run.interrupted) << threads;
    EXPECT_EQ(run.light_chunks_executed, 0u) << threads;
    EXPECT_EQ(sink.size(), 0u) << threads;
  }
}

}  // namespace
}  // namespace jpmm
