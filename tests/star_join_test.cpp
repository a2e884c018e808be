// Tests for the star-join MMJoin (§3.2) and its combinatorial comparator.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "core/cancel_token.h"
#include "core/query_engine.h"
#include "core/star_join.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::NonMmStarRun;
using testutil::OracleStar;
using testutil::RandomRelation;
using testutil::SpanDetail;
using testutil::StarRun;
using testutil::ToVectors;

struct StarFixture {
  std::vector<BinaryRelation> rels;
  std::vector<IndexedRelation> idx;
  std::vector<const IndexedRelation*> idx_ptrs;
  std::vector<const BinaryRelation*> rel_ptrs;

  StarFixture(int k, uint32_t nx, uint32_t ny, uint32_t tuples, double skew,
              uint64_t seed) {
    for (int i = 0; i < k; ++i) {
      rels.push_back(RandomRelation(nx, ny, tuples, skew, seed + i));
    }
    for (int i = 0; i < k; ++i) {
      idx.emplace_back(rels[i]);
      rel_ptrs.push_back(&rels[i]);
    }
    for (auto& x : idx) idx_ptrs.push_back(&x);
  }
};

struct StarParam {
  int k;
  uint32_t nx, ny, tuples;
  double skew;
  uint64_t d1, d2;
  int threads;
  // Both parts deliver: the run has heavy combos, and the answer has a
  // tuple with a light x (which only the light steps produce).
  bool mixed = false;
};

void ExpectMixed(const StarParam& p, const StarFixture& f,
                 const testutil::CollectedStar& res) {
  if (!p.mixed) return;
  EXPECT_GT(res.heavy_rows, 0u);
  EXPECT_GT(res.heavy_cols, 0u);
  bool light_x = false;
  for (size_t t = 0; t < res.tuples.size() && !light_x; ++t) {
    const auto tuple = res.tuples.Get(t);
    for (size_t i = 0; i < tuple.size() && !light_x; ++i) {
      light_x = f.idx[i].DegX(tuple[i]) <= p.d2;
    }
  }
  EXPECT_TRUE(light_x);
}

class StarSweep : public ::testing::TestWithParam<StarParam> {};

TEST_P(StarSweep, MmStarMatchesOracle) {
  const StarParam p = GetParam();
  StarFixture f(p.k, p.nx, p.ny, p.tuples, p.skew, 200);
  StarJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  auto res = StarRun(f.idx_ptrs, opts);
  EXPECT_EQ(ToVectors(res.tuples), OracleStar(f.rel_ptrs));
  // Sorted and duplicate-free as produced, not just as a set.
  EXPECT_EQ(res.tuples.flat(), WcojStarJoin(f.idx_ptrs).flat());
  ExpectMixed(p, f, res);
}

TEST_P(StarSweep, NonMmStarMatchesOracle) {
  const StarParam p = GetParam();
  StarFixture f(p.k, p.nx, p.ny, p.tuples, p.skew, 300);
  StarJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  auto res = NonMmStarRun(f.idx_ptrs, opts);
  EXPECT_EQ(ToVectors(res.tuples), OracleStar(f.rel_ptrs));
  EXPECT_EQ(res.tuples.flat(), WcojStarJoin(f.idx_ptrs).flat());
  ExpectMixed(p, f, res);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StarSweep,
    ::testing::Values(
        StarParam{2, 20, 15, 80, 0.8, 2, 2, 1},
        StarParam{3, 15, 12, 60, 0.8, 2, 2, 1},
        StarParam{3, 15, 12, 60, 0.8, 1, 1, 1},    // everything heavy-ish
        StarParam{3, 15, 12, 60, 0.8, 100, 100, 1},  // everything light
        StarParam{3, 18, 14, 80, 1.5, 3, 2, 2},    // skewed + threads
        StarParam{4, 10, 8, 36, 0.7, 2, 2, 1},
        StarParam{4, 10, 8, 36, 0.7, 1, 2, 2},
        StarParam{5, 8, 6, 24, 0.5, 1, 1, 1},
        // The (3,3), (4,3) and (4,4) group sizes of the finish's merge.
        StarParam{6, 6, 5, 20, 0.5, 2, 2, 1, /*mixed=*/true},
        StarParam{7, 5, 4, 16, 0.5, 2, 2, 2, /*mixed=*/true},
        StarParam{8, 4, 4, 14, 0.5, 2, 2, 1, /*mixed=*/true}));

TEST(StarJoin, DenseBlockGoesThroughMatrix) {
  // One shared dense y-block: all x heavy, y heavy in all relations.
  BinaryRelation r;
  for (Value a = 0; a < 8; ++a) {
    for (Value b = 0; b < 8; ++b) r.Add(a, b);
  }
  r.Finalize();
  IndexedRelation ri(r);
  StarJoinOptions opts;
  opts.thresholds = {2, 2};
  auto res = StarRun({&ri, &ri, &ri}, opts);
  EXPECT_GT(res.heavy_rows, 0u);
  EXPECT_GT(res.heavy_cols, 0u);
  EXPECT_GT(res.heavy_inner, 0u);
  EXPECT_EQ(res.tuples.size(), 8u * 8 * 8);
}

TEST(StarJoin, MemoryCapDegradesGracefully) {
  BinaryRelation r;
  for (Value a = 0; a < 12; ++a) {
    for (Value b = 0; b < 12; ++b) r.Add(a, b);
  }
  r.Finalize();
  IndexedRelation ri(r);
  StarJoinOptions opts;
  opts.thresholds = {1, 1};
  opts.max_matrix_bytes = 256;  // forces threshold doubling
  auto res = StarRun({&ri, &ri}, opts);
  EXPECT_GT(res.adjusted_thresholds.delta1, 1u);
  EXPECT_EQ(res.tuples.size(), 12u * 12);
}

TEST(StarJoin, DifferentRelationsPerPosition) {
  StarFixture f(3, 14, 10, 50, 1.0, 400);
  StarJoinOptions opts;
  opts.thresholds = {2, 3};
  auto mm = StarRun(f.idx_ptrs, opts);
  auto nonmm = NonMmStarRun(f.idx_ptrs, opts);
  auto wcoj = WcojStarJoin(f.idx_ptrs);
  const auto oracle = OracleStar(f.rel_ptrs);
  EXPECT_EQ(ToVectors(mm.tuples), oracle);
  EXPECT_EQ(ToVectors(nonmm.tuples), oracle);
  EXPECT_EQ(ToVectors(wcoj), oracle);
}

TEST(StarJoin, EmptyIntersectionProducesNothing) {
  BinaryRelation a, b;
  a.Add(0, 0);
  a.Finalize();
  b.Add(0, 1);
  b.Finalize();
  IndexedRelation ai(a), bi(b);
  StarJoinOptions opts;
  auto res = StarRun({&ai, &bi}, opts);
  EXPECT_EQ(res.tuples.size(), 0u);
}

TEST(StarJoin, K2AgreesWithTwoPathSemantics) {
  StarFixture f(2, 25, 18, 120, 1.1, 500);
  StarJoinOptions opts;
  opts.thresholds = {2, 2};
  auto res = StarRun(f.idx_ptrs, opts);
  EXPECT_EQ(ToVectors(res.tuples), OracleStar(f.rel_ptrs));
}

// The engine surfaces the star's heavy-run record like the two-path's: one
// block choice per scheduled product block, plus the operand nnz.
TEST(StarJoin, EngineStatsCarryBlockChoices) {
  QueryEngine engine;
  engine.catalog().Put("R", CommunityGraph(4, 60, 0.5, 11));
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R", "R", "R"};
  for (PartitionMode partition : {PartitionMode::kOff, PartitionMode::kForce}) {
    ExecOptions exec;
    exec.thresholds = {8, 8};  // force a real heavy part
    exec.partition = partition;
    CountOnlySink sink;
    ExecStats stats;
    ASSERT_TRUE(engine.Run(spec, sink, exec, &stats).ok());
    EXPECT_GT(stats.kernel_counts.total(), 0u) << PartitionModeName(partition);
    EXPECT_EQ(stats.block_choices.size(), stats.kernel_counts.total())
        << PartitionModeName(partition);
    EXPECT_GT(stats.a_nnz, 0u);
    EXPECT_GT(stats.b_nnz, 0u);
    EXPECT_GT(stats.heavy_density, 0.0);
  }
}

// The Non-MM star feeds the process-wide join metrics like every other join
// strategy: its decomposition steps, its heavy chunks and both pass times.
TEST(StarJoin, NonMmStarRecordsRunMetrics) {
  const bool was_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& steps = reg.GetCounter("jpmm_star_light_steps_executed_total");
  Counter& blocks = reg.GetCounter("jpmm_join_heavy_blocks_executed_total");
  Histogram& heavy_ms =
      reg.GetHistogram("jpmm_join_heavy_pass_ms", DefaultLatencyBoundsMs());
  const uint64_t steps_before = steps.value();
  const uint64_t blocks_before = blocks.value();
  const uint64_t heavy_before = heavy_ms.Snapshot().count;

  QueryEngine engine;
  engine.catalog().Put("R", CommunityGraph(4, 60, 0.5, 11));
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R", "R", "R"};
  spec.strategy = Strategy::kNonMmJoin;
  ExecOptions exec;
  exec.thresholds = {8, 8};  // a real heavy part
  CountOnlySink sink;
  ExecStats stats;
  ASSERT_TRUE(engine.Run(spec, sink, exec, &stats).ok());
  SetMetricsEnabled(was_enabled);

  EXPECT_EQ(stats.executed, Strategy::kNonMmJoin);
  ASSERT_GT(stats.light_chunks_executed, 0u);
  ASSERT_GT(stats.heavy_blocks_executed, 0u);
  EXPECT_EQ(steps.value() - steps_before, stats.light_chunks_executed);
  EXPECT_EQ(blocks.value() - blocks_before, stats.heavy_blocks_executed);
  EXPECT_EQ(heavy_ms.Snapshot().count - heavy_before, 1u);
}

// Records every tuple in arrival order, across shards. may_finish_early()
// stays false, so a star run delivers after evaluation. CancelAt makes the
// n-th tuple fire a token.
class ArrivalOrderSink : public ResultSink {
 public:
  class Sh : public Shard {
   public:
    explicit Sh(ArrivalOrderSink* parent) : parent_(parent) {}
    void OnPair(const OutPair&) override {}
    void OnCountedPair(const CountedPair&) override {}
    void OnTuple(std::span<const Value> t) override {
      std::lock_guard<std::mutex> lock(parent_->mu_);
      parent_->tuples_.emplace_back(t.begin(), t.end());
      if (parent_->tuples_.size() == parent_->cancel_at_) {
        parent_->cancel_->RequestCancel();
      }
    }

   private:
    ArrivalOrderSink* parent_;
  };

  void Open(int num_shards) override {
    shards_.clear();
    for (int i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Sh>(this));
    }
  }
  Shard& shard(int w) override { return *shards_[static_cast<size_t>(w)]; }

  const std::vector<std::vector<Value>>& tuples() const { return tuples_; }

  void CancelAt(CancelToken* token, size_t n) {
    cancel_ = token;
    cancel_at_ = n;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Sh>> shards_;
  std::vector<std::vector<Value>> tuples_;
  CancelToken* cancel_ = nullptr;
  size_t cancel_at_ = 0;  // 0: never
};

// A non-streaming sink sees the star's output in strictly increasing order,
// on every strategy that builds the heavy tuples in order.
TEST(StarJoin, NonStreamingSinkReceivesSortedTuples) {
  QueryEngine engine;
  engine.catalog().Put("R", CommunityGraph(4, 60, 0.5, 11));
  struct Variant {
    Strategy strategy;
    PartitionMode partition;
  };
  const Variant variants[] = {
      {Strategy::kMmJoin, PartitionMode::kOff},
      {Strategy::kMmJoin, PartitionMode::kForce},
      {Strategy::kNonMmJoin, PartitionMode::kOff},
  };
  for (const Variant& v : variants) {
    for (int threads : {1, 4}) {
      const std::string where = std::string(StrategyName(v.strategy)) + "/" +
                                PartitionModeName(v.partition) + "/t" +
                                std::to_string(threads);
      QuerySpec spec;
      spec.kind = QueryKind::kStar;
      spec.relations = {"R", "R", "R"};
      spec.strategy = v.strategy;
      ExecOptions exec;
      exec.thresholds = {8, 8};  // a real heavy part
      exec.partition = v.partition;
      exec.threads = threads;
      ArrivalOrderSink sink;
      ExecStats stats;
      ASSERT_TRUE(engine.Run(spec, sink, exec, &stats).ok()) << where;
      EXPECT_GT(stats.heavy_blocks_executed, 0u) << where;
      ASSERT_FALSE(sink.tuples().empty()) << where;
      for (size_t i = 1; i < sink.tuples().size(); ++i) {
        ASSERT_LT(sink.tuples()[i - 1], sink.tuples()[i])
            << where << " at " << i;
      }
    }
  }
}

// A token fired during the finish's merge stops it within one V row: the
// sink holds a strictly ascending prefix of the answer, at most one row's
// W combos past the tuple that fired it.
TEST(StarJoin, CancelDuringFinishStopsWithinOneRow) {
  const BinaryRelation rel = CommunityGraph(3, 30, 0.5, 11);
  const IndexedRelation idx(rel);
  const std::vector<const IndexedRelation*> rels = {&idx, &idx, &idx};
  const TupleBuffer want = WcojStarJoin(rels);
  ASSERT_GT(want.size(), 1000u);
  for (int threads : {1, 4}) {
    for (const bool mm : {true, false}) {
      for (const size_t n : {size_t{1}, size_t{300}, want.size() / 2}) {
        const std::string where = std::string(mm ? "mm" : "nonmm") + "/t" +
                                  std::to_string(threads) + "/n" +
                                  std::to_string(n);
        CancelToken token;
        StarJoinOptions opts;
        opts.thresholds = {4, 4};  // a real heavy part
        opts.threads = threads;
        opts.cancel = &token;
        ArrivalOrderSink sink;
        sink.CancelAt(&token, n);
        const RunRecord res = mm ? MmStarJoin(rels, opts, sink)
                                 : NonMmStarJoin(rels, opts, sink);
        ASSERT_GT(res.heavy_cols, 0u) << where;
        EXPECT_TRUE(res.interrupted) << where;
        const auto& got = sink.tuples();
        ASSERT_GE(got.size(), n) << where;
        EXPECT_LE(got.size(), n + res.heavy_cols) << where;
        for (size_t i = 0; i < got.size(); ++i) {
          const auto expect = want.Get(i);
          ASSERT_EQ(got[i], std::vector<Value>(expect.begin(), expect.end()))
              << where << " at " << i;
        }
      }
    }
  }
}

// One output tuple with both a light and a heavy witness: the finish's
// light/heavy merge must keep it once, in order. Over one relation
// y = 0..2: x in {0, 1, 2} (degree 3, heavy in every relation; the x values
// reach degree >= 3, heavy too). y = 3: x in {0, 5} (degree 2, light;
// x = 5 has degree 1, light). So (0, .., 0) has a light witness y = 3
// (step 2) and a heavy one y = 0 (step 3).
void ExpectLightAndHeavyWitnessMergeOnce(size_t k) {
  BinaryRelation r;
  for (Value y = 0; y < 3; ++y) {
    for (Value x = 0; x < 3; ++x) r.Add(x, y);
  }
  r.Add(0, 3);
  r.Add(5, 3);
  r.Finalize();
  IndexedRelation ri(r);
  const std::vector<const IndexedRelation*> rels(k, &ri);
  const Thresholds t{2, 2};
  ASSERT_LE(ri.DegY(3), t.delta1);
  ASSERT_GT(ri.DegY(0), t.delta1);
  ASSERT_GT(ri.DegX(0), t.delta2);
  const TupleBuffer want = WcojStarJoin(rels);
  size_t heavy = 1, light = 1;
  for (size_t i = 0; i < k; ++i) {
    heavy *= 3;
    light *= 2;
  }
  ASSERT_EQ(want.size(), heavy + light - 1);  // {0,1,2}^k u {0,5}^k

  for (int threads : {1, 4}) {
    StarJoinOptions opts;
    opts.thresholds = t;
    opts.threads = threads;
    for (const bool mm : {true, false}) {
      const auto res = mm ? StarRun(rels, opts) : NonMmStarRun(rels, opts);
      const std::string where = std::string(mm ? "mm" : "nonmm") + "/k" +
                                std::to_string(k) + "/t" +
                                std::to_string(threads);
      EXPECT_GT(res.light_chunks_executed, 0u) << where;
      EXPECT_GT(res.heavy_rows, 0u) << where;
      EXPECT_EQ(res.tuples.flat(), want.flat()) << where;
    }
  }
}

TEST(StarJoin, LightAndHeavyWitnessOfOneTupleMergeOnce) {
  ExpectLightAndHeavyWitnessMergeOnce(3);
}

// The same at k = 6: the (3,3) arm of the merge's group-size switch.
TEST(StarJoin, LightAndHeavyWitnessMergeOnceAtK6) {
  ExpectLightAndHeavyWitnessMergeOnce(6);
}

// Sinks that can finish early still stream (and dedup) incrementally: a
// limit far below |OUT| stops the run before its heavy blocks.
TEST(StarJoin, LimitSinkStreamsAndSkipsBlocks) {
  QueryEngine engine;
  engine.catalog().Put("R", CommunityGraph(4, 60, 0.5, 11));
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R", "R", "R"};
  spec.strategy = Strategy::kMmJoin;
  ExecOptions exec;
  exec.thresholds = {8, 8};
  PageSink sink(0, 10);
  ExecStats stats;
  ASSERT_TRUE(engine.Run(spec, sink, exec, &stats).ok());
  EXPECT_EQ(sink.size(), 10u);
  EXPECT_GT(stats.heavy_blocks_total, 0u);
  EXPECT_GT(stats.heavy_blocks_skipped, 0u);
  EXPECT_EQ(stats.heavy_blocks_executed + stats.heavy_blocks_skipped,
            stats.heavy_blocks_total);
}

// ---- The operand memo (HeavyOperandCache) --------------------------------
//
// A PreparedQuery keeps the star's fitted thresholds and V / W^T operands
// for its lifetime. A repeat execution must reuse them and answer byte for
// byte like the first; a change to any input of the fit must re-fit.

// One traced execution of `q`: its tuples and the threshold-fit detail.
struct TracedStar {
  std::vector<Value> tuples;
  std::string fit;
  uint64_t heavy_blocks = 0;
};

TracedStar ExecuteTraced(QueryEngine& engine, PreparedQuery& q,
                         ExecOptions exec) {
  TraceRecorder rec;
  exec.trace = &rec;
  VectorSink sink;
  ExecStats stats;
  EXPECT_TRUE(engine.Execute(q, sink, exec, &stats).ok());
  return {sink.tuple_data(), SpanDetail(stats, "threshold-fit"),
          stats.heavy_blocks_total};
}

QuerySpec StarSpec(const std::string& name, size_t k) {
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = std::vector<std::string>(k, name);
  return spec;
}

TEST(StarOperandMemo, RepeatExecuteHitsAndIsByteIdentical) {
  const BinaryRelation rel = CommunityGraph(3, 30, 0.5, 11);
  const IndexedRelation idx(rel);
  const TupleBuffer want = WcojStarJoin({&idx, &idx, &idx});
  QueryEngine engine;
  engine.AddRelation("R", rel);
  // Planned thresholds, and explicit ones that give a real heavy part.
  for (const Thresholds t : {Thresholds{0, 0}, Thresholds{4, 4}}) {
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(StarSpec("R", 3), &q).ok());
    for (Strategy strategy : {Strategy::kMmJoin, Strategy::kNonMmJoin}) {
      ExecOptions exec;
      exec.thresholds = t;
      exec.strategy_override = strategy;
      const std::string where = t.ToString() + "/" + StrategyName(strategy);
      const TracedStar cold = ExecuteTraced(engine, q, exec);
      const TracedStar warm = ExecuteTraced(engine, q, exec);
      if (t.delta1 != 0) {
        EXPECT_GT(cold.heavy_blocks, 0u) << where;
      }
      EXPECT_EQ(cold.fit, "cache-miss") << where;
      EXPECT_EQ(warm.fit, "cache-hit") << where;
      EXPECT_EQ(cold.tuples, want.flat()) << where;
      EXPECT_EQ(warm.tuples, cold.tuples) << where;
    }
  }
}

TEST(StarOperandMemo, EveryKeyFieldRefits) {
  const BinaryRelation rel = CommunityGraph(3, 30, 0.5, 11);
  const IndexedRelation idx(rel);
  const TupleBuffer want = WcojStarJoin({&idx, &idx, &idx});
  QueryEngine engine;
  engine.AddRelation("R", rel);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(StarSpec("R", 3), &q).ok());

  ExecOptions base;
  base.strategy_override = Strategy::kMmJoin;
  base.thresholds = {4, 4};
  ExecOptions threads = base;
  threads.threads = 3;
  ExecOptions heavy_path = base;
  heavy_path.heavy_path = HeavyPathMode::kForceCsrCsr;
  ExecOptions cap = base;
  cap.max_matrix_bytes = 64 << 10;
  ExecOptions thresholds = base;
  thresholds.thresholds = {2, 2};
  const std::pair<const char*, ExecOptions> changes[] = {
      {"threads", threads},
      {"heavy_path", heavy_path},
      {"max_matrix_bytes", cap},
      {"thresholds", thresholds},
  };
  const TracedStar first = ExecuteTraced(engine, q, base);
  ASSERT_EQ(first.fit, "cache-miss");
  ASSERT_GT(first.heavy_blocks, 0u);
  for (const auto& [field, exec] : changes) {
    const TracedStar changed = ExecuteTraced(engine, q, exec);
    EXPECT_EQ(changed.fit, "cache-miss") << field;
    EXPECT_EQ(changed.tuples, want.flat()) << field;
    EXPECT_EQ(ExecuteTraced(engine, q, exec).fit, "cache-hit") << field;
    // Back to the first key: the memo holds one slot, so this re-fits too.
    const TracedStar back = ExecuteTraced(engine, q, base);
    EXPECT_EQ(back.fit, "cache-miss") << field;
    EXPECT_EQ(back.tuples, want.flat()) << field;
  }
}

// A memoized fit under a cap that forces doubling settles where a cold fit
// at the same options does, even after a fit under a looser cap.
TEST(StarOperandMemo, SmallerCapMatchesColdFit) {
  BinaryRelation r;
  for (Value a = 0; a < 12; ++a) {
    for (Value b = 0; b < 12; ++b) r.Add(a, b);
  }
  r.Finalize();
  IndexedRelation ri(r);
  const std::vector<const IndexedRelation*> rels = {&ri, &ri};
  HeavyOperandCache cache;
  StarJoinOptions loose;
  loose.thresholds = {1, 1};
  loose.operand_cache = &cache;
  const auto first = StarRun(rels, loose);
  EXPECT_EQ(first.adjusted_thresholds, (Thresholds{1, 1}));

  StarJoinOptions tight = loose;
  tight.max_matrix_bytes = 256;  // forces threshold doubling
  const auto warm = StarRun(rels, tight);
  tight.operand_cache = nullptr;
  const auto cold = StarRun(rels, tight);
  EXPECT_GT(cold.adjusted_thresholds.delta1, 1u);
  EXPECT_EQ(warm.adjusted_thresholds, cold.adjusted_thresholds);
  EXPECT_EQ(warm.heavy_rows, cold.heavy_rows);
  EXPECT_EQ(warm.heavy_cols, cold.heavy_cols);
  EXPECT_EQ(warm.tuples.flat(), cold.tuples.flat());
  EXPECT_EQ(warm.tuples.flat(), first.tuples.flat());
}

// The memo lives in the PreparedQuery: the old query keeps answering on its
// snapshot, and a re-Prepare after the relation is replaced fits afresh.
TEST(StarOperandMemo, RePrepareSeesReplacedRelation) {
  const BinaryRelation before = CommunityGraph(3, 30, 0.5, 11);
  const BinaryRelation after = CommunityGraph(3, 30, 0.6, 29);
  const IndexedRelation before_idx(before), after_idx(after);
  const TupleBuffer want_before =
      WcojStarJoin({&before_idx, &before_idx, &before_idx});
  const TupleBuffer want_after =
      WcojStarJoin({&after_idx, &after_idx, &after_idx});
  ASSERT_NE(want_before.flat(), want_after.flat());

  QueryEngine engine;
  engine.AddRelation("R", before);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(StarSpec("R", 3), &q).ok());
  ExecOptions exec;
  exec.thresholds = {4, 4};
  EXPECT_EQ(ExecuteTraced(engine, q, exec).tuples, want_before.flat());

  engine.AddRelation("R", after);
  const TracedStar stale = ExecuteTraced(engine, q, exec);
  EXPECT_EQ(stale.fit, "cache-hit");
  EXPECT_EQ(stale.tuples, want_before.flat());

  ASSERT_TRUE(engine.Prepare(StarSpec("R", 3), &q).ok());
  const TracedStar fresh = ExecuteTraced(engine, q, exec);
  EXPECT_EQ(fresh.fit, "cache-miss");
  EXPECT_EQ(fresh.tuples, want_after.flat());
}

}  // namespace
}  // namespace jpmm
