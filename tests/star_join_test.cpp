// Tests for the star-join MMJoin (§3.2) and its combinatorial comparator.

#include <gtest/gtest.h>

#include "core/query_engine.h"
#include "core/star_join.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::OracleStar;
using testutil::RandomRelation;
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
};

class StarSweep : public ::testing::TestWithParam<StarParam> {};

TEST_P(StarSweep, MmStarMatchesOracle) {
  const StarParam p = GetParam();
  StarFixture f(p.k, p.nx, p.ny, p.tuples, p.skew, 200);
  StarJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  auto res = MmStarJoin(f.idx_ptrs, opts);
  EXPECT_EQ(ToVectors(res.tuples), OracleStar(f.rel_ptrs));
}

TEST_P(StarSweep, NonMmStarMatchesOracle) {
  const StarParam p = GetParam();
  StarFixture f(p.k, p.nx, p.ny, p.tuples, p.skew, 300);
  StarJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  auto res = NonMmStarJoin(f.idx_ptrs, opts);
  EXPECT_EQ(ToVectors(res.tuples), OracleStar(f.rel_ptrs));
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
        StarParam{5, 8, 6, 24, 0.5, 1, 1, 1}));

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
  auto res = MmStarJoin({&ri, &ri, &ri}, opts);
  EXPECT_GT(res.v_rows, 0u);
  EXPECT_GT(res.w_rows, 0u);
  EXPECT_GT(res.heavy_y, 0u);
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
  auto res = MmStarJoin({&ri, &ri}, opts);
  EXPECT_GT(res.adjusted_thresholds.delta1, 1u);
  EXPECT_EQ(res.tuples.size(), 12u * 12);
}

TEST(StarJoin, DifferentRelationsPerPosition) {
  StarFixture f(3, 14, 10, 50, 1.0, 400);
  StarJoinOptions opts;
  opts.thresholds = {2, 3};
  auto mm = MmStarJoin(f.idx_ptrs, opts);
  auto nonmm = NonMmStarJoin(f.idx_ptrs, opts);
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
  auto res = MmStarJoin({&ai, &bi}, opts);
  EXPECT_EQ(res.tuples.size(), 0u);
}

TEST(StarJoin, K2AgreesWithTwoPathSemantics) {
  StarFixture f(2, 25, 18, 120, 1.1, 500);
  StarJoinOptions opts;
  opts.thresholds = {2, 2};
  auto res = MmStarJoin(f.idx_ptrs, opts);
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

}  // namespace
}  // namespace jpmm
