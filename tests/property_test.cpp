// Randomized property suite: many seeds, every engine against the oracle,
// plus structural invariants (dedup-free output, witness-count consistency,
// Lemma-bound sanity).

#include <gtest/gtest.h>

#include <set>

#include "core/join_project.h"
#include "core/star_join.h"
#include "core/mm_join.h"
#include "datagen/generators.h"
#include "join/star_wcoj.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::EngineTwoPath;
using testutil::MmRun;
using testutil::OracleTwoPath;
using testutil::OracleTwoPathCounted;
using testutil::RandomRelation;
using testutil::TwoPathSpec;

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, AllTwoPathStrategiesMatchOracle) {
  const uint64_t seed = GetParam();
  // Vary shape with the seed: size, skew and density all change.
  const uint32_t nx = 20 + static_cast<uint32_t>(seed % 7) * 13;
  const uint32_t ny = 15 + static_cast<uint32_t>(seed % 5) * 11;
  const uint32_t tuples = nx * (3 + static_cast<uint32_t>(seed % 4) * 4);
  const double skew = 0.3 * static_cast<double>(seed % 5);
  BinaryRelation r = RandomRelation(nx, ny, tuples, skew, seed);
  BinaryRelation s = RandomRelation(nx + 3, ny, tuples, skew, seed ^ 0xff);
  const auto oracle = OracleTwoPath(r, s);

  for (Strategy strat :
       {Strategy::kMmJoin, Strategy::kNonMmJoin, Strategy::kWcojFull}) {
    EXPECT_EQ(EngineTwoPath(r, s, TwoPathSpec(strat)).pairs, oracle)
        << "seed=" << seed << " strategy=" << StrategyName(strat);
  }
}

TEST_P(SeedSweep, CountsAreConsistentAcrossStrategies) {
  const uint64_t seed = GetParam();
  BinaryRelation r = RandomRelation(40, 25, 300, 0.9, seed * 31 + 7);
  const auto oracle = OracleTwoPathCounted(r, r);
  for (Strategy strat :
       {Strategy::kMmJoin, Strategy::kNonMmJoin, Strategy::kWcojFull}) {
    QuerySpec spec = TwoPathSpec(strat);
    spec.count_witnesses = true;
    EXPECT_EQ(EngineTwoPath(r, r, spec).counted, oracle)
        << "seed=" << seed << " strategy=" << StrategyName(strat);
  }
}

TEST_P(SeedSweep, SumOfCountsEqualsFullJoinSize) {
  // Invariant: the witness counts of all output pairs sum to |OUT_join|.
  const uint64_t seed = GetParam();
  BinaryRelation r = RandomRelation(35, 20, 250, 1.1, seed * 17 + 3);
  QuerySpec spec = TwoPathSpec();
  spec.count_witnesses = true;
  const auto out = EngineTwoPath(r, r, spec);
  uint64_t total = 0;
  for (const CountedPair& p : out.counted) total += p.count;
  EXPECT_EQ(total, out.plan.full_join_size) << "seed=" << seed;
}

TEST_P(SeedSweep, OutputIsDuplicateFree) {
  const uint64_t seed = GetParam();
  BinaryRelation r = RandomRelation(50, 30, 400, 1.3, seed * 13 + 1);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {2 + seed % 5, 2 + seed % 7};
  auto res = MmRun(ri, ri, opts);
  std::set<std::pair<Value, Value>> seen;
  for (const OutPair& p : res.pairs) {
    EXPECT_TRUE(seen.insert({p.x, p.z}).second)
        << "duplicate (" << p.x << "," << p.z << ") seed=" << seed;
  }
}

TEST_P(SeedSweep, StarMatchesWcojAtRandomThresholds) {
  const uint64_t seed = GetParam();
  BinaryRelation r = RandomRelation(16, 12, 64, 0.8, seed * 7 + 5);
  IndexedRelation ri(r);
  std::vector<const IndexedRelation*> rels = {&ri, &ri, &ri};
  StarJoinOptions opts;
  opts.thresholds = {1 + seed % 4, 1 + seed % 6};
  auto mm = testutil::StarRun(rels, opts);
  auto nonmm = testutil::NonMmStarRun(rels, opts);
  auto wcoj = WcojStarJoin(rels);
  EXPECT_EQ(mm.tuples.flat(), wcoj.flat()) << "seed=" << seed;
  EXPECT_EQ(nonmm.tuples.flat(), wcoj.flat()) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16, 17, 18, 19,
                                           20));

TEST(Property, ThresholdExtremesMatchEachOther) {
  // Delta = 1 (everything heavy) and Delta = N (everything light) are both
  // correct and equal.
  BinaryRelation r = RandomRelation(60, 35, 600, 1.0, 777);
  IndexedRelation ri(r);
  MmJoinOptions all_heavy;
  all_heavy.thresholds = {1, 1};
  MmJoinOptions all_light;
  all_light.thresholds = {100000, 100000};
  EXPECT_EQ(MmRun(ri, ri, all_heavy).pairs,
            MmRun(ri, ri, all_light).pairs);
}

TEST(Property, AsymmetricRelationsOfVeryDifferentSizes) {
  BinaryRelation small = RandomRelation(5, 40, 30, 0.5, 801);
  BinaryRelation large = RandomRelation(300, 40, 3000, 1.2, 802);
  const QuerySpec spec = TwoPathSpec(Strategy::kMmJoin);
  EXPECT_EQ(EngineTwoPath(small, large, spec).pairs,
            OracleTwoPath(small, large));
  EXPECT_EQ(EngineTwoPath(large, small, spec).pairs,
            OracleTwoPath(large, small));
}

TEST(Property, SingleHubRelation) {
  // One y value connected to everything: maximal heavy skew.
  BinaryRelation r;
  for (Value a = 0; a < 50; ++a) r.Add(a, 0);
  r.Add(0, 1);  // plus one light edge
  r.Finalize();
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {2, 2};
  auto res = MmRun(ri, ri, opts);
  EXPECT_EQ(res.pairs.size(), 50u * 50u);  // complete bipartite pairs
}

TEST(Property, ChainRelationHasNoHeavyPart) {
  // Path graph: every degree is 1 or 2; with thresholds 2,2 there is no
  // heavy part at all.
  BinaryRelation r;
  for (Value i = 0; i < 100; ++i) r.Add(i, i);
  r.Finalize();
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {2, 2};
  auto res = MmRun(ri, ri, opts);
  EXPECT_EQ(res.heavy_rows, 0u);
  EXPECT_EQ(res.pairs.size(), 100u);  // only reflexive pairs
}

}  // namespace
}  // namespace jpmm
