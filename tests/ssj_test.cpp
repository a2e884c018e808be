// SSJ correctness tests: SizeAware, SizeAware++ (all flag combinations),
// SSJ through QueryEngine and the prefix-merge light phase, against a
// brute-force oracle.

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/generators.h"
#include "ssj/prefix_tree.h"
#include "ssj/size_aware.h"
#include "ssj/size_aware_pp.h"
#include "ssj/size_boundary.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::EngineSsj;
using testutil::OracleSsj;

using Instance = testutil::SetInstance;

Instance MakeInstance(uint32_t sets, uint32_t dom, uint32_t max_size,
                      double skew, uint64_t seed) {
  BipartiteSpec spec;
  spec.num_sets = sets;
  spec.dom_size = dom;
  spec.min_set_size = 1;
  spec.max_set_size = max_size;
  spec.size_skew = 0.8;
  spec.element_skew = skew;
  spec.seed = seed;
  return Instance(MakeBipartite(spec));
}

TEST(SizeBoundary, CSubsetCostBasics) {
  EXPECT_DOUBLE_EQ(CSubsetCost(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(CSubsetCost(6, 3), 20.0);
  EXPECT_DOUBLE_EQ(CSubsetCost(3, 4), 0.0);  // m < c
  EXPECT_DOUBLE_EQ(CSubsetCost(4, 1), 4.0);
}

TEST(SizeBoundary, ReturnsSaneValue) {
  Instance inst = MakeInstance(120, 80, 12, 0.7, 71);
  for (uint32_t c : {1u, 2u, 3u}) {
    const uint32_t boundary = GetSizeBoundary(inst.fam, c);
    EXPECT_GE(boundary, c + 1);
    EXPECT_LE(boundary, 14u);  // never beyond max size + 1
  }
}

TEST(SizeBoundary, AllHeavyAndAllLightAreConsistent) {
  Instance inst = MakeInstance(60, 50, 8, 0.5, 72);
  // Phases partition the work regardless of boundary choice:
  for (uint32_t boundary : {2u, 5u, 100u}) {
    SsjResult heavy = SizeAwareHeavyPhase(inst.fam, 2, boundary, 1);
    SsjResult light = SizeAwareLightPhase(inst.fam, 2, boundary, true);
    heavy.insert(heavy.end(), light.begin(), light.end());
    CanonicalizeSsj(&heavy, false);
    EXPECT_EQ(heavy, OracleSsj(inst.fam, 2, true)) << "boundary=" << boundary;
  }
}

// --------------------------------------------------------------------------
struct SsjParam {
  uint32_t sets, dom, max_size;
  double skew;
  uint32_t c;
  uint64_t seed;
};

class SsjSweep : public ::testing::TestWithParam<SsjParam> {};

TEST_P(SsjSweep, SizeAwareMatchesOracle) {
  const SsjParam p = GetParam();
  Instance inst = MakeInstance(p.sets, p.dom, p.max_size, p.skew, p.seed);
  SsjOptions opts;
  opts.c = p.c;
  EXPECT_EQ(SizeAwareJoin(inst.fam, opts), OracleSsj(inst.fam, p.c, false));
}

TEST_P(SsjSweep, SizeAwarePlusPlusMatchesOracle) {
  const SsjParam p = GetParam();
  Instance inst = MakeInstance(p.sets, p.dom, p.max_size, p.skew, p.seed + 1);
  SsjOptions opts;
  opts.c = p.c;
  EXPECT_EQ(SizeAwarePlusPlus(inst.fam, opts),
            OracleSsj(inst.fam, p.c, false));
}

TEST_P(SsjSweep, EngineSsjMatchesOracle) {
  const SsjParam p = GetParam();
  Instance inst = MakeInstance(p.sets, p.dom, p.max_size, p.skew, p.seed + 2);
  SsjOptions opts;
  opts.c = p.c;
  EXPECT_EQ(EngineSsj(inst.rel, opts), OracleSsj(inst.fam, p.c, false));
}

TEST_P(SsjSweep, AllThreeAlgorithmsAgree) {
  const SsjParam p = GetParam();
  Instance inst = MakeInstance(p.sets, p.dom, p.max_size, p.skew, p.seed + 3);
  SsjOptions opts;
  opts.c = p.c;
  const SsjResult a = SizeAwareJoin(inst.fam, opts);
  const SsjResult b = SizeAwarePlusPlus(inst.fam, opts);
  const SsjResult m = EngineSsj(inst.rel, opts);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, m);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsjSweep,
    ::testing::Values(SsjParam{60, 40, 8, 0.5, 1, 81},
                      SsjParam{60, 40, 8, 0.5, 2, 82},
                      SsjParam{60, 40, 8, 0.5, 3, 83},
                      SsjParam{80, 30, 10, 1.2, 2, 84},   // skewed elements
                      SsjParam{50, 25, 12, 0.2, 4, 85},   // larger overlap
                      SsjParam{100, 60, 6, 0.9, 2, 86},   // many small sets
                      SsjParam{30, 20, 15, 0.3, 5, 87})); // dense-ish

// --------------------------------------------------------------------------

TEST(SizeAwarePP, FlagCombinationsAllCorrect) {
  Instance inst = MakeInstance(70, 40, 10, 0.8, 91);
  const SsjResult oracle = OracleSsj(inst.fam, 2, false);
  for (int mask = 0; mask < 8; ++mask) {
    SsjOptions opts;
    opts.c = 2;
    opts.use_mm_heavy = mask & 1;
    opts.use_mm_light = mask & 2;
    opts.use_prefix = mask & 4;
    EXPECT_EQ(SizeAwarePlusPlus(inst.fam, opts), oracle) << "mask=" << mask;
  }
}

TEST(SizeAwarePP, ThreadsDoNotChangeResult) {
  Instance inst = MakeInstance(80, 50, 10, 0.9, 92);
  SsjOptions opts;
  opts.c = 2;
  const SsjResult ref = SizeAwarePlusPlus(inst.fam, opts);
  opts.threads = 4;
  EXPECT_EQ(SizeAwarePlusPlus(inst.fam, opts), ref);
}

TEST(OrderedSsj, SortedByOverlapWithExactCounts) {
  Instance inst = MakeInstance(60, 30, 10, 0.7, 93);
  SsjOptions opts;
  opts.c = 2;
  opts.ordered = true;
  for (const SsjResult& res :
       {EngineSsj(inst.rel, opts), SizeAwareJoin(inst.fam, opts),
        SizeAwarePlusPlus(inst.fam, opts)}) {
    // Non-increasing overlaps.
    for (size_t i = 1; i < res.size(); ++i) {
      EXPECT_GE(res[i - 1].overlap, res[i].overlap);
    }
    // Same multiset of (pair, overlap) as the oracle.
    SsjResult sorted = res;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, OracleSsj(inst.fam, 2, true));
  }
}

TEST(PrefixMerge, MatchesClassicLightPhase) {
  Instance inst = MakeInstance(90, 50, 9, 1.0, 94);
  for (uint32_t c : {2u, 3u}) {
    const uint32_t boundary = GetSizeBoundary(inst.fam, c);
    SsjResult classic =
        SizeAwareLightPhase(inst.fam, c, boundary, /*compute_overlap=*/true);
    SsjResult prefix = PrefixMergeLightPhase(inst.fam, c, boundary, 64);
    CanonicalizeSsj(&classic, false);
    CanonicalizeSsj(&prefix, false);
    EXPECT_EQ(classic, prefix) << "c=" << c;
  }
}

TEST(PrefixMerge, MemoDepthZeroDisablesReuseButStaysCorrect) {
  Instance inst = MakeInstance(70, 35, 8, 0.9, 95);
  const uint32_t boundary = 100;  // everything light
  PrefixMergeStats with_memo, without_memo;
  SsjResult a =
      PrefixMergeLightPhase(inst.fam, 2, boundary, 64, &with_memo);
  SsjResult b =
      PrefixMergeLightPhase(inst.fam, 2, boundary, 0, &without_memo);
  CanonicalizeSsj(&a, false);
  CanonicalizeSsj(&b, false);
  EXPECT_EQ(a, b);
  EXPECT_GT(with_memo.merges_reused, 0u);
  EXPECT_EQ(without_memo.merges_reused, 0u);
  EXPECT_LT(with_memo.merges_done, without_memo.merges_done);
}

TEST(EngineSsj, NonMmStrategyAgrees) {
  Instance inst = MakeInstance(60, 30, 10, 0.8, 96);
  SsjOptions opts;
  opts.c = 2;
  EXPECT_EQ(EngineSsj(inst.rel, opts, Strategy::kAuto),
            EngineSsj(inst.rel, opts, Strategy::kNonMmJoin));
}

TEST(Ssj, C1EqualsPlainJoinProjectPairs) {
  Instance inst = MakeInstance(40, 25, 8, 0.6, 97);
  SsjOptions opts;
  opts.c = 1;
  EXPECT_EQ(EngineSsj(inst.rel, opts), OracleSsj(inst.fam, 1, false));
}

TEST(Ssj, NoPairsWhenThresholdExceedsSetSizes) {
  Instance inst = MakeInstance(40, 40, 4, 0.5, 98);
  SsjOptions opts;
  opts.c = 10;
  EXPECT_TRUE(SizeAwareJoin(inst.fam, opts).empty());
  EXPECT_TRUE(SizeAwarePlusPlus(inst.fam, opts).empty());
  EXPECT_TRUE(EngineSsj(inst.rel, opts).empty());
}

TEST(Ssj, DuplicateSetsPairWithFullOverlap) {
  BinaryRelation rel;
  for (Value e : {0u, 1u, 2u}) {
    rel.Add(0, e);
    rel.Add(1, e);
  }
  rel.Finalize();
  SsjOptions opts;
  opts.c = 3;
  opts.ordered = true;
  const SsjResult res = EngineSsj(rel, opts);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0], (SimilarPair{0, 1, 3}));
}

}  // namespace
}  // namespace jpmm
