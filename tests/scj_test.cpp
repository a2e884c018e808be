// SCJ correctness tests: PRETTI, LIMIT+, PIEJoin and SCJ through QueryEngine
// against a brute-force oracle, plus pairwise agreement sweeps.

#include <gtest/gtest.h>

#include "common/stamp_set.h"
#include "datagen/generators.h"
#include "scj/limit_plus.h"
#include "scj/piejoin.h"
#include "scj/pretti.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::EngineScj;
using testutil::OracleScj;

using Instance = testutil::SetInstance;

// Families with real containment structure: supersets are generated first,
// then random subsets of them, then noise sets.
Instance ContainmentInstance(uint32_t supersets, uint32_t subsets_per,
                             uint32_t dom, uint32_t super_size,
                             uint64_t seed) {
  Rng rng(seed);
  BinaryRelation rel;
  Value next_set = 0;
  std::vector<std::vector<Value>> supers;
  for (uint32_t i = 0; i < supersets; ++i) {
    std::vector<Value> elems;
    StampSet in_set(dom);
    while (elems.size() < super_size) {
      const auto e = static_cast<Value>(rng.NextBounded(dom));
      if (in_set.Insert(e)) elems.push_back(e);
    }
    for (Value e : elems) rel.Add(next_set, e);
    supers.push_back(elems);
    ++next_set;
  }
  for (const auto& sup : supers) {
    for (uint32_t j = 0; j < subsets_per; ++j) {
      const uint64_t size = 1 + rng.NextBounded(sup.size());
      // Random distinct positions.
      std::vector<Value> pool = sup;
      for (uint64_t t = 0; t < size; ++t) {
        const uint64_t pick = t + rng.NextBounded(pool.size() - t);
        std::swap(pool[t], pool[pick]);
        rel.Add(next_set, pool[t]);
      }
      ++next_set;
    }
  }
  // Noise sets.
  for (uint32_t i = 0; i < supersets * 2; ++i) {
    const uint64_t size = 1 + rng.NextBounded(6);
    StampSet in_set(dom);
    for (uint64_t t = 0; t < size; ++t) {
      const auto e = static_cast<Value>(rng.NextBounded(dom));
      if (in_set.Insert(e)) rel.Add(next_set, e);
    }
    ++next_set;
  }
  rel.Finalize();
  return Instance(std::move(rel));
}

struct ScjParam {
  uint32_t supersets, subsets_per, dom, super_size;
  uint64_t seed;
};

class ScjSweep : public ::testing::TestWithParam<ScjParam> {};

TEST_P(ScjSweep, PrettiMatchesOracle) {
  const ScjParam p = GetParam();
  Instance inst = ContainmentInstance(p.supersets, p.subsets_per, p.dom,
                                      p.super_size, p.seed);
  EXPECT_EQ(PrettiJoin(inst.fam), OracleScj(inst.fam));
}

TEST_P(ScjSweep, LimitPlusMatchesOracle) {
  const ScjParam p = GetParam();
  Instance inst = ContainmentInstance(p.supersets, p.subsets_per, p.dom,
                                      p.super_size, p.seed + 1);
  EXPECT_EQ(LimitPlusJoin(inst.fam), OracleScj(inst.fam));
}

TEST_P(ScjSweep, PieJoinMatchesOracle) {
  const ScjParam p = GetParam();
  Instance inst = ContainmentInstance(p.supersets, p.subsets_per, p.dom,
                                      p.super_size, p.seed + 2);
  EXPECT_EQ(PieJoin(inst.fam), OracleScj(inst.fam));
}

TEST_P(ScjSweep, EngineScjMatchesOracle) {
  const ScjParam p = GetParam();
  Instance inst = ContainmentInstance(p.supersets, p.subsets_per, p.dom,
                                      p.super_size, p.seed + 3);
  EXPECT_EQ(EngineScj(inst.rel), OracleScj(inst.fam));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScjSweep,
    ::testing::Values(ScjParam{5, 4, 50, 10, 301},
                      ScjParam{8, 3, 30, 8, 302},   // denser overlap
                      ScjParam{3, 10, 80, 15, 303}, // many subsets
                      ScjParam{10, 2, 200, 6, 304}, // sparse
                      ScjParam{4, 5, 25, 12, 305}));

TEST(Scj, AllFourAgreeOnSkewedFamily) {
  BipartiteSpec spec;
  spec.num_sets = 80;
  spec.dom_size = 40;
  spec.min_set_size = 1;
  spec.max_set_size = 10;
  spec.size_skew = 1.0;
  spec.element_skew = 1.0;
  spec.seed = 311;
  Instance inst{MakeBipartite(spec)};
  const ScjResult oracle = OracleScj(inst.fam);
  EXPECT_EQ(PrettiJoin(inst.fam), oracle);
  EXPECT_EQ(LimitPlusJoin(inst.fam), oracle);
  EXPECT_EQ(PieJoin(inst.fam), oracle);
  EXPECT_EQ(EngineScj(inst.rel), oracle);
}

TEST(Scj, ThreadsDoNotChangeParallelAlgorithms) {
  Instance inst = ContainmentInstance(6, 5, 60, 10, 321);
  const ScjResult oracle = OracleScj(inst.fam);
  for (int threads : {2, 4}) {
    ScjOptions opts;
    opts.threads = threads;
    EXPECT_EQ(LimitPlusJoin(inst.fam, opts), oracle);
    EXPECT_EQ(PieJoin(inst.fam, opts), oracle);
    EXPECT_EQ(EngineScj(inst.rel, opts), oracle);
  }
}

TEST(Scj, EqualSetsContainEachOther) {
  BinaryRelation rel;
  for (Value e : {3u, 5u}) {
    rel.Add(0, e);
    rel.Add(1, e);
  }
  rel.Finalize();
  Instance inst(std::move(rel));
  const ScjResult expected = {{0, 1}, {1, 0}};
  EXPECT_EQ(PrettiJoin(inst.fam), expected);
  EXPECT_EQ(LimitPlusJoin(inst.fam), expected);
  EXPECT_EQ(PieJoin(inst.fam), expected);
  EXPECT_EQ(EngineScj(inst.rel), expected);
}

TEST(Scj, SingletonChain) {
  // {0} subset {0,1} subset {0,1,2}.
  BinaryRelation rel;
  rel.Add(0, 0);
  rel.Add(1, 0);
  rel.Add(1, 1);
  rel.Add(2, 0);
  rel.Add(2, 1);
  rel.Add(2, 2);
  rel.Finalize();
  Instance inst(std::move(rel));
  const ScjResult expected = {{0, 1}, {0, 2}, {1, 2}};
  EXPECT_EQ(PrettiJoin(inst.fam), expected);
  EXPECT_EQ(LimitPlusJoin(inst.fam), expected);
  EXPECT_EQ(PieJoin(inst.fam), expected);
  EXPECT_EQ(EngineScj(inst.rel), expected);
}

TEST(Scj, NoContainments) {
  // Pairwise-disjoint sets.
  BinaryRelation rel;
  rel.Add(0, 0);
  rel.Add(1, 1);
  rel.Add(2, 2);
  rel.Finalize();
  Instance inst(std::move(rel));
  EXPECT_TRUE(PrettiJoin(inst.fam).empty());
  EXPECT_TRUE(LimitPlusJoin(inst.fam).empty());
  EXPECT_TRUE(PieJoin(inst.fam).empty());
  EXPECT_TRUE(EngineScj(inst.rel).empty());
}

TEST(Scj, LimitParameterVariants) {
  Instance inst = ContainmentInstance(5, 4, 40, 8, 331);
  const ScjResult oracle = OracleScj(inst.fam);
  for (uint32_t limit : {1u, 2u, 3u, 10u}) {
    ScjOptions opts;
    opts.limit = limit;
    EXPECT_EQ(LimitPlusJoin(inst.fam, opts), oracle) << "limit=" << limit;
  }
}

TEST(Scj, EngineScjNonMmStrategyAgrees) {
  Instance inst = ContainmentInstance(5, 5, 50, 9, 341);
  EXPECT_EQ(EngineScj(inst.rel, {}, Strategy::kAuto),
            EngineScj(inst.rel, {}, Strategy::kNonMmJoin));
}

}  // namespace
}  // namespace jpmm
