// Unit tests for src/join: intersection kernels, full-join baselines, star
// WCOJ enumeration, TupleBuffer.

#include <gtest/gtest.h>

#include <vector>

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
using testutil::RandomRelation;
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

}  // namespace
}  // namespace jpmm
