// Unit tests for src/storage: relations, CSR indexes, degree statistics,
// loader, set family, catalog.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "storage/catalog.h"
#include "storage/index.h"
#include "storage/loader.h"
#include "storage/relation.h"
#include "storage/set_family.h"
#include "storage/stats.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

BinaryRelation SmallRel() {
  BinaryRelation r;
  r.Add(0, 1);
  r.Add(0, 2);
  r.Add(2, 1);
  r.Add(2, 1);  // duplicate
  r.Add(5, 0);
  r.Finalize();
  return r;
}

TEST(BinaryRelation, FinalizeDeduplicatesAndSorts) {
  BinaryRelation r = SmallRel();
  EXPECT_EQ(r.size(), 4u);
  EXPECT_TRUE(std::is_sorted(r.tuples().begin(), r.tuples().end()));
}

TEST(BinaryRelation, DomainsAndDistincts) {
  BinaryRelation r = SmallRel();
  EXPECT_EQ(r.num_x(), 6u);
  EXPECT_EQ(r.num_y(), 3u);
  EXPECT_EQ(r.distinct_x(), 3u);  // 0, 2, 5
  EXPECT_EQ(r.distinct_y(), 3u);  // 0, 1, 2
}

TEST(BinaryRelation, EmptyRelation) {
  BinaryRelation r;
  r.Finalize();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.num_x(), 0u);
  EXPECT_EQ(r.distinct_x(), 0u);
}

TEST(BinaryRelation, ReversedSwapsColumns) {
  BinaryRelation r = SmallRel();
  BinaryRelation rev = r.Reversed();
  EXPECT_EQ(rev.size(), r.size());
  EXPECT_EQ(rev.num_x(), r.num_y());
  EXPECT_EQ(rev.num_y(), r.num_x());
  for (const Tuple& t : rev.tuples()) {
    BinaryRelation back;
    back.Add(t.y, t.x);
    back.Finalize();
    EXPECT_TRUE(std::binary_search(r.tuples().begin(), r.tuples().end(),
                                   back.tuples()[0]));
  }
}

TEST(IndexedRelation, AdjacencyAndDegrees) {
  BinaryRelation r = SmallRel();
  IndexedRelation idx(r);
  EXPECT_EQ(idx.num_tuples(), 4u);
  EXPECT_EQ(idx.DegX(0), 2u);
  EXPECT_EQ(idx.DegX(1), 0u);
  EXPECT_EQ(idx.DegX(2), 1u);
  EXPECT_EQ(idx.DegY(1), 2u);
  ASSERT_EQ(idx.YsOf(0).size(), 2u);
  EXPECT_EQ(idx.YsOf(0)[0], 1u);
  EXPECT_EQ(idx.YsOf(0)[1], 2u);
  ASSERT_EQ(idx.XsOf(1).size(), 2u);
  EXPECT_EQ(idx.XsOf(1)[0], 0u);
  EXPECT_EQ(idx.XsOf(1)[1], 2u);
}

TEST(IndexedRelation, OutOfRangeSpansAreEmpty) {
  IndexedRelation idx(SmallRel());
  EXPECT_TRUE(idx.YsOf(999).empty());
  EXPECT_TRUE(idx.XsOf(999).empty());
  EXPECT_EQ(idx.DegX(999), 0u);
}

TEST(IndexedRelation, ContainsBinarySearch) {
  IndexedRelation idx(SmallRel());
  EXPECT_TRUE(idx.Contains(0, 1));
  EXPECT_TRUE(idx.Contains(5, 0));
  EXPECT_FALSE(idx.Contains(0, 0));
  EXPECT_FALSE(idx.Contains(1, 1));
}

TEST(IndexedRelation, ToTuplesRoundTrip) {
  BinaryRelation r = testutil::RandomRelation(50, 40, 300, 0.5, 77);
  IndexedRelation idx(r);
  EXPECT_EQ(idx.ToTuples(), r.tuples());
}

TEST(IndexedRelation, AdjacencyListsAreSorted) {
  BinaryRelation r = testutil::RandomRelation(60, 60, 500, 1.0, 5);
  IndexedRelation idx(r);
  for (Value a = 0; a < idx.num_x(); ++a) {
    const auto ys = idx.YsOf(a);
    EXPECT_TRUE(std::is_sorted(ys.begin(), ys.end()));
  }
  for (Value b = 0; b < idx.num_y(); ++b) {
    const auto xs = idx.XsOf(b);
    EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
  }
}

// Every tuple's twin position points back at its x inside its y's x list,
// and the suffix read from it is exactly that list's x's from the tuple's
// x on. Covers x's and y's with no tuples, a single tuple, a hub y that
// every x joins and a random relation.
TEST(IndexedRelation, TwinPositionsPointBack) {
  BinaryRelation gaps;  // no tuples at x 1, 3-5 or at y 0, 2, 4-6
  gaps.Add(0, 3);
  gaps.Add(2, 1);
  gaps.Add(2, 3);
  gaps.Add(6, 1);
  gaps.Add(6, 7);
  gaps.Finalize();
  BinaryRelation single;
  single.Add(4, 9);
  single.Finalize();
  BinaryRelation hub = testutil::RandomRelation(90, 30, 400, 1.0, 19);
  for (Value x = 0; x < 90; ++x) hub.Add(x, 30);
  hub.Finalize();
  BinaryRelation random = testutil::RandomRelation(300, 200, 2500, 0.7, 23);
  for (const BinaryRelation* rel : {&gaps, &single, &hub, &random}) {
    const IndexedRelation idx(*rel);
    ASSERT_EQ(idx.XBegin(idx.num_x()), idx.num_tuples());
    for (Value a = 0; a < idx.num_x(); ++a) {
      const auto ys = idx.YsOf(a);
      ASSERT_EQ(idx.XBegin(a + 1) - idx.XBegin(a), ys.size()) << a;
      for (size_t k = 0; k < ys.size(); ++k) {
        const auto xs = idx.XsOf(ys[k]);
        const auto suffix =
            idx.XsFromTwin(idx.XBegin(a) + static_cast<uint32_t>(k));
        ASSERT_FALSE(suffix.empty()) << a << "," << ys[k];
        EXPECT_EQ(suffix[0], a);
        EXPECT_GE(suffix.data(), xs.data());
        EXPECT_EQ(suffix.data() + suffix.size(), xs.data() + xs.size());
        std::vector<Value> want;
        for (Value x : xs) {
          if (x >= a) want.push_back(x);
        }
        EXPECT_EQ(std::vector<Value>(suffix.begin(), suffix.end()), want)
            << a << "," << ys[k];
      }
    }
  }
}

// Offsets of both directions plus 12 bytes a tuple: its y, its x and its
// twin position.
TEST(IndexedRelation, BytesCountOffsetsAndTwelvePerTuple) {
  const IndexedRelation idx(SmallRel());
  EXPECT_EQ(idx.Bytes(), 4 * (idx.num_x() + 1 + idx.num_y() + 1) +
                             12 * idx.num_tuples());
  EXPECT_EQ(IndexedRelation().Bytes(), 0u);
}

TEST(SemijoinReduce, DropsDanglingTuples) {
  BinaryRelation r, s;
  r.Add(0, 1);
  r.Add(1, 2);  // y=2 absent from s => dropped from r
  r.Finalize();
  s.Add(7, 1);
  s.Add(8, 9);  // y=9 absent from r => dropped from s
  s.Finalize();
  SemijoinReduce(&r, &s);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(r.tuples()[0], (Tuple{0, 1}));
  EXPECT_EQ(s.tuples()[0], (Tuple{7, 1}));
}

TEST(DegreeCdf, CountsAndWeights) {
  // degrees: 1, 2, 2, 5 with weights 10, 20, 30, 40.
  DegreeCdf cdf({1, 2, 2, 5}, {10, 20, 30, 40});
  EXPECT_EQ(cdf.CountAtMost(0), 0u);
  EXPECT_EQ(cdf.CountAtMost(1), 1u);
  EXPECT_EQ(cdf.CountAtMost(2), 3u);
  EXPECT_EQ(cdf.CountAtMost(4), 3u);
  EXPECT_EQ(cdf.CountAtMost(5), 4u);
  EXPECT_EQ(cdf.CountAtMost(100), 4u);
  EXPECT_DOUBLE_EQ(cdf.WeightAtMost(2), 60.0);
  EXPECT_DOUBLE_EQ(cdf.total_weight(), 100.0);
  EXPECT_EQ(cdf.total_count(), 4u);
}

TEST(DegreeCdf, SkipsZeroDegrees) {
  DegreeCdf cdf({0, 3, 0}, {99, 7, 99});
  EXPECT_EQ(cdf.total_count(), 1u);
  EXPECT_DOUBLE_EQ(cdf.total_weight(), 7.0);
}

TEST(TwoPathStats, FullJoinSizeMatchesBruteForce) {
  BinaryRelation r = testutil::RandomRelation(40, 30, 200, 0.8, 3);
  BinaryRelation s = testutil::RandomRelation(35, 30, 180, 0.8, 4);
  IndexedRelation ri(r), si(s);
  TwoPathStats stats(ri, si);
  uint64_t expected = 0;
  for (const Tuple& rt : r.tuples()) {
    for (const Tuple& st : s.tuples()) {
      if (rt.y == st.y) ++expected;
    }
  }
  EXPECT_EQ(stats.full_join_size(), expected);
}

TEST(TwoPathStats, SumIndexesMatchDirectComputation) {
  BinaryRelation r = testutil::RandomRelation(40, 30, 250, 1.0, 9);
  IndexedRelation ri(r);
  TwoPathStats stats(ri, ri);  // self join
  for (uint64_t delta : {1ull, 2ull, 4ull, 100ull}) {
    double sum_y = 0;
    for (Value b = 0; b < ri.num_y(); ++b) {
      if (ri.DegY(b) > 0 && ri.DegY(b) <= delta) {
        sum_y += static_cast<double>(ri.DegY(b)) * ri.DegY(b);
      }
    }
    EXPECT_DOUBLE_EQ(stats.SumYAtMost(delta), sum_y) << "delta=" << delta;

    double sum_x = 0;
    for (Value a = 0; a < ri.num_x(); ++a) {
      if (ri.DegX(a) == 0 || ri.DegX(a) > delta) continue;
      for (Value b : ri.YsOf(a)) sum_x += ri.DegY(b);
    }
    EXPECT_DOUBLE_EQ(stats.SumXAtMost(delta), sum_x) << "delta=" << delta;
  }
}

TEST(TwoPathStats, CountIndexes) {
  BinaryRelation r;
  // x=0 has degree 3, x=1 degree 1.
  r.Add(0, 0);
  r.Add(0, 1);
  r.Add(0, 2);
  r.Add(1, 0);
  r.Finalize();
  IndexedRelation ri(r);
  TwoPathStats stats(ri, ri);
  EXPECT_EQ(stats.CountXAtMost(1), 1u);
  EXPECT_EQ(stats.CountXAtMost(3), 2u);
  EXPECT_EQ(stats.distinct_x(), 2u);
  // y degrees: 2, 1, 1.
  EXPECT_EQ(stats.CountYAtMost(1), 2u);
  EXPECT_EQ(stats.CountYAtMost(2), 3u);
}

TEST(Loader, ParsesEdgesSkipsCommentsAndBlanks) {
  const std::string text = "# comment\n1 2\n\n  \n% other comment\n3\t4\n1 2\n";
  std::string error;
  auto rel = ParseEdgeList(text, &error);
  ASSERT_TRUE(rel.has_value()) << error;
  EXPECT_EQ(rel->size(), 2u);  // duplicate 1 2 removed
}

TEST(Loader, RejectsMalformedLine) {
  std::string error;
  EXPECT_FALSE(ParseEdgeList("1 2\nfoo bar\n", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(ParseEdgeList("1\n", &error).has_value());
  EXPECT_FALSE(ParseEdgeList("1 2 3\n", &error).has_value());
}

TEST(Loader, MissingFileFailsGracefully) {
  std::string error;
  EXPECT_FALSE(LoadEdgeList("/nonexistent/path/edges.txt", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Loader, SaveLoadRoundTrip) {
  BinaryRelation r = testutil::RandomRelation(20, 20, 60, 0.5, 17);
  const std::string path = ::testing::TempDir() + "/jpmm_loader_rt.txt";
  ASSERT_TRUE(SaveEdgeList(r, path));
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->tuples(), r.tuples());
  std::remove(path.c_str());
}

TEST(SetFamily, ElementsAndInvertedLists) {
  BinaryRelation r;
  r.Add(0, 5);
  r.Add(0, 7);
  r.Add(1, 5);
  r.Finalize();
  IndexedRelation idx(r);
  SetFamily fam(idx);
  EXPECT_EQ(fam.SetSize(0), 2u);
  EXPECT_EQ(fam.SetSize(1), 1u);
  EXPECT_EQ(fam.ListSize(5), 2u);
  EXPECT_TRUE(fam.Contains(0, 7));
  EXPECT_FALSE(fam.Contains(1, 7));
  EXPECT_EQ(fam.NonEmptySets(), (std::vector<Value>{0, 1}));
}

TEST(SetFamily, StatsMatchTable2Columns) {
  BinaryRelation r;
  r.Add(0, 0);
  r.Add(0, 1);
  r.Add(0, 2);
  r.Add(2, 1);
  r.Finalize();
  IndexedRelation idx(r);
  SetFamily fam(idx);
  const SetFamilyStats st = fam.Stats();
  EXPECT_EQ(st.num_tuples, 4u);
  EXPECT_EQ(st.num_sets, 2u);
  EXPECT_EQ(st.dom_size, 3u);
  EXPECT_EQ(st.min_set_size, 1u);
  EXPECT_EQ(st.max_set_size, 3u);
  EXPECT_DOUBLE_EQ(st.avg_set_size, 2.0);
  EXPECT_FALSE(st.ToString().empty());
}

TEST(Catalog, PutGetIndexNames) {
  Catalog cat;
  cat.Put("r", SmallRel());
  EXPECT_TRUE(cat.Has("r"));
  EXPECT_FALSE(cat.Has("s"));
  EXPECT_EQ(cat.Get("r").size(), 4u);
  const IndexedRelation& idx = cat.Index("r");
  EXPECT_EQ(idx.num_tuples(), 4u);
  // Memoized: same object on second call.
  EXPECT_EQ(&cat.Index("r"), &idx);
  cat.Put("s", SmallRel());
  EXPECT_EQ(cat.Names(), (std::vector<std::string>{"r", "s"}));
}

TEST(Catalog, DropUnregistersAndBumpsVersion) {
  Catalog cat;
  EXPECT_FALSE(cat.Drop("r")) << "dropping a missing name is reported";
  const uint64_t v0 = cat.version();
  cat.Put("r", SmallRel());
  EXPECT_GT(cat.version(), v0);
  const uint64_t v1 = cat.version();
  EXPECT_TRUE(cat.Drop("r"));
  EXPECT_GT(cat.version(), v1);
  EXPECT_FALSE(cat.Has("r"));
  EXPECT_EQ(cat.IndexSnapshot("r"), nullptr);
}

TEST(Catalog, IndexSnapshotPinsEntryAcrossPutAndDrop) {
  Catalog cat;
  cat.Put("r", SmallRel());
  auto snap = cat.IndexSnapshot("r");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->num_tuples(), 4u);

  // Replace with a different relation: the old snapshot is untouched, a
  // fresh snapshot sees the new data (copy-on-write, not in-place).
  BinaryRelation bigger;
  for (Value i = 0; i < 10; ++i) bigger.Add(i, i % 3);
  cat.Put("r", std::move(bigger));
  EXPECT_EQ(snap->num_tuples(), 4u);
  auto snap2 = cat.IndexSnapshot("r");
  ASSERT_NE(snap2, nullptr);
  EXPECT_EQ(snap2->num_tuples(), 10u);
  EXPECT_NE(snap.get(), snap2.get());

  // Drop: both snapshots stay alive and readable.
  EXPECT_TRUE(cat.Drop("r"));
  EXPECT_EQ(snap->num_tuples(), 4u);
  EXPECT_EQ(snap2->num_tuples(), 10u);
}

TEST(Catalog, PutFinalizesUnfinalized) {
  Catalog cat;
  BinaryRelation raw;
  raw.Add(1, 1);
  raw.Add(1, 1);
  cat.Put("raw", std::move(raw));
  EXPECT_EQ(cat.Get("raw").size(), 1u);
  EXPECT_TRUE(cat.Get("raw").finalized());
}

}  // namespace
}  // namespace jpmm
