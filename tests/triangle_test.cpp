// Tests for the AYZ-style triangle counting extension (§9 future work).

#include <gtest/gtest.h>

#include "core/triangle.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

// Symmetric random graph (no self loops).
BinaryRelation RandomGraph(uint32_t n, uint32_t edges, uint64_t seed) {
  Rng rng(seed);
  BinaryRelation g;
  for (uint32_t i = 0; i < edges; ++i) {
    const auto u = static_cast<Value>(rng.NextBounded(n));
    const auto v = static_cast<Value>(rng.NextBounded(n));
    if (u == v) continue;
    g.Add(u, v);
    g.Add(v, u);
  }
  g.Finalize();
  return g;
}

// O(n^3) oracle.
uint64_t OracleTriangles(const IndexedRelation& g) {
  uint64_t count = 0;
  for (Value a = 0; a < g.num_x(); ++a) {
    for (Value b = a + 1; b < g.num_x(); ++b) {
      if (!g.Contains(a, b)) continue;
      for (Value c = b + 1; c < g.num_x(); ++c) {
        if (g.Contains(a, c) && g.Contains(b, c)) ++count;
      }
    }
  }
  return count;
}

TEST(Triangle, SingleTriangle) {
  BinaryRelation g;
  for (auto [u, v] : {std::pair<Value, Value>{0, 1}, {1, 2}, {0, 2}}) {
    g.Add(u, v);
    g.Add(v, u);
  }
  g.Finalize();
  IndexedRelation gi(g);
  EXPECT_EQ(CountTrianglesNodeIterator(gi), 1u);
  EXPECT_EQ(CountTrianglesMm(gi).triangles, 1u);
}

TEST(Triangle, CompleteGraphK6) {
  BinaryRelation g;
  for (Value u = 0; u < 6; ++u) {
    for (Value v = 0; v < 6; ++v) {
      if (u != v) g.Add(u, v);
    }
  }
  g.Finalize();
  IndexedRelation gi(g);
  // C(6,3) = 20 triangles.
  EXPECT_EQ(CountTrianglesNodeIterator(gi), 20u);
  for (uint64_t delta : {1ull, 2ull, 3ull, 10ull}) {
    TriangleCountOptions opts;
    opts.delta = delta;
    EXPECT_EQ(CountTrianglesMm(gi, opts).triangles, 20u) << delta;
  }
}

TEST(Triangle, TriangleFreeBipartite) {
  BinaryRelation g;
  for (Value u = 0; u < 10; ++u) {
    for (Value v = 10; v < 20; ++v) {
      g.Add(u, v);
      g.Add(v, u);
    }
  }
  g.Finalize();
  IndexedRelation gi(g);
  EXPECT_EQ(CountTrianglesMm(gi).triangles, 0u);
  EXPECT_EQ(CountTrianglesNodeIterator(gi), 0u);
}

class TriangleSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TriangleSweep, MatchesOracleAcrossThresholds) {
  const uint64_t seed = GetParam();
  BinaryRelation g = RandomGraph(40, 250, seed);
  IndexedRelation gi(g);
  const uint64_t expected = OracleTriangles(gi);
  EXPECT_EQ(CountTrianglesNodeIterator(gi), expected);
  for (uint64_t delta : {1ull, 3ull, 8ull, 1000ull}) {
    TriangleCountOptions opts;
    opts.delta = delta;
    const auto res = CountTrianglesMm(gi, opts);
    EXPECT_EQ(res.triangles, expected) << "seed=" << seed
                                       << " delta=" << delta;
    EXPECT_EQ(res.light_triangles + res.heavy_triangles, res.triangles);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Triangle, CommunityGraph) {
  BinaryRelation g = CommunityGraph(3, 20, 1.0, 5);
  IndexedRelation gi(g);
  // 3 complete communities of 20: 3 * C(20,3) triangles.
  const uint64_t expected = 3 * 1140;
  EXPECT_EQ(CountTrianglesNodeIterator(gi), expected);
  EXPECT_EQ(CountTrianglesMm(gi).triangles, expected);
}

TEST(Triangle, ThreadsDoNotChangeCount) {
  BinaryRelation g = RandomGraph(60, 600, 99);
  IndexedRelation gi(g);
  const uint64_t ref = CountTrianglesMm(gi).triangles;
  for (int threads : {2, 4}) {
    TriangleCountOptions opts;
    opts.threads = threads;
    EXPECT_EQ(CountTrianglesMm(gi, opts).triangles, ref);
  }
}

TEST(Triangle, MemoryCapDegrades) {
  BinaryRelation g = RandomGraph(80, 1200, 7);
  IndexedRelation gi(g);
  TriangleCountOptions opts;
  opts.delta = 1;
  opts.max_matrix_bytes = 64;  // absurd cap: force threshold doubling
  const auto res = CountTrianglesMm(gi, opts);
  EXPECT_GT(res.adjusted_thresholds.delta1, 1u);
  EXPECT_EQ(res.triangles, CountTrianglesNodeIterator(gi));
}

TEST(Triangle, EmptyAndTinyGraphs) {
  BinaryRelation empty;
  empty.Finalize();
  IndexedRelation ei(empty);
  EXPECT_EQ(CountTrianglesMm(ei).triangles, 0u);

  BinaryRelation edge;
  edge.Add(0, 1);
  edge.Add(1, 0);
  edge.Finalize();
  IndexedRelation edgei(edge);
  EXPECT_EQ(CountTrianglesMm(edgei).triangles, 0u);
}

}  // namespace
}  // namespace jpmm
