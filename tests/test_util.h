// Shared test helpers: brute-force oracles and random-instance generators.

#ifndef JPMM_TESTS_TEST_UTIL_H_
#define JPMM_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "join/star_wcoj.h"
#include "storage/index.h"
#include "storage/relation.h"

namespace jpmm::testutil {

/// Brute-force pi_{x,z}(R JOIN S), sorted.
inline std::vector<OutPair> OracleTwoPath(const BinaryRelation& r,
                                          const BinaryRelation& s) {
  std::set<std::pair<Value, Value>> seen;
  for (const Tuple& rt : r.tuples()) {
    for (const Tuple& st : s.tuples()) {
      if (rt.y == st.y) seen.insert({rt.x, st.x});
    }
  }
  std::vector<OutPair> out;
  out.reserve(seen.size());
  for (const auto& [x, z] : seen) out.push_back(OutPair{x, z});
  return out;
}

/// Brute-force witness counts, sorted by (x, z).
inline std::vector<CountedPair> OracleTwoPathCounted(const BinaryRelation& r,
                                                     const BinaryRelation& s,
                                                     uint32_t min_count = 1) {
  std::map<std::pair<Value, Value>, uint32_t> counts;
  for (const Tuple& rt : r.tuples()) {
    for (const Tuple& st : s.tuples()) {
      if (rt.y == st.y) ++counts[{rt.x, st.x}];
    }
  }
  std::vector<CountedPair> out;
  for (const auto& [key, cnt] : counts) {
    if (cnt >= min_count) out.push_back(CountedPair{key.first, key.second, cnt});
  }
  return out;
}

/// Brute-force star join-project, sorted tuples (flat, stride k).
inline std::vector<std::vector<Value>> OracleStar(
    const std::vector<const BinaryRelation*>& rels) {
  std::set<std::vector<Value>> seen;
  const size_t k = rels.size();
  // Index tuples of each relation by y.
  std::map<Value, std::vector<std::vector<Value>>> by_y;  // y -> per-rel lists
  std::set<Value> ys;
  for (const auto* rel : rels) {
    for (const Tuple& t : rel->tuples()) ys.insert(t.y);
  }
  for (Value b : ys) {
    std::vector<std::vector<Value>> lists(k);
    bool ok = true;
    for (size_t i = 0; i < k && ok; ++i) {
      for (const Tuple& t : rels[i]->tuples()) {
        if (t.y == b) lists[i].push_back(t.x);
      }
      ok = !lists[i].empty();
    }
    if (!ok) continue;
    std::vector<size_t> pos(k, 0);
    for (;;) {
      std::vector<Value> tuple(k);
      for (size_t i = 0; i < k; ++i) tuple[i] = lists[i][pos[i]];
      seen.insert(tuple);
      size_t dim = k;
      bool done = false;
      while (dim > 0) {
        --dim;
        if (++pos[dim] < lists[dim].size()) break;
        pos[dim] = 0;
        if (dim == 0) {
          done = true;
          break;
        }
      }
      if (done) break;
    }
  }
  return {seen.begin(), seen.end()};
}

/// Converts a TupleBuffer to a sorted vector-of-vectors for comparison.
inline std::vector<std::vector<Value>> ToVectors(const TupleBuffer& buf) {
  std::vector<std::vector<Value>> out;
  out.reserve(buf.size());
  for (size_t i = 0; i < buf.size(); ++i) {
    const auto t = buf.Get(i);
    out.emplace_back(t.begin(), t.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Random relation with skewed degrees (useful heavy/light mixes).
inline BinaryRelation RandomRelation(uint32_t num_x, uint32_t num_y,
                                     uint32_t num_tuples, double skew,
                                     uint64_t seed) {
  Rng rng(seed);
  ZipfSampler xz(num_x, skew, seed ^ 1);
  ZipfSampler yz(num_y, skew, seed ^ 2);
  BinaryRelation rel;
  for (uint32_t i = 0; i < num_tuples; ++i) rel.Add(xz.Sample(), yz.Sample());
  rel.Finalize();
  return rel;
}

/// Symmetric graph (both edge directions, no self loops) whose triangle
/// count has a real heavy part: `hubs` vertices adjacent to all `n`, far
/// above the default sqrt(|E|) degree threshold, plus `extra` random edges.
inline BinaryRelation HubGraph(uint32_t n = 300, uint32_t hubs = 5,
                               uint32_t extra = 600, uint64_t seed = 5) {
  Rng rng(seed);
  BinaryRelation g;
  auto edge = [&g](Value u, Value v) {
    if (u == v) return;
    g.Add(u, v);
    g.Add(v, u);
  };
  for (Value h = 0; h < hubs; ++h) {
    for (Value v = 0; v < n; ++v) edge(h, v);
  }
  for (uint32_t i = 0; i < extra; ++i) {
    edge(static_cast<Value>(rng.NextBounded(n)),
         static_cast<Value>(rng.NextBounded(n)));
  }
  g.Finalize();
  return g;
}

inline std::vector<OutPair> Sorted(std::vector<OutPair> v) {
  std::sort(v.begin(), v.end());
  return v;
}

inline std::vector<CountedPair> Sorted(std::vector<CountedPair> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace jpmm::testutil

#endif  // JPMM_TESTS_TEST_UTIL_H_
