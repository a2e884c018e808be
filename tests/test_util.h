// Shared test helpers: brute-force oracles, random-instance generators, and
// the set joins run through QueryEngine.

#ifndef JPMM_TESTS_TEST_UTIL_H_
#define JPMM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/join_project.h"
#include "core/query_engine.h"
#include "join/intersection.h"
#include "join/sorted_set_ops.h"
#include "join/star_wcoj.h"
#include "scj/scj.h"
#include "ssj/ssj.h"
#include "storage/index.h"
#include "storage/relation.h"
#include "storage/set_family.h"

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

/// A relation read as a family of sets: the input of the set-join and BSI
/// tests (the competitor algorithms take `fam`, the engine takes `rel`).
struct SetInstance {
  BinaryRelation rel;
  IndexedRelation idx;
  SetFamily fam;

  explicit SetInstance(BinaryRelation r)
      : rel(std::move(r)), idx(rel), fam(idx) {}
  SetInstance(const SetInstance&) = delete;  // idx and fam point into rel
};

/// Brute-force SSJ: every pair a < b of non-empty sets sharing >= c
/// elements, in canonical unordered order; overlaps are reported only when
/// `with_overlap` is set.
inline SsjResult OracleSsj(const SetFamily& fam, uint32_t c,
                           bool with_overlap) {
  SsjResult out;
  for (Value a = 0; a < fam.num_set_ids(); ++a) {
    if (fam.SetSize(a) == 0) continue;
    for (Value b = a + 1; b < fam.num_set_ids(); ++b) {
      if (fam.SetSize(b) == 0) continue;
      const auto overlap = static_cast<uint32_t>(
          IntersectCount(fam.Elements(a), fam.Elements(b)));
      if (overlap >= c) {
        out.push_back(SimilarPair{a, b, with_overlap ? overlap : 0});
      }
    }
  }
  return out;
}

/// Brute-force SCJ: every ordered pair (sub, super) of distinct non-empty
/// sets with sub's elements a subset of super's, in canonical order.
inline ScjResult OracleScj(const SetFamily& fam) {
  ScjResult out;
  for (Value r = 0; r < fam.num_set_ids(); ++r) {
    if (fam.SetSize(r) == 0) continue;
    for (Value s = 0; s < fam.num_set_ids(); ++s) {
      if (s == r || fam.SetSize(s) == 0) continue;
      if (IsSubsetSorted(fam.Elements(r), fam.Elements(s))) {
        out.push_back(ContainmentPair{r, s});
      }
    }
  }
  CanonicalizeScj(&out);
  return out;
}

/// Sequential WCOJ two-path self join of `rel`, sorted: the reference of
/// the engine, service and concurrency tests.
inline std::vector<OutPair> WcojOracle(const BinaryRelation& rel) {
  JoinProjectOptions opts;
  opts.strategy = Strategy::kWcojFull;
  opts.sorted = true;
  return JoinProject::TwoPath(rel, rel, opts).pairs;
}

/// WcojOracle with witness counts.
inline std::vector<CountedPair> WcojOracleCounted(const BinaryRelation& rel) {
  JoinProjectOptions opts;
  opts.strategy = Strategy::kWcojFull;
  opts.sorted = true;
  opts.count_witnesses = true;
  return JoinProject::TwoPath(rel, rel, opts).counted;
}

/// An engine holding `rel` as "R".
inline QueryEngine MakeEngine(const BinaryRelation& rel) {
  QueryEngine engine;
  engine.AddRelation("R", rel);
  return engine;
}

/// The two-path self join of "R" under `strategy`.
inline QuerySpec TwoPathSpec(Strategy strategy = Strategy::kAuto) {
  QuerySpec spec;
  spec.kind = QueryKind::kTwoPath;
  spec.relations = {"R"};
  spec.strategy = strategy;
  return spec;
}

/// The two-path self join of catalog relation `name`.
inline QuerySpec TwoPathSpec(const std::string& name, bool counted = false) {
  QuerySpec spec = TwoPathSpec();
  spec.relations = {name};
  spec.count_witnesses = counted;
  return spec;
}

/// Per-thread failure slots for cross-thread tests: workers Record, the
/// main thread asserts after join (an empty slot is clean).
struct FailureLog {
  explicit FailureLog(size_t threads) : slots(threads) {}
  std::vector<std::string> slots;

  void Record(size_t thread, const std::string& msg) {
    if (slots[thread].empty()) slots[thread] = msg;
  }
  void AssertClean() const {
    for (size_t i = 0; i < slots.size(); ++i) {
      EXPECT_TRUE(slots[i].empty()) << "thread " << i << ": " << slots[i];
    }
  }
};

/// Runs `spec` on a fresh engine holding `rel` as "R", into `sink`.
inline void RunOnEngine(const BinaryRelation& rel, const QuerySpec& spec,
                        ResultSink& sink, const ExecOptions& exec = {}) {
  QueryEngine engine = MakeEngine(rel);
  const QueryStatus st = engine.Run(spec, sink, exec);
  ASSERT_TRUE(st.ok()) << st.message();
}

/// SSJ over the sets of `rel` through QueryEngine (the served path).
inline SsjResult EngineSsj(const BinaryRelation& rel, const SsjOptions& opts,
                           Strategy strategy = Strategy::kAuto) {
  QuerySpec spec;
  spec.kind = QueryKind::kSsj;
  spec.relations = {"R"};
  spec.strategy = strategy;
  spec.ssj_c = opts.c;
  spec.ssj_ordered = opts.ordered;
  ExecOptions exec;
  exec.threads = opts.threads;
  VectorSink sink;
  RunOnEngine(rel, spec, sink, exec);
  return ToSsjResult(sink, opts.ordered);
}

/// SCJ over the sets of `rel` through QueryEngine (the served path).
inline ScjResult EngineScj(const BinaryRelation& rel,
                           const ScjOptions& opts = {},
                           Strategy strategy = Strategy::kAuto) {
  QuerySpec spec;
  spec.kind = QueryKind::kScj;
  spec.relations = {"R"};
  spec.strategy = strategy;
  ExecOptions exec;
  exec.threads = opts.threads;
  VectorSink sink;
  RunOnEngine(rel, spec, sink, exec);
  return ToScjResult(sink);
}

/// Converts a TupleBuffer to a sorted vector-of-vectors for comparison.
/// The detail the first `name` span of a traced execution closed with
/// ("cache-hit" / "cache-miss" on "plan" and "threshold-fit"); empty when
/// the run opened no such span.
inline std::string SpanDetail(const ExecStats& stats, const char* name) {
  for (const TraceSpan& span : stats.trace_spans) {
    if (std::strcmp(span.name, name) == 0) return span.detail;
  }
  return "";
}

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
