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
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/join_project.h"
#include "core/mm_join.h"
#include "core/query_engine.h"
#include "core/star_join.h"
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

/// One two-path run's output, sorted by (x, z): `pairs` for a plain run,
/// `counted` for a counting one.
struct SortedOutput {
  std::vector<OutPair> pairs;
  std::vector<CountedPair> counted;

  SortedOutput() = default;
  explicit SortedOutput(VectorSink& sink)
      : pairs(std::move(sink.pairs())), counted(std::move(sink.counted())) {
    std::sort(pairs.begin(), pairs.end());
    std::sort(counted.begin(), counted.end());
  }
  size_t size() const { return pairs.size() + counted.size(); }
  bool operator==(const SortedOutput&) const = default;
};

/// Sequential WCOJ pi_{x,z}(R JOIN S) (WcojFullJoinProject), sorted: the
/// reference of the engine, service, concurrency and fuzz tests.
inline SortedOutput WcojReference(const IndexedRelation& r,
                                  const IndexedRelation& s,
                                  bool count_witnesses = false,
                                  uint32_t min_count = 1) {
  VectorSink sink;
  WcojFullJoinProject(r, s, count_witnesses, min_count, /*threads=*/1, &sink);
  return SortedOutput(sink);
}

/// The WCOJ reference of the self join of `rel`.
inline std::vector<OutPair> WcojOracle(const BinaryRelation& rel) {
  const IndexedRelation idx(rel);
  return WcojReference(idx, idx).pairs;
}

/// WcojOracle with witness counts.
inline std::vector<CountedPair> WcojOracleCounted(const BinaryRelation& rel) {
  const IndexedRelation idx(rel);
  return WcojReference(idx, idx, /*count_witnesses=*/true).counted;
}

/// A low-level two-path run (MmJoinTwoPath, NonMmJoinTwoPath) collected
/// into a VectorSink: the run record plus the sorted output.
struct CollectedRun : RunRecord, SortedOutput {};

using TwoPathFn = RunRecord (*)(const IndexedRelation&, const IndexedRelation&,
                                const MmJoinOptions&, ResultSink&);

inline CollectedRun Collect(TwoPathFn fn, const IndexedRelation& r,
                            const IndexedRelation& s,
                            const MmJoinOptions& opts) {
  VectorSink sink;
  CollectedRun out;
  static_cast<RunRecord&>(out) = fn(r, s, opts, sink);
  static_cast<SortedOutput&>(out) = SortedOutput(sink);
  return out;
}

inline CollectedRun MmRun(const IndexedRelation& r, const IndexedRelation& s,
                          const MmJoinOptions& opts) {
  return Collect(MmJoinTwoPath, r, s, opts);
}

inline CollectedRun NonMmRun(const IndexedRelation& r,
                             const IndexedRelation& s,
                             const MmJoinOptions& opts) {
  return Collect(NonMmJoinTwoPath, r, s, opts);
}

/// A low-level star run (MmStarJoin, NonMmStarJoin) collected into a
/// VectorSink: the run record plus the sink's tuple_data() in arrival order
/// (ascending for a non-streaming run).
struct CollectedStar : RunRecord {
  TupleBuffer tuples{1};
};

using StarFn = RunRecord (*)(const std::vector<const IndexedRelation*>&,
                             const StarJoinOptions&, ResultSink&);

inline CollectedStar CollectStar(
    StarFn fn, const std::vector<const IndexedRelation*>& rels,
    const StarJoinOptions& opts) {
  VectorSink sink;
  CollectedStar out;
  static_cast<RunRecord&>(out) = fn(rels, opts, sink);
  out.tuples = TupleBuffer(static_cast<uint32_t>(rels.size()),
                           sink.tuple_data());
  return out;
}

inline CollectedStar StarRun(const std::vector<const IndexedRelation*>& rels,
                             const StarJoinOptions& opts) {
  return CollectStar(MmStarJoin, rels, opts);
}

inline CollectedStar NonMmStarRun(
    const std::vector<const IndexedRelation*>& rels,
    const StarJoinOptions& opts) {
  return CollectStar(NonMmStarJoin, rels, opts);
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

/// A two-path query run through QueryEngine into a VectorSink: the
/// execution record plus the sorted output.
struct EngineRun : ExecStats, SortedOutput {};

/// Executes `query` under `exec` into a VectorSink.
inline EngineRun ExecuteSorted(QueryEngine& engine, PreparedQuery& query,
                               const ExecOptions& exec = {}) {
  VectorSink sink;
  EngineRun out;
  const QueryStatus st = engine.Execute(query, sink, exec, &out);
  EXPECT_TRUE(st.ok()) << st.message();
  static_cast<SortedOutput&>(out) = SortedOutput(sink);
  return out;
}

/// pi_{x,z}(R JOIN S) through a fresh engine: `r` as "R" and `s` as "S",
/// or, when they are one object, the self join of "R" alone. `spec`
/// supplies the strategy and counting knobs; its relation names are
/// replaced.
inline EngineRun EngineTwoPath(const BinaryRelation& r,
                               const BinaryRelation& s, QuerySpec spec,
                               const ExecOptions& exec = {}) {
  QueryEngine engine = MakeEngine(r);
  spec.kind = QueryKind::kTwoPath;
  spec.relations = {"R"};
  if (&r != &s) {
    engine.AddRelation("S", s);
    spec.relations.push_back("S");
  }
  PreparedQuery query;
  const QueryStatus st = engine.Prepare(spec, &query);
  EXPECT_TRUE(st.ok()) << st.message();
  return ExecuteSorted(engine, query, exec);
}

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
