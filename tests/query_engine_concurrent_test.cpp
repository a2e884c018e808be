// Concurrent multi-client QueryEngine: N threads hammer ONE engine with
// mixed Prepare / Execute / AddRelation / DropRelation while using limit,
// page, ordered, and materializing sinks — and every client's result must
// equal the single-threaded oracle. This binary is part of the CI
// ThreadSanitizer matrix; keep new cross-thread engine state covered here.
//
// Threading discipline for the assertions: worker threads record failures
// into per-thread slots (no gtest macros off the main thread — portable
// and keeps one failure from interleaving output); the main thread
// asserts after join.

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/join_project.h"
#include "core/query_engine.h"
#include "core/result_sink.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::FailureLog;
using testutil::Sorted;
using testutil::SpanDetail;
using testutil::TwoPathSpec;
using testutil::WcojOracle;
using testutil::WcojOracleCounted;

constexpr int kClients = 8;  // acceptance floor: >= 8 mixed-role threads

BinaryRelation SkewedGraph(uint64_t seed = 11) {
  return CommunityGraph(/*communities=*/3, /*community_size=*/40,
                        /*p_in=*/0.4, seed);
}

// ---- Single-flight planning: racing first executions agree on one plan,
// exactly one of them reports the optimizer run.

TEST(QueryEngineConcurrent, FirstExecuteRaceIsSingleFlight) {
  const BinaryRelation rel = SkewedGraph();
  const auto oracle = WcojOracle(rel);
  QueryEngine engine;
  engine.AddRelation("R", rel);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q).ok());

  FailureLog log(kClients);
  std::vector<ExecStats> stats(kClients);
  std::latch start(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();  // maximize the planning race
      VectorSink sink;
      QueryStatus st = engine.Execute(q, sink, {}, &stats[c]);
      if (!st.ok()) {
        log.Record(c, st.message());
        return;
      }
      if (Sorted(sink.pairs()) != oracle) {
        log.Record(c, "result mismatch vs oracle");
      }
    });
  }
  for (auto& t : threads) t.join();
  log.AssertClean();

  int misses = 0;
  for (const ExecStats& s : stats) misses += s.plan_cache_hit ? 0 : 1;
  EXPECT_EQ(misses, 1) << "exactly the planning winner reports a miss";
  EXPECT_TRUE(q.has_plan());
  EXPECT_EQ(q.executions(), static_cast<uint64_t>(kClients));
}

// The star "plan" (thresholds sweep) is cached with the same single-flight
// discipline; racing first executions must report exactly one miss too. So
// is the operand memo behind it: one client fits, the rest reuse its fit.

TEST(QueryEngineConcurrent, StarFirstExecuteRaceIsSingleFlight) {
  const BinaryRelation rel = UniformBipartite(100, 30, 500, 9);
  QueryEngine engine;
  engine.AddRelation("R", rel);
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R", "R"};
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(spec, &q).ok());

  FailureLog log(kClients);
  std::vector<ExecStats> stats(kClients);
  std::vector<size_t> sizes(kClients, 0);
  std::latch start(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TraceRecorder trace;
      ExecOptions exec;
      exec.trace = &trace;
      start.arrive_and_wait();
      VectorSink sink;
      QueryStatus st = engine.Execute(q, sink, exec, &stats[c]);
      if (!st.ok()) {
        log.Record(c, st.message());
        return;
      }
      sizes[c] = sink.tuple_data().size();
    });
  }
  for (auto& t : threads) t.join();
  log.AssertClean();

  int misses = 0;
  int fit_misses = 0;
  for (const ExecStats& s : stats) {
    misses += s.plan_cache_hit ? 0 : 1;
    fit_misses += SpanDetail(s, "threshold-fit") == "cache-miss" ? 1 : 0;
  }
  EXPECT_EQ(misses, 1) << "exactly the thresholds-sweep winner is a miss";
  EXPECT_EQ(fit_misses, 1) << "exactly one client builds the star operands";
  for (int c = 1; c < kClients; ++c) EXPECT_EQ(sizes[c], sizes[0]);
}

// ---- The two-path's operand memo under the same race: one client builds
// M1 / M2 and packs them under the slot's lock, the others wait and reuse
// its panels.

uint64_t PairDigest(const std::vector<OutPair>& pairs) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const OutPair& p : pairs) {
    for (Value v : {p.x, p.z}) h = (h ^ v) * 1099511628211ull;
  }
  return h;
}

TEST(QueryEngineConcurrent, TwoPathOperandMemoRaceIsSingleFlight) {
  const BinaryRelation rel = SkewedGraph();
  QueryEngine engine;
  engine.AddRelation("R", rel);
  QuerySpec spec = TwoPathSpec("R");
  spec.strategy = Strategy::kMmJoin;  // every client reaches the product
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(spec, &q).ok());

  FailureLog log(kClients);
  std::vector<ExecStats> stats(kClients);
  std::vector<uint64_t> digests(kClients, 0);
  std::latch start(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TraceRecorder trace;
      ExecOptions exec;
      exec.trace = &trace;
      exec.thresholds = {4, 4};
      exec.threads = 2;
      start.arrive_and_wait();
      VectorSink sink;
      QueryStatus st = engine.Execute(q, sink, exec, &stats[c]);
      if (!st.ok()) {
        log.Record(c, st.message());
        return;
      }
      digests[c] = PairDigest(Sorted(sink.pairs()));
    });
  }
  for (auto& t : threads) t.join();
  log.AssertClean();

  int pack_misses = 0;
  for (const ExecStats& s : stats) {
    const std::string pack = SpanDetail(s, "pack");
    EXPECT_FALSE(pack.empty()) << "every client runs the heavy product";
    pack_misses += pack == "cache-miss" ? 1 : 0;
  }
  EXPECT_EQ(pack_misses, 1) << "exactly one client packs the operands";
  EXPECT_EQ(digests[0], PairDigest(WcojOracle(rel)));
  for (int c = 1; c < kClients; ++c) EXPECT_EQ(digests[c], digests[0]);
}

// ---- The acceptance scenario: >= 8 threads, mixed Prepare / Execute /
// AddRelation / DropRelation on one shared engine, every sink family in
// play, every result checked against its single-threaded oracle.

TEST(QueryEngineConcurrent, MixedPrepareExecuteAddDropRelation) {
  const BinaryRelation stable = SkewedGraph(11);
  const BinaryRelation hot = SkewedGraph(23);  // repeatedly re-Put
  const auto oracle = WcojOracle(stable);
  const auto oracle_counted = WcojOracleCounted(stable);
  const auto hot_oracle = WcojOracle(hot);
  const std::set<std::pair<Value, Value>> oracle_set = [&] {
    std::set<std::pair<Value, Value>> s;
    for (const OutPair& p : oracle) s.insert({p.x, p.z});
    return s;
  }();

  QueryEngine engine;
  engine.AddRelation("R", stable);
  engine.AddRelation("hot", hot);

  constexpr int kIters = 8;
  constexpr int kWriters = 2;
  constexpr int kReaders = kClients - kWriters;
  FailureLog log(kClients);
  std::vector<std::thread> threads;

  // Readers: Prepare + Execute against "R" with a rotating sink family,
  // interleaved with Prepare + Execute against the hot-swapped relation.
  for (int c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      for (int it = 0; it < kIters; ++it) {
        PreparedQuery q;
        const bool counted = (c + it) % 4 == 3;
        QueryStatus st = engine.Prepare(TwoPathSpec("R", counted), &q);
        if (!st.ok()) {
          log.Record(c, "Prepare R: " + st.message());
          return;
        }
        switch ((c + it) % 4) {
          case 0: {  // full materialization == oracle
            VectorSink sink;
            st = engine.Execute(q, sink, {});
            if (!st.ok() || Sorted(sink.pairs()) != oracle) {
              log.Record(c, "VectorSink mismatch: " + st.message());
              return;
            }
            break;
          }
          case 1: {  // limit: exact count, subset of the oracle
            PageSink sink(0, 17);
            st = engine.Execute(q, sink, {});
            if (!st.ok() ||
                sink.pairs().size() !=
                    std::min<size_t>(17, oracle_set.size())) {
              log.Record(c, "limit count: " + st.message());
              return;
            }
            for (const OutPair& p : sink.pairs()) {
              if (oracle_set.count({p.x, p.z}) == 0) {
                log.Record(c, "limit delivered a non-result");
                return;
              }
            }
            break;
          }
          case 2: {  // page: exact size + exact skip accounting
            PageSink sink(13, 11);
            st = engine.Execute(q, sink, {});
            const size_t expect =
                std::min<size_t>(11, oracle_set.size() -
                                         std::min<size_t>(13,
                                                          oracle_set.size()));
            if (!st.ok() || sink.size() != expect ||
                sink.skipped() !=
                    std::min<uint64_t>(13, oracle_set.size())) {
              log.Record(c, "PageSink accounting: " + st.message());
              return;
            }
            break;
          }
          default: {  // ranked: equals the full-sort oracle prefix
            OrderedBySink sink(ResultOrder::kCountDescending, 20);
            st = engine.Execute(q, sink, {});
            auto expect = oracle_counted;
            std::sort(expect.begin(), expect.end(),
                      [](const CountedPair& a, const CountedPair& b) {
                        if (a.count != b.count) return a.count > b.count;
                        if (a.x != b.x) return a.x < b.x;
                        return a.z < b.z;
                      });
            expect.resize(std::min<size_t>(20, expect.size()));
            if (!st.ok() || sink.ranked() != expect) {
              log.Record(c, "OrderedBySink vs full-sort oracle: " +
                                st.message());
              return;
            }
            break;
          }
        }
        // Snapshot isolation exercise: the hot relation is re-Put
        // concurrently with identical content, so any prepared snapshot
        // must evaluate to the same oracle.
        if (it % 3 == 0) {
          PreparedQuery hq;
          st = engine.Prepare(TwoPathSpec("hot"), &hq);
          if (!st.ok()) {
            log.Record(c, "Prepare hot: " + st.message());
            return;
          }
          VectorSink sink;
          st = engine.Execute(hq, sink, {});
          if (!st.ok() || Sorted(sink.pairs()) != hot_oracle) {
            log.Record(c, "hot-swap snapshot mismatch: " + st.message());
            return;
          }
        }
      }
    });
  }

  // Writers: replace "hot" (same content — readers can then assert exact
  // results), churn scratch names through Add + Drop, and poke the
  // error path for dropping a missing name.
  for (int w = 0; w < kWriters; ++w) {
    const int slot = kReaders + w;
    threads.emplace_back([&, w, slot] {
      for (int it = 0; it < kIters * 2; ++it) {
        if (!engine.AddRelation("hot", hot).ok()) {
          log.Record(slot, "AddRelation hot failed");
          return;
        }
        const std::string scratch =
            "tmp_" + std::to_string(w) + "_" + std::to_string(it);
        engine.AddRelation(scratch, SkewedGraph(100 + it));
        if (!engine.catalog().Has(scratch)) {
          log.Record(slot, "scratch relation vanished before drop");
          return;
        }
        if (!engine.DropRelation(scratch).ok()) {
          log.Record(slot, "DropRelation scratch failed");
          return;
        }
        if (engine.DropRelation("never_registered_" + scratch).ok()) {
          log.Record(slot, "dropping a missing name reported ok");
          return;
        }
      }
    });
  }

  for (auto& t : threads) t.join();
  log.AssertClean();
  EXPECT_TRUE(engine.catalog().Has("R"));
  EXPECT_TRUE(engine.catalog().Has("hot"));
}

// ---- Snapshot isolation, single-threaded and explicit: a PreparedQuery
// keeps evaluating the data it was prepared on across Put and Drop.

TEST(QueryEngineConcurrent, PreparedQuerySurvivesReplaceAndDrop) {
  const BinaryRelation before = SkewedGraph(5);
  const BinaryRelation after = UniformBipartite(80, 30, 400, 7);
  const auto oracle_before = WcojOracle(before);
  const auto oracle_after = WcojOracle(after);
  ASSERT_NE(oracle_before, oracle_after) << "test premise";

  QueryEngine engine;
  engine.AddRelation("R", before);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q).ok());

  engine.AddRelation("R", after);  // replace mid-flight
  VectorSink sink;
  ASSERT_TRUE(engine.Execute(q, sink, {}).ok());
  EXPECT_EQ(Sorted(sink.pairs()), oracle_before)
      << "snapshot must keep the pre-replace data";

  PreparedQuery q2;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q2).ok());
  VectorSink sink2;
  ASSERT_TRUE(engine.Execute(q2, sink2, {}).ok());
  EXPECT_EQ(Sorted(sink2.pairs()), oracle_after)
      << "re-Prepare must see the replacement";

  ASSERT_TRUE(engine.DropRelation("R").ok());
  VectorSink sink3;
  ASSERT_TRUE(engine.Execute(q, sink3, {}).ok())
      << "a dropped relation stays alive for prepared queries";
  EXPECT_EQ(Sorted(sink3.pairs()), oracle_before);
  PreparedQuery q3;
  EXPECT_FALSE(engine.Prepare(TwoPathSpec("R"), &q3).ok())
      << "new Prepares must see the drop";
}

// ---- Concurrent executions with different thread counts: the plan
// re-derivation race (plan_threads changes) must stay correct.

TEST(QueryEngineConcurrent, MixedThreadCountExecutions) {
  const BinaryRelation rel = SkewedGraph(31);
  const auto oracle = WcojOracle(rel);
  QueryEngine engine;
  engine.AddRelation("R", rel);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q).ok());

  FailureLog log(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int it = 0; it < 4; ++it) {
        ExecOptions exec;
        exec.threads = 1 + (c + it) % 2;  // 1 and 2 interleaved
        VectorSink sink;
        QueryStatus st = engine.Execute(q, sink, exec);
        if (!st.ok() || Sorted(sink.pairs()) != oracle) {
          log.Record(c, "mismatch at threads=" +
                            std::to_string(exec.threads) + " " +
                            st.message());
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  log.AssertClean();
  EXPECT_EQ(q.executions(), static_cast<uint64_t>(kClients * 4));
}

}  // namespace
}  // namespace jpmm
