// Multi-query batching subsystem: FanoutSink / RecordingSink delivery,
// Catalog::SnapshotAll consistent cuts, the QueryBatcher group protocol
// under 64 mixed clients with hot-swap writers, the versioned result
// cache's staleness contract, and density-grid memo reuse.
//
// This binary is part of the CI ThreadSanitizer matrix; keep new
// cross-thread batching state covered here. Threading discipline matches
// query_engine_concurrent_test: worker threads record failures into
// per-thread slots, the main thread asserts after join.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/join_project.h"
#include "core/query_batcher.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "core/result_sink.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::FailureLog;
using testutil::Sorted;
using testutil::TwoPathSpec;
using testutil::WcojOracle;
using testutil::WcojOracleCounted;

constexpr int kClients = 64;  // acceptance floor for the big scenario

BinaryRelation SkewedGraph(uint64_t seed = 11) {
  return CommunityGraph(/*communities=*/3, /*community_size=*/30,
                        /*p_in=*/0.35, seed);
}

// ---- FanoutSink: one stream, N independent consumers ---------------------

TEST(FanoutSink, TargetsKeepIndependentSemantics) {
  VectorSink all;
  PageSink limited(0, 3);
  CountOnlySink counter;
  VectorSink tap;
  FanoutSink fan;
  fan.AddTarget(&all);
  fan.AddTarget(&limited);
  fan.AddTarget(&counter);
  fan.AddTap(&tap);

  EXPECT_FALSE(fan.done());
  EXPECT_TRUE(fan.may_finish_early() == false)
      << "VectorSink cannot finish early, so neither can the group";

  fan.Open(2);
  std::vector<OutPair> batch;
  for (Value v = 0; v < 10; ++v) batch.push_back({v, v + 100});
  fan.shard(0).OnPairs(std::span<const OutPair>(batch.data(), 6));
  for (size_t i = 6; i < batch.size(); ++i) fan.shard(1).OnPair(batch[i]);
  // The limit target is done after its 3; the fan-out keeps streaming to
  // the rest and only reports done() when EVERY target is satisfied.
  EXPECT_TRUE(limited.done());
  EXPECT_FALSE(fan.done());
  fan.Finish();

  EXPECT_EQ(all.pairs().size(), 10u);
  EXPECT_EQ(limited.pairs().size(), 3u);
  EXPECT_EQ(counter.count(), 10u);
  EXPECT_EQ(tap.pairs().size(), 10u) << "taps receive everything";
  EXPECT_EQ(Sorted(all.pairs()), Sorted(tap.pairs()));
  for (const OutPair& p : limited.pairs()) {
    EXPECT_EQ(p.z, p.x + 100) << "limit target received real results only";
  }
  EXPECT_GE(fan.results_forwarded(), 10u + 3u + 10u);
}

TEST(FanoutSink, DoneIsConjunctionOverEarlyFinishers) {
  PageSink a(0, 2), b(0, 5);
  FanoutSink fan;
  fan.AddTarget(&a);
  fan.AddTarget(&b);
  EXPECT_TRUE(fan.may_finish_early());
  fan.Open(1);
  // Scalar OnPair calls are buffered inside the fan shard (flushed as
  // spans), so the done() vote advances at chunk granularity — deliver via
  // bulk spans here, the way the engine's chunk loops do.
  const std::vector<OutPair> first = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  fan.shard(0).OnPairs(first);
  EXPECT_TRUE(a.done());
  EXPECT_FALSE(fan.done()) << "one satisfied client must not stop the pass";
  const std::vector<OutPair> second = {{4, 4}};
  fan.shard(0).OnPairs(second);
  EXPECT_TRUE(fan.done()) << "every client satisfied -> shared early exit";
  fan.Finish();
  EXPECT_EQ(a.pairs().size(), 2u);
  EXPECT_EQ(b.pairs().size(), 5u);
}

TEST(RecordingSink, CapturesUntilByteBudgetThenLatchesOverflow) {
  RecordingSink small(3 * sizeof(OutPair));
  small.Open(1);
  for (Value v = 0; v < 10; ++v) small.shard(0).OnPair({v, v});
  small.Finish();
  EXPECT_TRUE(small.overflowed());
  EXPECT_LE(small.pairs().size(), 3u);

  RecordingSink big(1 << 20);
  big.Open(2);
  big.shard(0).OnPair({1, 2});
  big.shard(1).OnCountedPair({3, 4, 7});
  big.Finish();
  EXPECT_FALSE(big.overflowed());
  ASSERT_EQ(big.pairs().size(), 1u);
  ASSERT_EQ(big.counted().size(), 1u);
  EXPECT_EQ(big.counted()[0].count, 7u);
}

// ---- Catalog::SnapshotAll: one consistent multi-relation cut -------------

TEST(SnapshotAll, PinsEveryRelationAtOneVersion) {
  Catalog catalog;
  catalog.Put("A", SkewedGraph(1));
  catalog.Put("B", SkewedGraph(2));

  std::vector<std::shared_ptr<const IndexedRelation>> snaps;
  uint64_t version = 0;
  std::string missing;
  ASSERT_TRUE(catalog.SnapshotAll({"A", "B"}, &snaps, &version, &missing));
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(version, catalog.version());

  // Replacing and dropping after the snapshot must not disturb it.
  const size_t a_edges = snaps[0]->num_tuples();
  catalog.Put("A", SkewedGraph(3));
  ASSERT_TRUE(catalog.Drop("B"));
  EXPECT_EQ(snaps[0]->num_tuples(), a_edges);
  EXPECT_GT(catalog.version(), version) << "writers must bump the version";

  snaps.clear();
  EXPECT_FALSE(catalog.SnapshotAll({"A", "B"}, &snaps, &version, &missing));
  EXPECT_EQ(missing, "B");
  EXPECT_TRUE(snaps.empty());
}

TEST(SnapshotAll, PreparedVersionIdentifiesTheCut) {
  QueryEngine engine;
  engine.AddRelation("R", SkewedGraph(5));
  PreparedQuery q1, q2, q3;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q1).ok());
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q2).ok());
  EXPECT_EQ(q1.prepared_version(), q2.prepared_version());
  EXPECT_EQ(q1.spec_fingerprint(), q2.spec_fingerprint());

  engine.AddRelation("R", SkewedGraph(6));
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q3).ok());
  EXPECT_NE(q3.prepared_version(), q1.prepared_version())
      << "a Put must move new Prepares onto a new version";
  EXPECT_EQ(q3.spec_fingerprint(), q1.spec_fingerprint())
      << "the fingerprint hashes the spec, not the data";
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R", true), &q3).ok());
  EXPECT_NE(q3.spec_fingerprint(), q1.spec_fingerprint())
      << "counted mode is a WHAT-field and must change the fingerprint";
}

// ---- The batching acceptance scenario: 64 clients, one shared prepared
// query, every result byte-identical to solo, exactly one leader per group.

TEST(QueryBatching, SixtyFourIdenticalClientsShareExecutions) {
  const BinaryRelation rel = SkewedGraph(11);
  const auto oracle = WcojOracle(rel);
  QueryEngine engine;
  engine.AddRelation("R", rel);
  QueryServiceOptions so;
  so.enable_batching = true;
  so.batch_window_ms = 100;  // generous: most clients join the first group
  QueryService service(&engine, so);

  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q).ok());

  SetMetricsEnabled(true);  // the aggregate leader/follower identity below
                            // reads the process-wide batch counters
  MetricsRegistry::Global().ResetForTest();
  FailureLog log(kClients);
  std::vector<ExecStats> stats(kClients);
  std::latch start(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      VectorSink sink;
      ServiceRequest req;
      QueryStatus st = service.Execute(q, sink, req, &stats[c]);
      if (!st.ok()) {
        log.Record(c, st.message());
        return;
      }
      if (Sorted(sink.pairs()) != oracle) {
        log.Record(c, "batched result differs from the solo oracle");
      }
    });
  }
  for (auto& t : threads) t.join();
  log.AssertClean();

  const ServiceStats ss = service.stats();
  EXPECT_EQ(ss.completed, static_cast<uint64_t>(kClients));
  EXPECT_EQ(ss.admitted, static_cast<uint64_t>(kClients));

  // Exactly one leader per group, in aggregate: every request was either
  // the execution of its group or a follower of one.
  const auto snap = MetricsRegistry::Global().Snapshot();
  auto counter = [&snap](const char* name) -> uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const uint64_t leader_execs = counter("jpmm_batch_leader_executions_total");
  const uint64_t follower_joins = counter("jpmm_batch_follower_joins_total");
  EXPECT_EQ(leader_execs + follower_joins, static_cast<uint64_t>(kClients));
  EXPECT_EQ(ss.batch_followers, follower_joins);
  EXPECT_GT(follower_joins, 0u)
      << "with a 100ms window and a start gate, coalescing must happen";
  EXPECT_EQ(q.executions(), leader_execs)
      << "the engine ran once per group, never once per client";
  EXPECT_LT(leader_execs, static_cast<uint64_t>(kClients));
}

// Followers keep their own delivery semantics: a limit client coalesced
// with materializing clients gets exactly its page, everyone else gets the
// full answer, and the shared pass never early-exits for the limit client.

TEST(QueryBatching, CoalescedClientsKeepIndependentSinkSemantics) {
  const BinaryRelation rel = SkewedGraph(17);
  const auto oracle = WcojOracle(rel);
  ASSERT_GT(oracle.size(), 8u) << "test premise";
  QueryEngine engine;
  engine.AddRelation("R", rel);
  QueryServiceOptions so;
  so.enable_batching = true;
  so.batch_window_ms = 150;
  QueryService service(&engine, so);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q).ok());

  FailureLog log(3);
  std::latch start(3);
  std::vector<std::thread> threads;
  // Client 0: full materialization; client 1: limit 5; client 2: count.
  VectorSink full;
  PageSink limited(0, 5);
  CountOnlySink counting;
  ResultSink* sinks[3] = {&full, &limited, &counting};
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      ServiceRequest req;
      QueryStatus st = service.Execute(q, *sinks[c], req);
      if (!st.ok()) log.Record(c, st.message());
    });
  }
  for (auto& t : threads) t.join();
  log.AssertClean();

  // Whether or not all three landed in one group (timing), the semantics
  // must hold per client — coalescing may only change WHO executed.
  EXPECT_EQ(Sorted(full.pairs()), oracle);
  EXPECT_EQ(limited.pairs().size(), std::min<size_t>(5, oracle.size()));
  std::set<std::pair<Value, Value>> oracle_set;
  for (const OutPair& p : oracle) oracle_set.insert({p.x, p.z});
  for (const OutPair& p : limited.pairs()) {
    EXPECT_EQ(oracle_set.count({p.x, p.z}), 1u)
        << "limit client received a non-result";
  }
  EXPECT_EQ(counting.count(), oracle.size());
}

// A leader whose deadline fires inside the batch window detaches without
// executing; the request maps to kDeadlineExceeded and queue_timeouts.

TEST(QueryBatching, DeadlineInsideWindowDetachesWithoutExecuting) {
  QueryEngine engine;
  engine.AddRelation("R", SkewedGraph(19));
  QueryServiceOptions so;
  so.enable_batching = true;
  so.batch_window_ms = 400;
  QueryService service(&engine, so);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q).ok());

  VectorSink sink;
  ServiceRequest req;
  req.deadline_ms = 5;  // fires long before the 400ms window closes
  ExecStats stats;
  const QueryStatus st = service.Execute(q, sink, req, &stats);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.message();
  EXPECT_TRUE(sink.pairs().empty()) << "nothing executed";
  const ServiceStats ss = service.stats();
  EXPECT_EQ(ss.queue_timeouts, 1u);
  EXPECT_EQ(ss.admitted, 0u) << "a detached request never admits";
  EXPECT_EQ(q.executions(), 0u);
}

// ---- The big mixed scenario: 64 threads, identical AND distinct specs,
// hot-swap writers, batching + cache on; every result equals its oracle.

TEST(QueryBatching, MixedSpecsWithHotSwapWritersStayExact) {
  const BinaryRelation stable = SkewedGraph(23);
  const BinaryRelation hot = SkewedGraph(29);
  const auto oracle = WcojOracle(stable);
  const auto oracle_counted = WcojOracleCounted(stable);
  const auto hot_oracle = WcojOracle(hot);

  QueryEngine engine;
  engine.AddRelation("R", stable);
  engine.AddRelation("hot", hot);
  QueryServiceOptions so;
  so.enable_batching = true;
  so.batch_window_ms = 2;
  so.enable_result_cache = true;
  so.max_inflight = 4;
  so.queue_depth = kClients;  // no shedding: every result gets checked
  so.max_queued_per_class = kClients;
  QueryService service(&engine, so);

  constexpr int kWriters = 2;
  constexpr int kReaders = kClients - kWriters;
  constexpr int kIters = 6;
  FailureLog log(kClients);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> checked{0};

  for (int c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      for (int it = 0; it < kIters; ++it) {
        switch ((c + it) % 3) {
          case 0: {  // identical hot spec under concurrent re-Put: any
                     // snapshot of identical content gives one oracle, and
                     // the version-keyed cache can never serve a stale cut.
            PreparedQuery q;
            QueryStatus st = engine.Prepare(TwoPathSpec("hot"), &q);
            if (!st.ok()) {
              log.Record(c, "Prepare hot: " + st.message());
              return;
            }
            VectorSink sink;
            st = service.Execute(q, sink, {});
            if (!st.ok() || Sorted(sink.pairs()) != hot_oracle) {
              log.Record(c, "hot result mismatch: " + st.message());
              return;
            }
            break;
          }
          case 1: {  // shared stable spec — the heavily coalesced stream
            PreparedQuery q;
            QueryStatus st = engine.Prepare(TwoPathSpec("R"), &q);
            if (!st.ok()) {
              log.Record(c, "Prepare R: " + st.message());
              return;
            }
            VectorSink sink;
            st = service.Execute(q, sink, {});
            if (!st.ok() || Sorted(sink.pairs()) != oracle) {
              log.Record(c, "stable result mismatch: " + st.message());
              return;
            }
            break;
          }
          default: {  // distinct spec (counted) — must never coalesce with
                      // the plain one (different fingerprint)
            PreparedQuery q;
            QueryStatus st = engine.Prepare(TwoPathSpec("R", true), &q);
            if (!st.ok()) {
              log.Record(c, "Prepare counted: " + st.message());
              return;
            }
            VectorSink sink;
            st = service.Execute(q, sink, {});
            if (!st.ok() || Sorted(sink.counted()) != oracle_counted) {
              log.Record(c, "counted result mismatch: " + st.message());
              return;
            }
            break;
          }
        }
        checked.fetch_add(1);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    const int slot = kReaders + w;
    threads.emplace_back([&, slot] {
      for (int it = 0; it < kIters * 3; ++it) {
        if (!engine.AddRelation("hot", hot).ok()) {
          log.Record(slot, "AddRelation hot failed");
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (auto& t : threads) t.join();
  log.AssertClean();
  EXPECT_EQ(checked.load(), static_cast<uint64_t>(kReaders * kIters));
  const ServiceStats ss = service.stats();
  EXPECT_EQ(ss.completed, static_cast<uint64_t>(kReaders * kIters))
      << ss.ToString();
  EXPECT_GE(ss.admitted, ss.completed);
}

// ---- Result cache: repeat requests replay, writers invalidate ------------

TEST(ResultCacheService, RepeatRequestsHitUntilTheCatalogMoves) {
  const BinaryRelation before = SkewedGraph(31);
  const BinaryRelation after = SkewedGraph(37);
  const auto oracle_before = WcojOracle(before);
  const auto oracle_after = WcojOracle(after);
  ASSERT_NE(oracle_before, oracle_after) << "test premise";

  QueryEngine engine;
  engine.AddRelation("R", before);
  QueryServiceOptions so;
  so.enable_result_cache = true;  // cache without batching is valid
  QueryService service(&engine, so);

  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q).ok());

  VectorSink first;
  ExecStats s1;
  ASSERT_TRUE(service.Execute(q, first, {}, &s1).ok());
  EXPECT_FALSE(s1.result_cache_hit);
  EXPECT_EQ(Sorted(first.pairs()), oracle_before);

  VectorSink second;
  ExecStats s2;
  ASSERT_TRUE(service.Execute(q, second, {}, &s2).ok());
  EXPECT_TRUE(s2.result_cache_hit) << "identical repeat must replay";
  EXPECT_EQ(Sorted(second.pairs()), oracle_before);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(q.executions(), 1u) << "the hit never reached the engine";

  // A cached replay honours a limit client's semantics.
  PageSink page(0, 4);
  ExecStats s3;
  ASSERT_TRUE(service.Execute(q, page, {}, &s3).ok());
  EXPECT_TRUE(s3.result_cache_hit);
  EXPECT_EQ(page.pairs().size(), std::min<size_t>(4, oracle_before.size()));

  // Writer replaces R: new Prepares carry a new version, so the stale
  // entry is unreachable — the fresh query re-executes and sees new data.
  engine.AddRelation("R", after);
  PreparedQuery q2;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q2).ok());
  VectorSink fresh;
  ExecStats s4;
  ASSERT_TRUE(service.Execute(q2, fresh, {}, &s4).ok());
  EXPECT_FALSE(s4.result_cache_hit)
      << "the cache must never serve a pre-Put result to a new version";
  EXPECT_EQ(Sorted(fresh.pairs()), oracle_after);

  // The OLD prepared query still evaluates its own snapshot (the old
  // version's entry was swept, so it re-executes — exact, not stale-served).
  VectorSink old_snapshot;
  ExecStats s5;
  ASSERT_TRUE(service.Execute(q, old_snapshot, {}, &s5).ok());
  EXPECT_EQ(Sorted(old_snapshot.pairs()), oracle_before)
      << "snapshot isolation holds with the cache in the path";

  // And the new version now caches normally.
  VectorSink fresh2;
  ExecStats s6;
  ASSERT_TRUE(service.Execute(q2, fresh2, {}, &s6).ok());
  EXPECT_TRUE(s6.result_cache_hit);
  EXPECT_EQ(Sorted(fresh2.pairs()), oracle_after);
}

TEST(ResultCacheService, InterruptedAndTruncatedRunsAreNeverCached) {
  QueryEngine engine;
  engine.AddRelation("R", SkewedGraph(41));
  const auto oracle = WcojOracle(SkewedGraph(41));
  QueryServiceOptions so;
  so.enable_result_cache = true;
  QueryService service(&engine, so);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec("R"), &q).ok());

  // A limit-driven run short-circuits (skips work) — must not be inserted,
  // or the next full client would replay a prefix as the whole answer.
  PageSink limited(0, 1);
  ASSERT_TRUE(service.Execute(q, limited, {}).ok());
  VectorSink full;
  ExecStats stats;
  ASSERT_TRUE(service.Execute(q, full, {}, &stats).ok());
  EXPECT_EQ(Sorted(full.pairs()), oracle)
      << "full client after a limit client must see the full answer";
  EXPECT_EQ(Sorted(full.pairs()).size(), oracle.size());
}

// A ranked sink through the service: as a FanoutSink target of a batch
// (with the cache on, every executing leader fans out to the recorder tap,
// so the ranked client is a fan-out target whether it leads or follows)
// and as the sink of a cached replay, it must equal the full-sort oracle's
// prefix — the service-mix top-k request path.
TEST(ResultCacheService, RankedSinkThroughBatchAndReplayMatchesOracle) {
  const BinaryRelation rel = SkewedGraph(43);
  std::vector<CountedPair> oracle = WcojOracleCounted(rel);
  std::sort(oracle.begin(), oracle.end(),
            [](const CountedPair& a, const CountedPair& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.x != b.x) return a.x < b.x;
              return a.z < b.z;
            });
  constexpr size_t kTop = 7;
  ASSERT_GT(oracle.size(), kTop) << "test premise";
  const std::vector<CountedPair> prefix(oracle.begin(), oracle.begin() + kTop);

  QueryEngine engine;
  engine.AddRelation("R", rel);
  QueryServiceOptions so;
  so.enable_batching = true;
  so.batch_window_ms = 150;
  so.enable_result_cache = true;
  QueryService service(&engine, so);
  QuerySpec spec = TwoPathSpec("R");
  spec.count_witnesses = true;
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(spec, &q).ok());

  OrderedBySink ranked(ResultOrder::kCountDescending, kTop);
  VectorSink full;
  ResultSink* sinks[2] = {&ranked, &full};
  FailureLog log(2);
  std::latch start(2);
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      QueryStatus st = service.Execute(q, *sinks[c], {});
      if (!st.ok()) log.Record(c, st.message());
    });
  }
  for (auto& t : threads) t.join();
  log.AssertClean();
  EXPECT_EQ(ranked.ranked(), prefix);
  EXPECT_EQ(Sorted(full.counted()), WcojOracleCounted(rel));

  OrderedBySink replayed(ResultOrder::kCountDescending, kTop);
  ExecStats stats;
  ASSERT_TRUE(service.Execute(q, replayed, {}, &stats).ok());
  EXPECT_TRUE(stats.result_cache_hit) << "the complete batch run was cached";
  EXPECT_EQ(replayed.ranked(), prefix);
}

TEST(ResultCacheUnit, LruEvictsAndInvalidationSweeps) {
  ResultCache::Options co;
  co.max_bytes = 3000;
  co.max_entry_bytes = 2000;
  ResultCache cache(co);

  auto make_entry = [](size_t pairs) {
    ResultCache::Entry e;
    e.results.pairs.resize(pairs);
    for (size_t i = 0; i < pairs; ++i)
      e.results.pairs[i] = {static_cast<Value>(i), static_cast<Value>(i)};
    return e;
  };
  // ~256 fixed + pairs bytes each; three ~1k entries exceed 3000.
  cache.Insert({7, 1}, make_entry(100));
  cache.Insert({7, 2}, make_entry(100));
  EXPECT_EQ(cache.entries(), 2u);
  cache.Insert({7, 3}, make_entry(100));
  EXPECT_LT(cache.entries(), 3u) << "byte cap must evict the LRU tail";

  // Oversized entries are rejected outright.
  cache.Insert({7, 4}, make_entry(1000));
  VectorSink sink;
  ExecStats stats;
  EXPECT_FALSE(cache.Replay({7, 4}, sink, &stats, nullptr, -1));

  // Version sweep: entries from other catalog versions are dropped.
  const size_t live_before = cache.entries();
  ASSERT_GT(live_before, 0u);
  cache.InvalidateStale(8);
  EXPECT_EQ(cache.entries(), 0u);
  cache.Insert({8, 1}, make_entry(10));
  cache.InvalidateStale(8);  // same version: no-op
  EXPECT_EQ(cache.entries(), 1u);
}

// ---- Satellite: density-grid remap reuse across executions ---------------

TEST(DensityGridReuse, SecondExecutionHitsThePartitionMemo) {
  QueryEngine engine;
  engine.AddRelation("R", SkewedGraph(43));
  const auto oracle = WcojOracle(SkewedGraph(43));
  QuerySpec spec = TwoPathSpec("R");
  spec.strategy = Strategy::kMmJoin;  // guarantee the heavy product runs
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(spec, &q).ok());

  ExecOptions exec;
  exec.thresholds = Thresholds{1, 1};  // everything heavy: grid engages
  exec.partition = PartitionMode::kForce;

  VectorSink s1;
  ExecStats st1;
  ASSERT_TRUE(engine.Execute(q, s1, exec, &st1).ok());
  ASSERT_TRUE(st1.partition_used) << "test premise: the grid must run";
  EXPECT_FALSE(st1.partition_cache_hit) << "first run builds the remap";

  VectorSink s2;
  ExecStats st2;
  ASSERT_TRUE(engine.Execute(q, s2, exec, &st2).ok());
  EXPECT_TRUE(st2.partition_cache_hit)
      << "same thresholds + gates on the same snapshots must reuse the grid";
  EXPECT_EQ(st2.partition_signature, st1.partition_signature);
  EXPECT_EQ(Sorted(s1.pairs()), oracle);
  EXPECT_EQ(Sorted(s2.pairs()), oracle) << "memo reuse must not change results";

  // A different execution key (row-block shape via thresholds) must miss.
  ExecOptions other = exec;
  other.thresholds = Thresholds{2, 4};
  VectorSink s3;
  ExecStats st3;
  ASSERT_TRUE(engine.Execute(q, s3, other, &st3).ok());
  if (st3.partition_used) {
    EXPECT_FALSE(st3.partition_cache_hit)
        << "changed thresholds must not reuse a mismatched grid";
  }
  EXPECT_EQ(Sorted(s3.pairs()), oracle);
}

}  // namespace
}  // namespace jpmm
