// Unit tests for src/common: rng, zipf, stamp sets, thread pool,
// hashing.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/stamp_set.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace jpmm {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(7);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> buckets(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.NextBounded(10)];
  for (int b : buckets) {
    EXPECT_GT(b, kDraws / 10 * 0.9);
    EXPECT_LT(b, kDraws / 10 * 1.1);
  }
}

TEST(Zipf, UniformWhenThetaZero) {
  ZipfSampler z(100, 0.0, 9);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.Sample()];
  // Every rank drawn at least once, max/min ratio bounded.
  int mn = counts[0], mx = counts[0];
  for (int c : counts) {
    mn = std::min(mn, c);
    mx = std::max(mx, c);
  }
  EXPECT_GT(mn, 0);
  EXPECT_LT(mx, 3 * mn);
}

TEST(Zipf, SkewFavoursLowRanks) {
  ZipfSampler z(1000, 1.0, 13);
  int low = 0, high = 0;
  for (int i = 0; i < 100000; ++i) {
    const uint32_t r = z.Sample();
    if (r < 10) ++low;
    if (r >= 500) ++high;
  }
  // Theory for theta=1, n=1000: P(rank<10)/P(rank>=500) ~ 4.2.
  EXPECT_GT(low, 3 * high);
}

TEST(Zipf, SamplesWithinRange) {
  ZipfSampler z(7, 1.5, 1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(z.Sample(), 7u);
}

TEST(StampSet, InsertAndEpochClear) {
  StampSet s(10);
  EXPECT_TRUE(s.Insert(3));
  EXPECT_FALSE(s.Insert(3));
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(4));
  s.NewEpoch();
  EXPECT_FALSE(s.Contains(3));
  EXPECT_TRUE(s.Insert(3));
}

TEST(StampSet, ManyEpochsStayCorrect) {
  StampSet s(4);
  for (int e = 0; e < 1000; ++e) {
    s.NewEpoch();
    EXPECT_TRUE(s.Insert(e % 4));
    EXPECT_FALSE(s.Insert(e % 4));
  }
}

TEST(StampCounter, AddAndGet) {
  StampCounter c(8);
  EXPECT_EQ(c.Add(2, 5), 0u);
  EXPECT_EQ(c.Add(2, 3), 5u);
  EXPECT_EQ(c.Get(2), 8u);
  EXPECT_EQ(c.Get(3), 0u);
  c.NewEpoch();
  EXPECT_EQ(c.Get(2), 0u);
  EXPECT_EQ(c.Add(2, 1), 0u);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

// Regression: a throwing task used to skip the in_flight_ decrement, so
// WaitIdle() deadlocked forever. The decrement is now unconditional and the
// exception is rethrown by WaitIdle instead of being lost.
TEST(ThreadPool, ThrowingTaskDoesNotDeadlockWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(pool.WaitIdle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 10);
  // The pool survives the exception and keeps executing.
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.WaitIdle();  // must not hang, must not rethrow a stale error
  EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, GrowsButNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.num_threads(), 3);
  pool.EnsureWorkers(2);  // no-op
  EXPECT_EQ(pool.num_threads(), 3);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(threads, hits.size(), [&](size_t b, size_t e, int) {
      for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(4, 0, [&](size_t, size_t, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, WorkerIdsAreDistinctChunks) {
  std::vector<int> owner(100, -1);
  ParallelFor(4, owner.size(), [&](size_t b, size_t e, int w) {
    for (size_t i = b; i < e; ++i) owner[i] = w;
  });
  // Chunks are contiguous and non-decreasing in worker id.
  for (size_t i = 1; i < owner.size(); ++i) {
    EXPECT_GE(owner[i], owner[i - 1]);
  }
}

// Pool-reuse regression: ParallelFor used to spawn fresh std::threads on
// every call. It now runs on the persistent process-wide pool, so after a
// warm-up call at a given width, repeated calls spawn NOTHING.
TEST(ParallelFor, ReusesPoolAcrossCalls) {
  std::atomic<size_t> sink{0};
  ParallelFor(4, 64, [&](size_t b, size_t e, int) {
    sink.fetch_add(e - b);
  });  // warm-up: may grow the global pool
  const size_t spawned = ThreadPool::TotalThreadsSpawned();
  for (int call = 0; call < 25; ++call) {
    ParallelFor(4, 64, [&](size_t b, size_t e, int) {
      sink.fetch_add(e - b);
    });
    ParallelForDynamic(4, 64, 8, [&](size_t b, size_t e, int) {
      sink.fetch_add(e - b);
    });
  }
  EXPECT_EQ(ThreadPool::TotalThreadsSpawned(), spawned)
      << "ParallelFor spawned threads per call instead of reusing the pool";
  EXPECT_EQ(sink.load(), 64u * 51u);
}

TEST(ParallelFor, PropagatesExceptionToCaller) {
  EXPECT_THROW(
      ParallelFor(4, 100,
                  [](size_t b, size_t, int) {
                    if (b >= 50) throw std::runtime_error("chunk failed");
                  }),
      std::runtime_error);
  // The pool is still healthy afterwards.
  std::atomic<int> hits{0};
  ParallelFor(4, 8, [&](size_t b, size_t e, int) {
    hits.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(hits.load(), 8);
}

TEST(ParallelFor, NestedCallRunsInlineWithoutDeadlock) {
  std::atomic<int> inner_total{0};
  ParallelFor(4, 8, [&](size_t, size_t, int) {
    // Re-entering the pool from a pool task must not deadlock: on a pool
    // thread the nested call collapses to inline execution (single chunk,
    // worker 0). The outer chunk run by the calling thread is not on a pool
    // thread and may legitimately fan out again.
    const bool on_pool = ThreadPool::OnPoolThread();
    ParallelForDynamic(4, 10, 2, [&, on_pool](size_t b, size_t e, int w) {
      if (on_pool) EXPECT_EQ(w, 0);
      inner_total.fetch_add(static_cast<int>(e - b));
    });
  });
  // Every outer chunk covered [0, 10) exactly once.
  EXPECT_GE(inner_total.load(), 10);
  EXPECT_EQ(inner_total.load() % 10, 0);
}

TEST(ParallelForDynamic, CoversRangeExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    for (size_t grain : {1u, 3u, 64u, 1000u, 5000u}) {
      std::vector<std::atomic<int>> hits(1000);
      ParallelForDynamic(threads, hits.size(), grain,
                         [&](size_t b, size_t e, int) {
                           for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
                         });
      for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ParallelForDynamic, EmptyRangeIsNoop) {
  bool called = false;
  ParallelForDynamic(4, 0, 16, [&](size_t, size_t, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForDynamic, WorkerIndicesStayInBounds) {
  const int threads = 3;
  std::vector<std::atomic<int>> per_worker(threads);
  ParallelForDynamic(threads, 500, 7, [&](size_t b, size_t e, int w) {
    ASSERT_GE(w, 0);
    ASSERT_LT(w, threads);
    per_worker[static_cast<size_t>(w)].fetch_add(static_cast<int>(e - b));
  });
  int total = 0;
  for (auto& c : per_worker) total += c.load();
  EXPECT_EQ(total, 500);
}

TEST(ParallelForDynamic, ChunksRespectGrainBoundaries) {
  // On the pooled (non-inline) path every claimed range starts on a grain
  // boundary and spans at most one grain.
  const size_t grain = 16;
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> ranges;
  ParallelForDynamic(4, 100, grain, [&](size_t b, size_t e, int) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(b, e);
  });
  for (const auto& [b, e] : ranges) {
    EXPECT_EQ(b % grain, 0u);
    EXPECT_LE(e - b, grain);
    EXPECT_LE(e, 100u);
  }
}

TEST(Hash, PackUnpackRoundTrip) {
  const OutPair p{123456, 654321};
  const uint64_t key = PackPair(p.x, p.z);
  const OutPair q = UnpackPair(key);
  EXPECT_EQ(p, q);
}

TEST(Hash, Mix64Avalanches) {
  // Neighbouring inputs should produce very different outputs.
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) outs.insert(Mix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

}  // namespace
}  // namespace jpmm
