// QueryService overload behaviour + FailPoint fault injection.
//
// Covers the serving contract end to end: sheds with a structured
// kOverloaded when the admission queue is full, FIFO-admits queued
// requests as slots free, honours deadlines while QUEUED (nothing
// executes), degrades MM plans under the memory cap and under admission
// pressure without changing results, and contains injected faults
// (FailPoints in pool dispatch, CSR build, packing, catalog swap) as
// kInternal while continuing to serve.
//
// The FaultSuite test is the nightly recipe (all sites armed at a small
// probability, many iterations); knobs:
//   JPMM_FAULT_ITERS     iterations (default 25; nightly runs 200)
//   JPMM_FAULT_PROB      per-site trigger probability (default 0.05;
//                        nightly runs 0.01)
//   JPMM_FAULT_ARTIFACT  failing-repro file (default
//                        query_service_fault_failures.txt)
//   JPMM_FAILPOINT_SEED  replays the per-thread fault draws (failpoint.h)

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "core/result_sink.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::OracleTwoPath;
using testutil::Sorted;
using testutil::TwoPathSpec;

int EnvInt(const char* name, int def) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? def : std::atoi(v);
}

double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? def : std::atof(v);
}

std::string FaultArtifactPath() {
  const char* v = std::getenv("JPMM_FAULT_ARTIFACT");
  return (v == nullptr || *v == '\0') ? "query_service_fault_failures.txt" : v;
}

void RecordFailure(const std::string& line) {
  std::FILE* f = std::fopen(FaultArtifactPath().c_str(), "a");
  if (f != nullptr) {
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
  }
}

BinaryRelation SmallGraph() {
  return CommunityGraph(/*communities=*/3, /*community_size=*/40,
                        /*p_in=*/0.4, /*seed=*/5);
}


// Parks the executing worker inside the first delivery until Release(),
// keeping its admission slot occupied — the lever every overload test
// uses to create deterministic contention.
class GateSink : public ResultSink {
 public:
  class Sh : public Shard {
   public:
    explicit Sh(GateSink* parent) : parent_(parent) {}
    void OnPair(const OutPair&) override { parent_->Block(); }
    void OnCountedPair(const CountedPair&) override { parent_->Block(); }
    void OnTuple(std::span<const Value>) override { parent_->Block(); }

   private:
    GateSink* parent_;
  };

  void Open(int num_shards) override {
    shards_.clear();
    for (int i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Sh>(this));
    }
  }
  Shard& shard(int w) override { return *shards_[static_cast<size_t>(w)]; }
  void Finish() override { shards_.clear(); }

  void Block() {
    std::unique_lock<std::mutex> lk(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lk, [&] { return released_; });
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
  std::vector<std::unique_ptr<Sh>> shards_;
};

// ---- Admission control ---------------------------------------------------

TEST(QueryService, ShedsWithStructuredOverloadedWhenQueueFull) {
  const BinaryRelation rel = SmallGraph();
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  QueryServiceOptions so;
  so.max_inflight = 1;
  so.queue_depth = 0;  // no waiting room: the second arrival is shed
  QueryService service(&engine, so);

  GateSink gate;
  QueryStatus first_st = QueryStatus::Ok();
  std::thread t1([&] {
    first_st = service.Run(TwoPathSpec(), gate, ServiceRequest{});
  });
  gate.WaitEntered();

  VectorSink sink;
  QueryStatus st = service.Run(TwoPathSpec(), sink, ServiceRequest{});
  EXPECT_EQ(st.code(), StatusCode::kOverloaded) << st.message();
  EXPECT_EQ(st.queue_depth(), 0u);
  EXPECT_GT(st.retry_after_ms(), 0);
  EXPECT_TRUE(sink.pairs().empty());

  gate.Release();
  t1.join();
  EXPECT_TRUE(first_st.ok()) << first_st.message();
  const ServiceStats ss = service.stats();
  EXPECT_EQ(ss.shed, 1u);
  EXPECT_EQ(ss.admitted, 1u);
  EXPECT_EQ(service.inflight(), 0);
}

TEST(QueryService, QueuedRequestsAdmitWhenSlotFreesAndStayExact) {
  const BinaryRelation rel = SmallGraph();
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  const auto oracle = OracleTwoPath(rel, rel);
  QueryServiceOptions so;
  so.max_inflight = 1;
  so.queue_depth = 4;
  QueryService service(&engine, so);

  GateSink gate;
  QueryStatus gate_st = QueryStatus::Ok();
  std::thread t1([&] {
    gate_st = service.Run(TwoPathSpec(), gate, ServiceRequest{});
  });
  gate.WaitEntered();

  std::vector<QueryStatus> sts(2, QueryStatus::Ok());
  std::vector<std::unique_ptr<VectorSink>> sinks;
  sinks.push_back(std::make_unique<VectorSink>());
  sinks.push_back(std::make_unique<VectorSink>());
  std::vector<std::thread> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&, i] {
      sts[static_cast<size_t>(i)] =
          service.Run(TwoPathSpec(), *sinks[static_cast<size_t>(i)],
                      ServiceRequest{});
    });
  }
  // Both must be parked in the admission queue, not executing.
  while (service.queued() < 2) std::this_thread::yield();
  EXPECT_EQ(service.inflight(), 1);

  gate.Release();
  t1.join();
  for (auto& t : waiters) t.join();
  EXPECT_TRUE(gate_st.ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(sts[static_cast<size_t>(i)].ok())
        << sts[static_cast<size_t>(i)].message();
    EXPECT_EQ(Sorted(sinks[static_cast<size_t>(i)]->pairs()), oracle)
        << "queued execution " << i << " must stay bit-identical";
  }
  const ServiceStats ss = service.stats();
  EXPECT_EQ(ss.admitted, 3u);
  EXPECT_EQ(ss.shed, 0u);
  EXPECT_EQ(ss.max_queue_depth, 2u);
}

TEST(QueryService, DeadlineWhileQueuedReturnsWithoutExecuting) {
  const BinaryRelation rel = SmallGraph();
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  QueryServiceOptions so;
  so.max_inflight = 1;
  so.queue_depth = 4;
  QueryService service(&engine, so);

  GateSink gate;
  QueryStatus gate_st = QueryStatus::Ok();
  std::thread t1([&] {
    gate_st = service.Run(TwoPathSpec(), gate, ServiceRequest{});
  });
  gate.WaitEntered();

  VectorSink sink;
  ServiceRequest req;
  req.deadline_ms = 40;
  ExecStats stats;
  QueryStatus st = service.Run(TwoPathSpec(), sink, req, &stats);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.message();
  EXPECT_TRUE(sink.pairs().empty()) << "nothing may execute after a queue "
                                       "timeout";
  EXPECT_EQ(stats.light_chunks_executed, 0u);
  EXPECT_FALSE(stats.interrupted);  // never started, so never truncated

  gate.Release();
  t1.join();
  EXPECT_TRUE(gate_st.ok());
  EXPECT_EQ(service.stats().queue_timeouts, 1u);
  EXPECT_EQ(service.queued(), 0u);
}

TEST(QueryService, ExplicitCancelWhileQueued) {
  const BinaryRelation rel = SmallGraph();
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  QueryServiceOptions so;
  so.max_inflight = 1;
  so.queue_depth = 4;
  QueryService service(&engine, so);

  GateSink gate;
  std::thread t1([&] { service.Run(TwoPathSpec(), gate, ServiceRequest{}); });
  gate.WaitEntered();

  CancelToken token;
  ServiceRequest req;
  req.exec.cancel = &token;
  VectorSink sink;
  QueryStatus st = QueryStatus::Ok();
  std::thread t2([&] { st = service.Run(TwoPathSpec(), sink, req); });
  while (service.queued() < 1) std::this_thread::yield();
  token.RequestCancel();
  t2.join();
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.message();
  EXPECT_TRUE(sink.pairs().empty());

  gate.Release();
  t1.join();
}

// ---- Graceful degradation ------------------------------------------------

TEST(QueryService, DegradesMmUnderMemoryCapAndStaysExact) {
  const BinaryRelation rel = SmallGraph();
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  const auto oracle = OracleTwoPath(rel, rel);
  QueryServiceOptions so;
  so.memory_budget_bytes = 1 << 20;
  so.min_mm_bytes = uint64_t{1} << 30;  // share always below the MM floor
  QueryService service(&engine, so);

  VectorSink sink;
  ExecStats stats;
  QueryStatus st = service.Run(TwoPathSpec(Strategy::kMmJoin), sink,
                               ServiceRequest{}, &stats);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.degrade_reason, DegradeReason::kMemoryCap);
  EXPECT_EQ(stats.executed, Strategy::kNonMmJoin)
      << "the degraded run must actually take the combinatorial path";
  EXPECT_EQ(Sorted(sink.pairs()), oracle)
      << "degradation trades speed, never correctness";
  EXPECT_EQ(service.stats().degraded, 1u);
}

TEST(QueryService, DegradesUnderAdmissionPressureAndStaysExact) {
  const BinaryRelation rel = SmallGraph();
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  const auto oracle = OracleTwoPath(rel, rel);
  QueryServiceOptions so;
  so.max_inflight = 1;
  so.queue_depth = 8;
  so.degrade_queue_threshold = 1;  // any backlog at admit time degrades
  QueryService service(&engine, so);

  GateSink gate;
  std::thread t1([&] { service.Run(TwoPathSpec(), gate, ServiceRequest{}); });
  gate.WaitEntered();

  std::vector<std::unique_ptr<VectorSink>> sinks;
  std::vector<QueryStatus> sts(2, QueryStatus::Ok());
  std::vector<std::thread> waiters;
  sinks.push_back(std::make_unique<VectorSink>());
  sinks.push_back(std::make_unique<VectorSink>());
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&, i] {
      sts[static_cast<size_t>(i)] = service.Run(
          TwoPathSpec(Strategy::kMmJoin), *sinks[static_cast<size_t>(i)],
          ServiceRequest{});
    });
  }
  while (service.queued() < 2) std::this_thread::yield();
  gate.Release();
  t1.join();
  for (auto& t : waiters) t.join();

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(sts[static_cast<size_t>(i)].ok());
    EXPECT_EQ(Sorted(sinks[static_cast<size_t>(i)]->pairs()), oracle);
  }
  // The first drained waiter saw the other one still queued, so at least
  // one execution degraded under admission pressure.
  EXPECT_GE(service.stats().degraded, 1u);
}

// ---- Retry helper --------------------------------------------------------

TEST(QueryService, RetryWithBackoffRetriesOnlyOverloaded) {
  int calls = 0;
  RetryOptions ro;
  ro.max_attempts = 5;
  ro.base_ms = 1;
  ro.max_ms = 2;
  QueryStatus st = RetryWithBackoff(
      [&] {
        ++calls;
        if (calls < 3) return QueryStatus::Overloaded("full", 4, 1);
        return QueryStatus::Ok();
      },
      ro);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);

  calls = 0;
  st = RetryWithBackoff(
      [&] {
        ++calls;
        return QueryStatus::InvalidArgument("bad");
      },
      ro);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1) << "non-overloaded outcomes must not retry";

  calls = 0;
  st = RetryWithBackoff(
      [&] {
        ++calls;
        return QueryStatus::Overloaded("still full", 9, 1);
      },
      ro);
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  EXPECT_EQ(st.queue_depth(), 9u) << "the last rejection surfaces verbatim";
  EXPECT_EQ(calls, 5);

  CancelToken token;
  token.RequestCancel();
  calls = 0;
  st = RetryWithBackoff(
      [&] {
        ++calls;
        return QueryStatus::Ok();
      },
      ro, &token);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(calls, 0) << "a fired token aborts before the first attempt";
}

// ---- FailPoint containment -----------------------------------------------

struct FailPointGuard {
  ~FailPointGuard() { FailPoints::DeactivateAll(); }
};

TEST(QueryServiceFault, CatalogPutHasStrongExceptionSafety) {
  FailPointGuard guard;
  const BinaryRelation rel = SmallGraph();
  QueryEngine engine;
  FailPoints::Activate("catalog.put", FailPoints::Action::kThrow, 1.0);
  EXPECT_THROW(engine.catalog().Put("R", rel), FailPointError);
  EXPECT_EQ(FailPoints::TriggerCount("catalog.put"), 1u);
  EXPECT_EQ(engine.catalog().IndexSnapshot("R"), nullptr)
      << "a failed Put must not install the entry";
  FailPoints::Deactivate("catalog.put");
  engine.catalog().Put("R", rel);
  EXPECT_NE(engine.catalog().IndexSnapshot("R"), nullptr);
}

TEST(QueryServiceFault, InjectedThrowBecomesInternalAndServiceRecovers) {
  FailPointGuard guard;
  const BinaryRelation rel = SmallGraph();
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  const auto oracle = OracleTwoPath(rel, rel);
  QueryService service(&engine, {});

  ServiceRequest req;
  req.exec.threads = 3;
  req.exec.thresholds = Thresholds{1, 1};  // force a real heavy part
  req.exec.heavy_path = HeavyPathMode::kForceDense;  // exercise packing

  uint64_t internal_before = 0;
  for (const char* site : {"pool.dispatch", "csr.build", "matmul.pack"}) {
    // Prepare outside the fault window so each site is exercised against
    // execution (Prepare-time faults are contained too, via Run). A fresh
    // query per site: a warm one reuses its memoized operands and packed
    // panels, so it would reach neither the CSR build nor the pack.
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(TwoPathSpec(Strategy::kMmJoin), &q).ok());
    FailPoints::Activate(site, FailPoints::Action::kThrow, 1.0);
    VectorSink sink;
    QueryStatus st = service.Execute(q, sink, req);
    EXPECT_EQ(st.code(), StatusCode::kInternal) << site << ": " << st.message();
    EXPECT_GT(FailPoints::TriggerCount(site), 0u) << site;
    FailPoints::Deactivate(site);

    const ServiceStats ss = service.stats();
    EXPECT_EQ(ss.internal_errors, internal_before + 1) << site;
    internal_before = ss.internal_errors;
    EXPECT_EQ(service.inflight(), 0)
        << site << ": the slot must be released on the exception path";

    // The very next query must succeed, bit-identically.
    VectorSink ok_sink;
    st = service.Execute(q, ok_sink, req);
    ASSERT_TRUE(st.ok()) << site << " aftermath: " << st.message();
    EXPECT_EQ(Sorted(ok_sink.pairs()), oracle) << site;
  }
}

TEST(QueryServiceFault, SleepFailPointDelaysButStaysCorrect) {
  FailPointGuard guard;
  const BinaryRelation rel = SmallGraph();
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  const auto oracle = OracleTwoPath(rel, rel);
  QueryService service(&engine, {});

  FailPoints::Activate("pool.dispatch", FailPoints::Action::kSleep, 0.5,
                       /*sleep_ms=*/1);
  ServiceRequest req;
  req.exec.threads = 3;
  VectorSink sink;
  QueryStatus st = service.Run(TwoPathSpec(), sink, req);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(Sorted(sink.pairs()), oracle)
      << "a slow path is still an exact path";
}

// ---- FaultSuite: the nightly randomized recipe ---------------------------
//
// Every site armed at a small probability, many iterations, concurrent
// clients: each query must end Ok (bit-identical), explicitly interrupted,
// or kInternal — never wrong, never a deadlock, never a wedged service.

TEST(QueryServiceFault, FaultSuite) {
  FailPointGuard guard;
  const int iters = EnvInt("JPMM_FAULT_ITERS", 25);
  const double prob = EnvDouble("JPMM_FAULT_PROB", 0.05);

  const BinaryRelation rel = SmallGraph();
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  const auto oracle = OracleTwoPath(rel, rel);
  QueryServiceOptions so;
  so.max_inflight = 2;
  so.queue_depth = 4;
  QueryService service(&engine, so);
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec(Strategy::kMmJoin), &q).ok());

  for (const char* site :
       {"pool.dispatch", "csr.build", "matmul.pack", "catalog.put"}) {
    FailPoints::Activate(site, FailPoints::Action::kThrow, prob);
  }

  std::atomic<int> wrong{0};
  std::atomic<uint64_t> ok_runs{0}, internal_runs{0}, other_runs{0};
  const int kClients = 3;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServiceRequest req;
      req.exec.threads = 2;
      req.exec.thresholds = Thresholds{1, 1};
      for (int i = 0; i < iters; ++i) {
        VectorSink sink;
        QueryStatus st = service.Execute(q, sink, req);
        switch (st.code()) {
          case StatusCode::kOk:
            ok_runs.fetch_add(1, std::memory_order_relaxed);
            if (Sorted(sink.pairs()) != oracle) {
              wrong.fetch_add(1, std::memory_order_relaxed);
              RecordFailure("FaultSuite wrong-result client=" +
                            std::to_string(c) + " iter=" + std::to_string(i) +
                            " prob=" + std::to_string(prob));
            }
            break;
          case StatusCode::kInternal:
            internal_runs.fetch_add(1, std::memory_order_relaxed);
            break;
          case StatusCode::kOverloaded:
            other_runs.fetch_add(1, std::memory_order_relaxed);
            break;
          default:
            other_runs.fetch_add(1, std::memory_order_relaxed);
            RecordFailure("FaultSuite unexpected-status client=" +
                          std::to_string(c) + " iter=" + std::to_string(i) +
                          " status=" + StatusCodeName(st.code()) + " msg=" +
                          st.message());
            wrong.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        // The catalog swap site: a failed Put must leave the served
        // relation fully readable.
        if (i % 8 == c) {
          try {
            engine.catalog().Put("scratch", rel);
          } catch (const FailPointError&) {
            // contained; the serving name must be unaffected
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  FailPoints::DeactivateAll();

  EXPECT_EQ(wrong.load(), 0)
      << "see " << FaultArtifactPath() << " for repro lines";
  EXPECT_EQ(service.inflight(), 0) << "no leaked admission slots";
  // Sanity: the suite exercised both the happy and the faulty path (with
  // default knobs; a probability of 0 legitimately yields no faults).
  if (prob > 0.0 && iters * kClients >= 50) {
    EXPECT_GT(ok_runs.load() + internal_runs.load(), 0u);
  }
  // After the storm: service still serves, exactly.
  VectorSink sink;
  ServiceRequest req;
  QueryStatus st = service.Execute(q, sink, req);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(Sorted(sink.pairs()), oracle);
}

}  // namespace
}  // namespace jpmm
