// TraceRecorder + end-to-end span-tree tests.
//
// The balance invariant is the contract everything downstream (the CLI
// renderer, the coverage number, embedder dashboards) relies on: every
// opened span is closed on EVERY exit path — normal completion, limit
// early-exit, explicit cancel, and deadline truncation — and the per-kernel
// block spans agree exactly with ExecStats block accounting
// (executed + skipped == total).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "core/cancel_token.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "core/result_sink.h"
#include "core/trace.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::TwoPathSpec;

// ---- Recorder unit tests -------------------------------------------------

TEST(TraceRecorder, NestedSpansAndBalance) {
  TraceRecorder rec;
  const auto root = rec.Begin("root");
  const auto child = rec.Begin("child", root);
  EXPECT_FALSE(rec.AllClosed());
  rec.End(child, "detail");
  rec.End(root);
  EXPECT_TRUE(rec.AllClosed());
  ASSERT_EQ(rec.size(), 2u);
  const std::vector<TraceSpan> spans = rec.spans();
  EXPECT_EQ(spans[0].parent, TraceRecorder::kNoParent);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].detail, "detail");
  EXPECT_GE(spans[0].end_s, spans[0].begin_s);
}

TEST(TraceRecorder, ScopeRaiiIsIdempotentAndNullSafe) {
  TraceRecorder rec;
  {
    TraceRecorder::Scope s(&rec, "a");
    s.Close("done");
    s.Close();  // second close is a no-op
  }
  EXPECT_TRUE(rec.AllClosed());
  EXPECT_EQ(rec.spans()[0].detail, "done");

  {
    TraceRecorder::Scope null_scope(nullptr, "ghost");
    EXPECT_EQ(null_scope.id(), TraceRecorder::kNoParent);
  }  // must not crash
  EXPECT_EQ(TraceBegin(nullptr, "ghost"), TraceRecorder::kNoParent);
  TraceEnd(nullptr, TraceRecorder::kNoParent);

  {
    TraceRecorder::Scope a(&rec, "moved");
    TraceRecorder::Scope b(std::move(a));
  }  // exactly one close despite two destructors
  EXPECT_TRUE(rec.AllClosed());
  EXPECT_EQ(rec.CountNamed("moved"), 1u);
}

TEST(TraceRecorder, LeakedSpanDetected) {
  TraceRecorder rec;
  rec.Begin("leaked");
  EXPECT_FALSE(rec.AllClosed());
}

TEST(TraceRecorder, CountNamedAndRender) {
  TraceRecorder rec;
  const auto root = rec.Begin("root");
  for (int i = 0; i < 3; ++i) rec.End(rec.Begin("block:dense", root));
  rec.End(rec.Begin("block:csr-csr", root));
  rec.End(root);
  EXPECT_EQ(rec.CountNamed("block:dense"), 3u);
  EXPECT_EQ(rec.CountNamed("block:csr-csr"), 1u);
  EXPECT_EQ(rec.CountNamed("missing"), 0u);
  const std::string tree = rec.Render();
  EXPECT_NE(tree.find("root"), std::string::npos);
  EXPECT_NE(tree.find("block:dense x3"), std::string::npos);
}

TEST(TraceRecorder, ChildCoverageFullyAttributedTree) {
  TraceRecorder rec;
  const auto root = rec.Begin("root");
  const auto child = rec.Begin("stage", root);
  // Busy-wait a hair so durations are nonzero even on coarse clocks.
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(2);
  while (std::chrono::steady_clock::now() < until) {
  }
  rec.End(child);
  rec.End(root);
  EXPECT_GT(rec.ChildCoverage(), 0.5);
  EXPECT_LE(rec.ChildCoverage(), 1.0 + 1e-9);
}

// ---- End-to-end: engine span trees ---------------------------------------

BinaryRelation SkewedGraph() {
  return CommunityGraph(/*communities=*/4, /*community_size=*/60,
                        /*p_in=*/0.5, /*seed=*/11);
}


// Every span in an ExecStats::trace_spans copy must be closed.
void ExpectAllSpansClosed(const std::vector<TraceSpan>& spans) {
  ASSERT_FALSE(spans.empty());
  for (const TraceSpan& s : spans) {
    EXPECT_GE(s.end_s, 0.0) << "open span leaked: " << s.name;
    EXPECT_GE(s.end_s, s.begin_s) << s.name;
  }
}

uint64_t BlockSpanCount(const TraceRecorder& rec) {
  return static_cast<uint64_t>(rec.CountNamed("block:dense") +
                               rec.CountNamed("block:csr-dense") +
                               rec.CountNamed("block:csr-csr"));
}

// MMJoin and Non-MMJoin share one light pass, so both trace one
// "light-chunk" span per executed light chunk.
TEST(TraceEndToEnd, MmJoinSpanTreeBalancedWithBlockAttribution) {
  QueryEngine engine;
  engine.catalog().Put("R", SkewedGraph());
  for (Strategy s : {Strategy::kMmJoin, Strategy::kNonMmJoin}) {
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(TwoPathSpec(s), &q).ok());

    TraceRecorder trace;
    ExecOptions exec;
    exec.trace = &trace;
    exec.thresholds = {8, 8};  // force a real heavy part
    CountOnlySink sink;
    ExecStats stats;
    ASSERT_TRUE(engine.Execute(q, sink, exec, &stats).ok());

    const char* what = StrategyName(s);
    EXPECT_TRUE(trace.AllClosed()) << what;
    ExpectAllSpansClosed(stats.trace_spans);
    EXPECT_EQ(trace.CountNamed("execute"), 1u) << what;
    EXPECT_EQ(trace.CountNamed("plan"), 1u) << what;
    EXPECT_GT(stats.heavy_blocks_total, 0u) << what;
    EXPECT_EQ(stats.heavy_blocks_executed + stats.heavy_blocks_skipped,
              stats.heavy_blocks_total)
        << what;
    EXPECT_GT(stats.light_chunks_executed, 0u) << what;
    EXPECT_EQ(trace.CountNamed("light-chunk"), stats.light_chunks_executed)
        << what;
    // Per-kernel block spans match the stats accounting exactly; the
    // combinatorial heavy step runs no product kernels.
    if (s == Strategy::kMmJoin) {
      EXPECT_EQ(BlockSpanCount(trace), stats.heavy_blocks_executed);
    }
  }
}

// A cold kAuto heavy product resolves the kernel rates it prices blocks
// with under its own "kernel-rates" span, a child of "heavy" opened before
// the decomposition; a memo hit prepares nothing and opens none.
TEST(TraceEndToEnd, KernelRatesSpanUnderHeavyOnColdAutoRun) {
  QueryEngine engine;
  engine.catalog().Put("R", SkewedGraph());
  for (PartitionMode partition : {PartitionMode::kOff, PartitionMode::kForce}) {
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(TwoPathSpec(Strategy::kMmJoin), &q).ok());
    for (bool warm : {false, true}) {
      const std::string where = std::string(PartitionModeName(partition)) +
                                (warm ? " warm" : " cold");
      TraceRecorder trace;
      ExecOptions exec;
      exec.trace = &trace;
      exec.thresholds = {8, 8};
      exec.heavy_path = HeavyPathMode::kAuto;
      exec.partition = partition;
      CountOnlySink sink;
      ExecStats stats;
      ASSERT_TRUE(engine.Execute(q, sink, exec, &stats).ok()) << where;
      ASSERT_GT(stats.heavy_blocks_executed, 0u) << where;
      EXPECT_EQ(stats.operand_cache_hit, warm) << where;
      // Spans are numbered in the order they open.
      const std::vector<TraceSpan> spans = trace.spans();
      int32_t heavy = -1, rates = -1, remap = -1, pack = -1;
      size_t rates_count = 0;
      for (size_t i = 0; i < spans.size(); ++i) {
        const std::string name = spans[i].name;
        const auto id = static_cast<int32_t>(i);
        if (name == "heavy") heavy = id;
        if (name == "degree-remap") remap = id;
        if (name == "pack") pack = id;
        if (name == "kernel-rates") {
          ++rates_count;
          rates = id;
          EXPECT_EQ(spans[i].parent, heavy) << where;
        }
      }
      EXPECT_EQ(rates_count, warm ? 0u : 1u) << where;
      if (warm) continue;
      EXPECT_LT(rates, pack) << where;
      if (partition != PartitionMode::kOff) EXPECT_LT(rates, remap) << where;
    }
  }
}

// The two-path's, the star's and the triangle's heavy products run on the
// same executor, so on the uniform plan each reports one per-kernel block
// span per executed chunk, and one "emit-inverse-remap" span per executed
// chunk after its kernels.
TEST(TraceEndToEnd, UniformPlanSpansMatchAccountingOnEveryQueryKind) {
  QueryEngine engine;
  engine.catalog().Put("R", SkewedGraph());
  engine.catalog().Put("G", testutil::HubGraph());
  QuerySpec star;
  star.kind = QueryKind::kStar;
  star.relations = {"R", "R", "R"};
  QuerySpec triangle;
  triangle.kind = QueryKind::kTriangle;
  triangle.relations = {"G"};
  for (const QuerySpec& spec :
       {TwoPathSpec(Strategy::kMmJoin), star, triangle}) {
    TraceRecorder trace;
    ExecOptions exec;
    exec.trace = &trace;
    exec.partition = PartitionMode::kOff;
    if (spec.kind != QueryKind::kTriangle) exec.thresholds = {8, 8};
    CountOnlySink sink;
    ExecStats stats;
    ASSERT_TRUE(engine.Run(spec, sink, exec, &stats).ok());
    const char* what = QueryKindName(spec.kind);
    EXPECT_TRUE(trace.AllClosed()) << what;
    EXPECT_GT(stats.heavy_blocks_total, 0u) << what;
    EXPECT_EQ(stats.heavy_blocks_executed, stats.heavy_blocks_total) << what;
    EXPECT_EQ(BlockSpanCount(trace), stats.heavy_blocks_executed) << what;
    EXPECT_EQ(trace.CountNamed("emit-inverse-remap"),
              stats.heavy_blocks_executed)
        << what;
    EXPECT_EQ(trace.CountNamed("block:dense"), stats.kernel_counts.dense);
    EXPECT_EQ(trace.CountNamed("block:csr-dense"),
              stats.kernel_counts.csr_dense);
    EXPECT_EQ(trace.CountNamed("block:csr-csr"), stats.kernel_counts.csr_csr);
  }
}

TEST(TraceEndToEnd, SpanTreeBalancedOnEveryStrategy) {
  QueryEngine engine;
  engine.catalog().Put("R", SkewedGraph());
  for (Strategy s : {Strategy::kMmJoin, Strategy::kNonMmJoin,
                     Strategy::kWcojFull}) {
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(TwoPathSpec(s), &q).ok());
    TraceRecorder trace;
    ExecOptions exec;
    exec.trace = &trace;
    CountOnlySink sink;
    ExecStats stats;
    ASSERT_TRUE(engine.Execute(q, sink, exec, &stats).ok())
        << StrategyName(s);
    EXPECT_TRUE(trace.AllClosed()) << StrategyName(s);
    ExpectAllSpansClosed(stats.trace_spans);
  }
}

TEST(TraceEndToEnd, BalancedOnLimitEarlyExit) {
  QueryEngine engine;
  engine.catalog().Put("R", SkewedGraph());
  for (Strategy s : {Strategy::kMmJoin, Strategy::kNonMmJoin}) {
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(TwoPathSpec(s), &q).ok());
    TraceRecorder trace;
    ExecOptions exec;
    exec.trace = &trace;
    exec.thresholds = {8, 8};
    PageSink sink(0, 1);  // done after the first delivered pair
    ExecStats stats;
    ASSERT_TRUE(engine.Execute(q, sink, exec, &stats).ok())
        << StrategyName(s);
    EXPECT_TRUE(trace.AllClosed()) << StrategyName(s);
    // Skipped work still accounts: spans only cover executed blocks.
    EXPECT_EQ(stats.heavy_blocks_executed + stats.heavy_blocks_skipped,
              stats.heavy_blocks_total)
        << StrategyName(s);
    // Per-kernel block spans exist only on the MM path; the combinatorial
    // heavy part runs no product kernels.
    if (s == Strategy::kMmJoin) {
      EXPECT_EQ(BlockSpanCount(trace), stats.heavy_blocks_executed);
    }
  }
}

TEST(TraceEndToEnd, BalancedOnPreFiredCancel) {
  QueryEngine engine;
  engine.catalog().Put("R", SkewedGraph());
  PreparedQuery q;
  ASSERT_TRUE(engine.Prepare(TwoPathSpec(Strategy::kMmJoin), &q).ok());
  CancelToken token;
  token.RequestCancel();  // fires before the first poll
  TraceRecorder trace;
  ExecOptions exec;
  exec.trace = &trace;
  exec.cancel = &token;
  exec.thresholds = {8, 8};
  CountOnlySink sink;
  ExecStats stats;
  ASSERT_TRUE(engine.Execute(q, sink, exec, &stats).ok());
  EXPECT_TRUE(stats.interrupted);
  EXPECT_TRUE(trace.AllClosed());
  ExpectAllSpansClosed(stats.trace_spans);
  EXPECT_EQ(stats.heavy_blocks_executed + stats.heavy_blocks_skipped,
            stats.heavy_blocks_total);
  EXPECT_EQ(BlockSpanCount(trace), stats.heavy_blocks_executed);
}

// ---- End-to-end: service span trees --------------------------------------

TEST(TraceEndToEnd, ServiceNestsEngineTreeUnderRequest) {
  QueryEngine engine;
  engine.catalog().Put("R", SkewedGraph());
  QueryService service(&engine);

  TraceRecorder trace;
  ServiceRequest req;
  req.exec.trace = &trace;
  CountOnlySink sink;
  ExecStats stats;
  QueryStatus st = service.Run(TwoPathSpec(Strategy::kAuto), sink, req,
                               &stats);
  ASSERT_TRUE(st.ok()) << st.message();

  EXPECT_TRUE(trace.AllClosed());
  ExpectAllSpansClosed(stats.trace_spans);
  EXPECT_EQ(trace.CountNamed("request"), 1u);
  EXPECT_EQ(trace.CountNamed("queue-wait"), 1u);
  EXPECT_EQ(trace.CountNamed("execute"), 1u);
  // "execute" is a child of "request".
  const std::vector<TraceSpan> spans = trace.spans();
  int32_t request_id = -1, execute_parent = -2;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) == "request") {
      request_id = static_cast<int32_t>(i);
    }
    if (std::string(spans[i].name) == "execute") {
      execute_parent = spans[i].parent;
    }
  }
  EXPECT_EQ(execute_parent, request_id);
}

TEST(TraceEndToEnd, ServiceDeadlineExitBalanced) {
  QueryEngine engine;
  engine.catalog().Put("R", SkewedGraph());
  QueryService service(&engine);

  TraceRecorder trace;
  ServiceRequest req;
  req.exec.trace = &trace;
  req.exec.thresholds = {8, 8};
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now());  // already expired
  req.exec.cancel = &token;
  CountOnlySink sink;
  ExecStats stats;
  QueryStatus st = service.Run(TwoPathSpec(Strategy::kMmJoin), sink, req,
                               &stats);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.message();
  EXPECT_TRUE(trace.AllClosed());
  ExpectAllSpansClosed(stats.trace_spans);
  EXPECT_EQ(stats.heavy_blocks_executed + stats.heavy_blocks_skipped,
            stats.heavy_blocks_total);
}

// ---- ServiceStats debug rendering (StatusCodeName-style) ------------------

TEST(ServiceStatsToString, RendersEveryCounter) {
  QueryEngine engine;
  engine.catalog().Put("R", SkewedGraph());
  QueryService service(&engine);
  CountOnlySink sink;
  ASSERT_TRUE(service.Run(TwoPathSpec(Strategy::kAuto), sink, {}).ok());
  const std::string s = service.stats().ToString();
  EXPECT_NE(s.find("admitted=1"), std::string::npos) << s;
  EXPECT_NE(s.find("completed=1"), std::string::npos) << s;
  EXPECT_NE(s.find("shed=0"), std::string::npos) << s;
  EXPECT_NE(s.find("internal_errors=0"), std::string::npos) << s;
}

}  // namespace
}  // namespace jpmm
