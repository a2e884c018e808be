// Failure-injection tests: misuse of the low-level entry points must fail
// loudly (JPMM_CHECK aborts), and misuse of QueryEngine and recoverable
// failures must return errors.

#include <gtest/gtest.h>

#include "core/join_project.h"
#include "core/mm_join.h"
#include "core/query_engine.h"
#include "core/result_sink.h"
#include "storage/index.h"
#include "storage/loader.h"
#include "storage/relation.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::RandomRelation;

TEST(FailureDeath, IndexRequiresFinalizedRelation) {
  BinaryRelation r;
  r.Add(0, 0);  // not finalized
  EXPECT_DEATH({ IndexedRelation idx(r); }, "Finalize");
}

TEST(FailureDeath, MinCountWithoutCountingIsRejected) {
  BinaryRelation r = RandomRelation(10, 10, 30, 0.5, 1);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.min_count = 2;  // but count_witnesses is false
  VectorSink sink;
  EXPECT_DEATH(MmJoinTwoPath(ri, ri, opts, sink), "min_count");
  EXPECT_DEATH(NonMmJoinTwoPath(ri, ri, opts, sink), "min_count");
  EXPECT_DEATH(WcojFullJoinProject(ri, ri, /*count_witnesses=*/false,
                                   /*min_count=*/2, /*threads=*/1, &sink),
               "min_count");
}

TEST(FailureRecoverable, StarRejectsSingleRelation) {
  QueryEngine engine;
  engine.AddRelation("R", RandomRelation(5, 5, 10, 0.5, 2));
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R"};
  PreparedQuery q;
  const QueryStatus st = engine.Prepare(spec, &q);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("relation"), std::string::npos) << st.message();
}

TEST(FailureRecoverable, SsjRejectsZeroThreshold) {
  QueryEngine engine;
  engine.AddRelation("R", RandomRelation(10, 10, 30, 0.5, 3));
  QuerySpec spec;
  spec.kind = QueryKind::kSsj;
  spec.relations = {"R"};
  spec.ssj_c = 0;
  PreparedQuery q;
  const QueryStatus st = engine.Prepare(spec, &q);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("ssj_c"), std::string::npos) << st.message();
}

TEST(FailureRecoverable, LoaderReportsBadInputWithoutAborting) {
  std::string error;
  EXPECT_FALSE(ParseEdgeList("garbage line\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(LoadEdgeList("/no/such/file", &error).has_value());
}

TEST(FailureRecoverable, SaveToUnwritablePathFails) {
  BinaryRelation r = RandomRelation(5, 5, 10, 0.5, 4);
  EXPECT_FALSE(SaveEdgeList(r, "/no/such/dir/out.txt"));
}

TEST(FailureRecoverable, TinyMatrixBudgetStillProducesCorrectResult) {
  // The memory cap is a degradation path, not a failure path.
  BinaryRelation r = RandomRelation(60, 30, 600, 1.2, 5);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {1, 1};
  opts.max_matrix_bytes = 1;  // nothing fits
  EXPECT_EQ(testutil::MmRun(ri, ri, opts).pairs,
            testutil::OracleTwoPath(r, r));
}

}  // namespace
}  // namespace jpmm
