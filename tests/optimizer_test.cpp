// Tests for the output estimator (§5) and the cost-based optimizer
// (Algorithm 3), plus the two-path strategies through QueryEngine.

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/join_project.h"
#include "core/optimizer.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::EngineTwoPath;
using testutil::OracleTwoPath;
using testutil::OracleTwoPathCounted;
using testutil::RandomRelation;
using testutil::TwoPathSpec;

TEST(Estimator, BoundsBracketTrueOutput) {
  for (uint64_t seed : {51ull, 52ull, 53ull, 54ull}) {
    BinaryRelation r = RandomRelation(60, 40, 600, 1.2, seed);
    IndexedRelation ri(r);
    TwoPathStats stats(ri, ri);
    const OutputEstimate est = EstimateTwoPathOutput(ri, ri, stats);
    const uint64_t truth = OracleTwoPath(r, r).size();
    EXPECT_LE(est.lower, truth) << "seed=" << seed;
    EXPECT_GE(est.upper, truth) << "seed=" << seed;
    EXPECT_GE(est.estimate, est.lower);
    EXPECT_LE(est.estimate, est.upper);
  }
}

TEST(Estimator, FullJoinSizeIsExact) {
  BinaryRelation r = RandomRelation(30, 25, 250, 1.0, 55);
  BinaryRelation s = RandomRelation(28, 25, 230, 1.0, 56);
  IndexedRelation ri(r), si(s);
  TwoPathStats stats(ri, si);
  const OutputEstimate est = EstimateTwoPathOutput(ri, si, stats);
  uint64_t expected = 0;
  for (const Tuple& rt : r.tuples()) {
    for (const Tuple& st : s.tuples()) {
      if (rt.y == st.y) ++expected;
    }
  }
  EXPECT_EQ(est.full_join_size, expected);
}

TEST(Estimator, DenseGraphHasHighDuplication) {
  // Community graph: J / OUT should be large, and lower bound respects it.
  BinaryRelation r = CommunityGraph(3, 30, 0.95, 11);
  IndexedRelation ri(r);
  TwoPathStats stats(ri, ri);
  const OutputEstimate est = EstimateTwoPathOutput(ri, ri, stats);
  const uint64_t truth = OracleTwoPath(r, r).size();
  EXPECT_GE(est.full_join_size, 4 * truth);  // heavy duplication regime
  EXPECT_LE(est.lower, truth);
  EXPECT_GE(est.upper, truth);
}

TEST(Optimizer, SmallJoinChoosesFullWcoj) {
  // Near-uniform sparse relation: join barely bigger than input.
  BinaryRelation r = RandomRelation(500, 500, 800, 0.1, 57);
  IndexedRelation ri(r);
  TwoPathStats stats(ri, ri);
  OptimizerOptions oo;
  oo.calibration = nullptr;  // default
  static const MatMulCalibration cal =
      MatMulCalibration::FromFlopsRate(1e9, {1});
  static const SystemConstants consts;  // defaults
  oo.calibration = &cal;
  oo.constants = &consts;
  const PlanChoice plan = ChooseTwoPathPlan(ri, ri, stats, oo);
  EXPECT_TRUE(plan.use_full_wcoj);
  EXPECT_FALSE(plan.ToString().empty());
}

TEST(Optimizer, DenseGraphChoosesMmJoinWithFeasibleThresholds) {
  BinaryRelation r = CommunityGraph(4, 40, 0.95, 13);
  IndexedRelation ri(r);
  TwoPathStats stats(ri, ri);
  static const MatMulCalibration cal =
      MatMulCalibration::FromFlopsRate(1e9, {1});
  static const SystemConstants consts;
  OptimizerOptions oo;
  oo.calibration = &cal;
  oo.constants = &consts;
  const PlanChoice plan = ChooseTwoPathPlan(ri, ri, stats, oo);
  EXPECT_FALSE(plan.use_full_wcoj);
  EXPECT_GE(plan.thresholds.delta1, 1u);
  EXPECT_LE(plan.thresholds.delta1, r.size());
  EXPECT_GE(plan.thresholds.delta2, 1u);
  EXPECT_LE(plan.thresholds.delta2, r.size());
}

TEST(Optimizer, StopAtFirstIncreaseStillFeasible) {
  BinaryRelation r = CommunityGraph(4, 32, 0.9, 17);
  IndexedRelation ri(r);
  TwoPathStats stats(ri, ri);
  static const MatMulCalibration cal =
      MatMulCalibration::FromFlopsRate(1e9, {1});
  static const SystemConstants consts;
  OptimizerOptions oo;
  oo.calibration = &cal;
  oo.constants = &consts;
  oo.stop_at_first_increase = true;
  const PlanChoice plan = ChooseTwoPathPlan(ri, ri, stats, oo);
  if (!plan.use_full_wcoj) {
    EXPECT_GE(plan.thresholds.delta1, 1u);
    EXPECT_GE(plan.thresholds.delta2, 1u);
  }
}

TEST(Optimizer, NonMmThresholdsBalanced) {
  BinaryRelation r = CommunityGraph(4, 30, 0.9, 19);
  IndexedRelation ri(r);
  TwoPathStats stats(ri, ri);
  const Thresholds t = ChooseNonMmThresholds(ri, ri, stats);
  EXPECT_EQ(t.delta1, t.delta2);
  EXPECT_GE(t.delta1, 1u);
  EXPECT_LE(t.delta1, r.size());
}

// ---------------------------------------------------------------------------
// The two-path strategies through QueryEngine.

class TwoPathStrategyTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(TwoPathStrategyTest, MatchesOracle) {
  BinaryRelation r = RandomRelation(50, 35, 450, 1.2, 61);
  const auto out = EngineTwoPath(r, r, TwoPathSpec(GetParam()));
  EXPECT_EQ(out.pairs, OracleTwoPath(r, r));
  EXPECT_GE(out.seconds, 0.0);
}

TEST_P(TwoPathStrategyTest, CountedMatchesOracle) {
  BinaryRelation r = RandomRelation(40, 30, 350, 1.0, 62);
  QuerySpec spec = TwoPathSpec(GetParam());
  spec.count_witnesses = true;
  EXPECT_EQ(EngineTwoPath(r, r, spec).counted, OracleTwoPathCounted(r, r));
}

INSTANTIATE_TEST_SUITE_P(Strategies, TwoPathStrategyTest,
                         ::testing::Values(Strategy::kAuto, Strategy::kMmJoin,
                                           Strategy::kNonMmJoin,
                                           Strategy::kWcojFull));

TEST(TwoPath, ExplicitThresholdsAreHonoured) {
  BinaryRelation r = CommunityGraph(3, 20, 1.0, 23);
  ExecOptions exec;
  exec.thresholds = {4, 4};
  EXPECT_EQ(EngineTwoPath(r, r, TwoPathSpec(Strategy::kMmJoin), exec).pairs,
            OracleTwoPath(r, r));
}

TEST(TwoPath, MinCountThreshold) {
  BinaryRelation r = RandomRelation(30, 20, 300, 1.0, 63);
  QuerySpec spec = TwoPathSpec(Strategy::kMmJoin);
  spec.count_witnesses = true;
  spec.min_count = 3;
  EXPECT_EQ(EngineTwoPath(r, r, spec).counted,
            OracleTwoPathCounted(r, r, 3));
}

TEST(TwoPath, ThreadsDoNotChangeResult) {
  BinaryRelation r = RandomRelation(60, 40, 600, 1.2, 64);
  const QuerySpec spec = TwoPathSpec(Strategy::kMmJoin);
  ExecOptions par;
  par.threads = 4;
  EXPECT_EQ(EngineTwoPath(r, r, spec).pairs,
            EngineTwoPath(r, r, spec, par).pairs);
}

TEST(Engine, StarDispatch) {
  BinaryRelation r = RandomRelation(15, 12, 60, 0.8, 65);
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R", "R", "R"};
  for (Strategy s : {Strategy::kAuto, Strategy::kMmJoin, Strategy::kNonMmJoin,
                     Strategy::kWcojFull}) {
    spec.strategy = s;
    VectorSink sink;
    testutil::RunOnEngine(r, spec, sink);
    ASSERT_EQ(sink.tuple_arity(), 3u);
    std::vector<std::vector<Value>> got;
    for (size_t i = 0; i < sink.size(); ++i) {
      got.emplace_back(sink.tuple_data().begin() + 3 * i,
                       sink.tuple_data().begin() + 3 * (i + 1));
    }
    EXPECT_EQ(got, testutil::OracleStar({&r, &r, &r})) << StrategyName(s);
  }
}

TEST(TwoPath, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kAuto), "auto");
  EXPECT_STREQ(StrategyName(Strategy::kMmJoin), "mmjoin");
  EXPECT_STREQ(StrategyName(Strategy::kNonMmJoin), "nonmm");
  EXPECT_STREQ(StrategyName(Strategy::kWcojFull), "wcoj-full");
}

}  // namespace
}  // namespace jpmm
