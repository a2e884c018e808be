// Cross-module integration tests: presets flowing through every engine,
// optimizer plan choices on characteristic inputs, loader-to-join paths.

#include <gtest/gtest.h>

#include "bsi/bsi.h"
#include "bsi/workload.h"
#include "core/query_engine.h"
#include "datagen/generators.h"
#include "datagen/presets.h"
#include "scj/limit_plus.h"
#include "scj/piejoin.h"
#include "scj/pretti.h"
#include "ssj/size_aware.h"
#include "ssj/size_aware_pp.h"
#include "storage/loader.h"
#include "storage/set_family.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using Instance = testutil::SetInstance;
using testutil::EngineTwoPath;

class PresetPipeline : public ::testing::TestWithParam<DatasetPreset> {};

TEST_P(PresetPipeline, AllJoinStrategiesAgree) {
  const BinaryRelation rel = MakePreset(GetParam(), 0.08);
  auto run = [&](Strategy s) {
    return EngineTwoPath(rel, rel, testutil::TwoPathSpec(s));
  };
  const auto mm = run(Strategy::kMmJoin);
  const auto nonmm = run(Strategy::kNonMmJoin);
  const auto wcoj = run(Strategy::kWcojFull);
  EXPECT_EQ(mm.pairs, nonmm.pairs);
  EXPECT_EQ(mm.pairs, wcoj.pairs);
  EXPECT_GT(mm.pairs.size(), 0u);
}

TEST_P(PresetPipeline, SsjEnginesAgree) {
  Instance inst(MakePreset(GetParam(), 0.05));
  SsjOptions opts;
  opts.c = 2;
  const SsjResult a = SizeAwareJoin(inst.fam, opts);
  EXPECT_EQ(a, SizeAwarePlusPlus(inst.fam, opts));
  EXPECT_EQ(a, testutil::EngineSsj(inst.rel, opts));
}

TEST_P(PresetPipeline, ScjEnginesAgree) {
  Instance inst(MakePreset(GetParam(), 0.05));
  const ScjResult a = PrettiJoin(inst.fam);
  EXPECT_EQ(a, LimitPlusJoin(inst.fam));
  EXPECT_EQ(a, PieJoin(inst.fam));
  EXPECT_EQ(a, testutil::EngineScj(inst.rel));
}

TEST_P(PresetPipeline, BsiStrategiesAgree) {
  Instance inst(MakePreset(GetParam(), 0.05));
  auto batch = SampleBsiWorkload(inst.fam, inst.fam, 150, 5);
  const auto per_query = BsiAnswerPerQuery(inst.fam, inst.fam, batch);
  EXPECT_EQ(BsiAnswerBatchMm(inst.fam, inst.fam, batch), per_query);
  EXPECT_EQ(BsiAnswerBatchNonMm(inst.fam, inst.fam, batch), per_query);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetPipeline,
    ::testing::Values(DatasetPreset::kDblp, DatasetPreset::kRoadNet,
                      DatasetPreset::kJokes, DatasetPreset::kWords,
                      DatasetPreset::kProtein, DatasetPreset::kImage),
    [](const ::testing::TestParamInfo<DatasetPreset>& param_info) {
      return PresetName(param_info.param);
    });

TEST(OptimizerIntegration, SparsePresetsChooseFullJoin) {
  // Paper §7.2: "the optimizer chooses to compute the full join" for
  // RoadNet and DBLP.
  for (DatasetPreset p : {DatasetPreset::kRoadNet, DatasetPreset::kDblp}) {
    const BinaryRelation rel = MakePreset(p, 0.2);
    const auto out = EngineTwoPath(rel, rel, testutil::TwoPathSpec());
    EXPECT_TRUE(out.plan.use_full_wcoj) << PresetName(p);
    EXPECT_EQ(out.executed, Strategy::kWcojFull) << PresetName(p);
  }
}

TEST(OptimizerIntegration, DensePresetsChooseMmJoin) {
  for (DatasetPreset p : {DatasetPreset::kJokes, DatasetPreset::kProtein,
                          DatasetPreset::kImage}) {
    const BinaryRelation rel = MakePreset(p, 0.4);
    const auto out = EngineTwoPath(rel, rel, testutil::TwoPathSpec());
    EXPECT_FALSE(out.plan.use_full_wcoj) << PresetName(p);
    EXPECT_EQ(out.executed, Strategy::kMmJoin) << PresetName(p);
  }
}

TEST(Example1Integration, CommunityGraphDuplicationRegime) {
  // Example 1: |OUT_join| = Theta(N^{3/2}), |OUT| = Theta(N).
  BinaryRelation g = CommunityGraph(4, 48, 0.8, 3);
  const auto out = EngineTwoPath(g, g, testutil::TwoPathSpec());
  const double n = static_cast<double>(g.size());
  EXPECT_GT(static_cast<double>(out.plan.full_join_size), 4.0 * n);
  EXPECT_LT(static_cast<double>(out.size()), 4.0 * n);
}

TEST(LoaderIntegration, TextToJoinPipeline) {
  const std::string text = "0 10\n1 10\n2 11\n0 11\n";
  auto rel = ParseEdgeList(text);
  ASSERT_TRUE(rel.has_value());
  const auto out = EngineTwoPath(*rel, *rel, testutil::TwoPathSpec());
  // {0,1} share 10; {0,2} share 11; plus reflexive pairs.
  const std::vector<OutPair> expected = {{0, 0}, {0, 1}, {0, 2}, {1, 0},
                                         {1, 1}, {2, 0}, {2, 2}};
  EXPECT_EQ(out.pairs, expected);
}

TEST(StarIntegration, TriangleOfViewsOnPreset) {
  const BinaryRelation rel = MakePreset(DatasetPreset::kJokes, 0.04);
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations = {"R", "R", "R"};
  spec.strategy = Strategy::kMmJoin;
  VectorSink mm;
  testutil::RunOnEngine(rel, spec, mm);
  spec.strategy = Strategy::kWcojFull;
  VectorSink wcoj;
  testutil::RunOnEngine(rel, spec, wcoj);
  EXPECT_EQ(mm.tuple_data(), wcoj.tuple_data());
  EXPECT_GT(mm.size(), 0u);
}

}  // namespace
}  // namespace jpmm
