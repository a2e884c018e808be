// BSI tests: the three evaluation strategies agree with direct
// intersection, and the latency model matches §3.3's formulas.

#include <gtest/gtest.h>

#include "bsi/bsi.h"
#include "bsi/latency_sim.h"
#include "bsi/workload.h"
#include "datagen/generators.h"
#include "join/intersection.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using Instance = testutil::SetInstance;

Instance MakeFamily(uint32_t sets, uint32_t dom, uint32_t max_size,
                    double skew, uint64_t seed) {
  BipartiteSpec spec;
  spec.num_sets = sets;
  spec.dom_size = dom;
  spec.max_set_size = max_size;
  spec.element_skew = skew;
  spec.seed = seed;
  return Instance(MakeBipartite(spec));
}

std::vector<uint8_t> OracleBsi(const SetFamily& r, const SetFamily& s,
                               std::span<const BsiQuery> batch) {
  std::vector<uint8_t> out(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    out[i] = IntersectsSorted(r.Elements(batch[i].a), s.Elements(batch[i].b))
                 ? 1
                 : 0;
  }
  return out;
}

TEST(BsiWorkload, SamplesNonEmptySets) {
  Instance inst = MakeFamily(50, 40, 6, 0.8, 401);
  auto queries = SampleBsiWorkload(inst.fam, inst.fam, 500, 11);
  EXPECT_EQ(queries.size(), 500u);
  for (const BsiQuery& q : queries) {
    EXPECT_GT(inst.fam.SetSize(q.a), 0u);
    EXPECT_GT(inst.fam.SetSize(q.b), 0u);
  }
}

TEST(BsiWorkload, DeterministicPerSeed) {
  Instance inst = MakeFamily(30, 30, 5, 0.5, 402);
  auto q1 = SampleBsiWorkload(inst.fam, inst.fam, 50, 7);
  auto q2 = SampleBsiWorkload(inst.fam, inst.fam, 50, 7);
  for (size_t i = 0; i < q1.size(); ++i) {
    EXPECT_EQ(q1[i].a, q2[i].a);
    EXPECT_EQ(q1[i].b, q2[i].b);
  }
}

class BsiStrategyTest : public ::testing::TestWithParam<int> {};

TEST_P(BsiStrategyTest, AllStrategiesMatchOracle) {
  const int threads = GetParam();
  Instance inst = MakeFamily(80, 50, 12, 1.0, 403);
  auto batch = SampleBsiWorkload(inst.fam, inst.fam, 300, 13);
  const auto oracle = OracleBsi(inst.fam, inst.fam, batch);
  BsiOptions opts;
  opts.threads = threads;
  EXPECT_EQ(BsiAnswerPerQuery(inst.fam, inst.fam, batch, opts), oracle);
  EXPECT_EQ(BsiAnswerBatchMm(inst.fam, inst.fam, batch, opts), oracle);
  EXPECT_EQ(BsiAnswerBatchNonMm(inst.fam, inst.fam, batch, opts), oracle);
}

INSTANTIATE_TEST_SUITE_P(Threads, BsiStrategyTest, ::testing::Values(1, 2, 4));

TEST(Bsi, CrossFamilyQueries) {
  Instance r = MakeFamily(40, 30, 8, 0.7, 404);
  Instance s = MakeFamily(35, 30, 8, 0.7, 405);
  auto batch = SampleBsiWorkload(r.fam, s.fam, 200, 17);
  const auto oracle = OracleBsi(r.fam, s.fam, batch);
  EXPECT_EQ(BsiAnswerBatchMm(r.fam, s.fam, batch), oracle);
  EXPECT_EQ(BsiAnswerBatchNonMm(r.fam, s.fam, batch), oracle);
}

TEST(Bsi, DuplicateQueriesInBatch) {
  Instance inst = MakeFamily(20, 20, 5, 0.5, 406);
  std::vector<BsiQuery> batch(10, BsiQuery{0, 1});
  const auto oracle = OracleBsi(inst.fam, inst.fam, batch);
  EXPECT_EQ(BsiAnswerBatchMm(inst.fam, inst.fam, batch), oracle);
}

TEST(Bsi, BatchOfOne) {
  Instance inst = MakeFamily(20, 20, 5, 0.5, 407);
  std::vector<BsiQuery> batch = {BsiQuery{3, 7}};
  const auto oracle = OracleBsi(inst.fam, inst.fam, batch);
  EXPECT_EQ(BsiAnswerBatchMm(inst.fam, inst.fam, batch), oracle);
  EXPECT_EQ(BsiAnswerPerQuery(inst.fam, inst.fam, batch), oracle);
}

TEST(LatencyModel, MatchesSection33Formulas) {
  // B = 1000 q/s, C = 500, t(C) = 0.25 s:
  // fill = 0.5 s, avg delay = 0.25 + 0.25 = 0.5 s, machines = ceil(0.5) = 1.
  const BsiLatencyEstimate e = EstimateBsiLatency(1000.0, 500, 0.25);
  EXPECT_DOUBLE_EQ(e.fill_seconds, 0.5);
  EXPECT_DOUBLE_EQ(e.avg_delay_seconds, 0.5);
  EXPECT_DOUBLE_EQ(e.machines, 1.0);
}

TEST(LatencyModel, SlowBatchesNeedMoreMachines) {
  // t(C) = 2 s for C = 500 at B = 1000: 4 machines to keep up.
  const BsiLatencyEstimate e = EstimateBsiLatency(1000.0, 500, 2.0);
  EXPECT_DOUBLE_EQ(e.machines, 4.0);
  EXPECT_DOUBLE_EQ(e.avg_delay_seconds, 0.25 + 2.0);
}

TEST(LatencyModel, BiggerBatchesAmortize) {
  // Fixed per-batch time: larger batches need fewer machines but wait
  // longer to fill.
  const auto small = EstimateBsiLatency(1000.0, 100, 0.5);
  const auto large = EstimateBsiLatency(1000.0, 1000, 0.5);
  EXPECT_GT(small.machines, large.machines);
  EXPECT_LT(small.fill_seconds, large.fill_seconds);
}

}  // namespace
}  // namespace jpmm
