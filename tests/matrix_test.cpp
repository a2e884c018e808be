// Unit tests for src/matrix: the dense matrix and the calibration.

#include <gtest/gtest.h>

#include "matrix/calibration.h"
#include "matrix/dense_matrix.h"
#include "matrix/random.h"

namespace jpmm {
namespace {

TEST(DenseMatrix, SetAtRow) {
  Matrix m(2, 3);
  m.Set(1, 2, 5.0f);
  EXPECT_FLOAT_EQ(m.At(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
  EXPECT_EQ(m.Row(1).size(), 3u);
  EXPECT_FLOAT_EQ(m.Row(1)[2], 5.0f);
}

TEST(DenseMatrix, TransposedRoundTrip) {
  Matrix m = RandomDenseMatrix(37, 53, 0.3, 1);
  Matrix t = m.Transposed();
  ASSERT_EQ(t.rows(), 53u);
  ASSERT_EQ(t.cols(), 37u);
  EXPECT_EQ(t.Transposed(), m);
}

TEST(Calibration, SyntheticTableInterpolates) {
  auto cal = MatMulCalibration::FromFlopsRate(1e9, {1, 2});
  // 512^3 * 2 flops at 1 GF/s = 0.268 s on 1 core.
  const double t1 = cal.EstimateSeconds(512, 512, 512, 1);
  EXPECT_NEAR(t1, 2.0 * 512.0 * 512 * 512 / 1e9, t1 * 0.05);
  // Two cores halve it (synthetic table).
  const double t2 = cal.EstimateSeconds(512, 512, 512, 2);
  EXPECT_NEAR(t2, t1 / 2, t1 * 0.05);
}

TEST(Calibration, RectangularUsesEffectiveDim) {
  auto cal = MatMulCalibration::FromFlopsRate(1e9, {1});
  // (u, v, w) with same product as p^3 estimates the same time.
  const double ta = cal.EstimateSeconds(1024, 256, 1024, 1);
  const double tb = cal.EstimateSeconds(512, 512, 1024, 1);
  EXPECT_NEAR(ta, tb, ta * 0.05);
}

TEST(Calibration, ExtrapolatesCubically) {
  auto cal = MatMulCalibration::FromFlopsRate(1e9, {1});
  const double t2048 = cal.EstimateSeconds(2048, 2048, 2048, 1);
  const double t4096 = cal.EstimateSeconds(4096, 4096, 4096, 1);
  EXPECT_NEAR(t4096 / t2048, 8.0, 0.4);
}

// The optimizer's M̂ and the block dispatcher price the dense bit count in
// one unit: at one core and the same rate they agree, the inner dimension
// counted in whole 64-bit words (70 costs what 128 does).
TEST(Calibration, EstimateMatchesDispatcherDenseSeconds) {
  constexpr double kRate = 3e11;
  const auto cal = MatMulCalibration::FromFlopsRate(kRate, {1});
  const auto rates = SparseKernelRates::FromRates(1e9, 1e9, kRate);
  for (uint64_t v : {70u, 64u, 1187u}) {
    const double want = rates.DenseSeconds(256, v, 1024);
    EXPECT_NEAR(cal.EstimateSeconds(256, v, 1024, 1), want, want * 1e-9)
        << "v=" << v;
  }
}

TEST(Calibration, ZeroDimensionIsFree) {
  auto cal = MatMulCalibration::FromFlopsRate(1e9, {1});
  EXPECT_DOUBLE_EQ(cal.EstimateSeconds(0, 10, 10, 1), 0.0);
}

TEST(Calibration, MeasureProducesPositiveTimes) {
  auto cal = MatMulCalibration::Measure({64, 128}, {1});
  EXPECT_GT(cal.EstimateSeconds(48, 48, 48, 1), 0.0);
  EXPECT_GT(cal.single_core_flops(), 0.0);
}

TEST(SystemConstants, MeasuredValuesArePlausible) {
  const SystemConstants c = SystemConstants::Measure();
  EXPECT_GT(c.ts, 0.0);
  EXPECT_GT(c.ti, 0.0);
  EXPECT_GT(c.tm, 0.0);
  EXPECT_LT(c.ts, 1e-5);  // < 10us per sequential element access
  EXPECT_LT(c.ti, 1e-4);
  EXPECT_LT(c.tm, 1e-3);
}

}  // namespace
}  // namespace jpmm
