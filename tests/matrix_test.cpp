// Unit tests for src/matrix: dense matmul, cost model, calibration.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "matrix/calibration.h"
#include "matrix/cost_model.h"
#include "matrix/dense_matrix.h"
#include "matrix/matmul.h"
#include "matrix/random.h"

namespace jpmm {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed, double density) {
  return RandomDenseMatrix(rows, cols, density, seed);
}

TEST(DenseMatrix, SetAtRow) {
  Matrix m(2, 3);
  m.Set(1, 2, 5.0f);
  EXPECT_FLOAT_EQ(m.At(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
  EXPECT_EQ(m.Row(1).size(), 3u);
  EXPECT_FLOAT_EQ(m.Row(1)[2], 5.0f);
}

TEST(DenseMatrix, TransposedRoundTrip) {
  Matrix m = RandomMatrix(37, 53, 1, 0.3);
  Matrix t = m.Transposed();
  ASSERT_EQ(t.rows(), 53u);
  ASSERT_EQ(t.cols(), 37u);
  EXPECT_EQ(t.Transposed(), m);
}

TEST(Matmul, MatchesNaiveSquare) {
  Matrix a = RandomMatrix(33, 33, 2, 0.4);
  Matrix b = RandomMatrix(33, 33, 3, 0.4);
  EXPECT_EQ(Multiply(a, b, 1), MultiplyNaive(a, b));
}

TEST(Matmul, ScalarReferenceMatchesNaive) {
  Matrix a = RandomMatrix(45, 70, 20, 0.4);
  Matrix b = RandomMatrix(70, 31, 21, 0.4);
  EXPECT_EQ(MultiplyScalarReference(a, b), MultiplyNaive(a, b));
}

TEST(Matmul, MatchesNaiveRectangular) {
  Matrix a = RandomMatrix(17, 301, 4, 0.2);
  Matrix b = RandomMatrix(301, 9, 5, 0.2);
  EXPECT_EQ(Multiply(a, b, 1), MultiplyNaive(a, b));
}

TEST(Matmul, ThreadCountDoesNotChangeResult) {
  Matrix a = RandomMatrix(64, 128, 6, 0.3);
  Matrix b = RandomMatrix(128, 48, 7, 0.3);
  const Matrix ref = Multiply(a, b, 1);
  for (int threads : {2, 3, 8}) {
    EXPECT_EQ(Multiply(a, b, threads), ref) << threads << " threads";
  }
}

TEST(Matmul, ParallelSharedSlabMatchesNaive) {
  // Odd shapes exercise every panel edge of the packed layout.
  const std::vector<std::tuple<size_t, size_t, size_t>> shapes = {
      {33, 77, 19}, {130, 515, 41}, {7, 2049, 65}, {257, 100, 2050}};
  for (auto [u, v, w] : shapes) {
    Matrix a = RandomMatrix(u, v, 31 + u, 0.3);
    Matrix b = RandomMatrix(v, w, 37 + w, 0.3);
    const Matrix want = MultiplyNaive(a, b);
    for (int threads : {1, 2, 5}) {
      Matrix c;
      Multiply(a, b, &c, threads);
      EXPECT_EQ(c, want) << u << "x" << v << "x" << w << " @" << threads;
    }
  }
}

TEST(Matmul, EmptyDimensions) {
  Matrix a(0, 5), b(5, 3);
  Matrix c = Multiply(a, b, 1);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 3u);
}

TEST(Matmul, IdentityIsNeutral) {
  const size_t n = 25;
  Matrix id(n, n);
  for (size_t i = 0; i < n; ++i) id.Set(i, i, 1.0f);
  Matrix a = RandomMatrix(n, n, 8, 0.5);
  EXPECT_EQ(Multiply(a, id, 1), a);
  EXPECT_EQ(Multiply(id, a, 1), a);
}

TEST(Matmul, RowRangeMatchesFullProduct) {
  Matrix a = RandomMatrix(40, 60, 9, 0.3);
  Matrix b = RandomMatrix(60, 22, 10, 0.3);
  const Matrix full = Multiply(a, b, 1);
  std::vector<float> buf(8 * b.cols());
  for (size_t r0 = 0; r0 < a.rows(); r0 += 8) {
    const size_t r1 = std::min(a.rows(), r0 + 8);
    MultiplyRowRange(a, b, r0, r1, buf);
    for (size_t i = r0; i < r1; ++i) {
      for (size_t j = 0; j < b.cols(); ++j) {
        EXPECT_FLOAT_EQ(buf[(i - r0) * b.cols() + j], full.At(i, j));
      }
    }
  }
}

TEST(Matmul, CountsWitnessesExactly) {
  // 0/1 adjacency product = path counts.
  Matrix a(2, 3), b(3, 2);
  a.Set(0, 0, 1);
  a.Set(0, 1, 1);
  a.Set(0, 2, 1);
  a.Set(1, 1, 1);
  b.Set(0, 0, 1);
  b.Set(1, 0, 1);
  b.Set(2, 1, 1);
  Matrix c = Multiply(a, b, 1);
  EXPECT_FLOAT_EQ(c.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 0.0f);
}

TEST(CostModel, ClassicalOmegaIsCubic) {
  EXPECT_DOUBLE_EQ(RectangularMmOps(10, 20, 30, 3.0), 10.0 * 20 * 30);
}

TEST(CostModel, FastOmegaDiscountsByBeta) {
  // beta = 10; omega = 2 gives uvw / beta.
  EXPECT_DOUBLE_EQ(RectangularMmOps(10, 20, 30, 2.0), 10.0 * 20 * 30 / 10.0);
}

TEST(CostModel, ZeroDimensionIsFree) {
  EXPECT_DOUBLE_EQ(RectangularMmOps(0, 5, 5), 0.0);
}

TEST(CostModel, Lemma3BeatsLemma2Shape) {
  // Lemma 3 (omega = 2) strictly below Lemma 2 for k = 2 on a wide range.
  for (double n : {1e4, 1e6}) {
    for (double out : {1e2, 1e4, 1e6, 1e8}) {
      EXPECT_LT(Lemma3Runtime(n, out), Lemma2Runtime(n, out, 2) + n)
          << "n=" << n << " out=" << out;
    }
  }
}

TEST(CostModel, BuildCostIsMaxOfOperands) {
  EXPECT_DOUBLE_EQ(MatrixBuildOps(10, 20, 5), 200.0);
  EXPECT_DOUBLE_EQ(MatrixBuildOps(5, 20, 10), 200.0);
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

TEST(Calibration, ZeroDimensionIsFree) {
  auto cal = MatMulCalibration::FromFlopsRate(1e9, {1});
  EXPECT_DOUBLE_EQ(cal.EstimateSeconds(0, 10, 10, 1), 0.0);
}

TEST(Calibration, MeasureProducesPositiveTimes) {
  auto cal = MatMulCalibration::Measure({32, 64}, {1});
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
