// Property tests for the sparse heavy-part subsystem: CSR kernels against
// the dense and naive oracles across shapes and densities, the per-block
// dense/CSR dispatch, and forced-path equivalence of the heavy execution
// paths (mm_join, star_join, triangle) on skewed data.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/heavy_dispatch.h"
#include "core/heavy_product.h"
#include "core/join_project.h"
#include "core/mm_join.h"
#include "core/star_join.h"
#include "core/triangle.h"
#include "datagen/generators.h"
#include "matrix/bit_rows.h"
#include "matrix/calibration.h"
#include "matrix/cost_model.h"
#include "matrix/random.h"
#include "matrix/sparse_matrix.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::MmRun;
using testutil::RandomRelation;

// ---- CSR representation --------------------------------------------------

TEST(CsrMatrix, RoundTripsThroughDense) {
  for (double density : {0.0, 0.02, 0.3, 1.0}) {
    const Matrix d = RandomDenseMatrix(37, 53, density, 7);
    const CsrMatrix m = CsrMatrix::FromDense(d);
    EXPECT_EQ(m.rows(), d.rows());
    EXPECT_EQ(m.cols(), d.cols());
    EXPECT_EQ(m.ToDense(), d) << "density=" << density;
  }
}

TEST(CsrMatrix, FromRowsMatchesSequentialBuild) {
  const Matrix d = RandomDenseMatrix(64, 40, 0.1, 11);
  const CsrMatrix seq = CsrMatrix::FromDense(d);
  for (int threads : {1, 3}) {
    const CsrMatrix par = CsrMatrix::FromRows(
        64, 40, threads, [&](size_t i, std::vector<uint32_t>* out) {
          const auto row = d.Row(i);
          for (size_t j = 0; j < row.size(); ++j) {
            if (row[j] > 0.5f) out->push_back(static_cast<uint32_t>(j));
          }
        });
    EXPECT_EQ(par.nnz(), seq.nnz());
    EXPECT_EQ(par.ToDense(), d);
  }
}

TEST(CsrMatrix, FromEntriesHandlesArbitraryOrderAndTranspose) {
  std::vector<std::pair<Value, Value>> entries = {
      {2, 1}, {0, 3}, {2, 0}, {1, 2}, {0, 0}};
  const CsrMatrix m = CsrMatrix::FromEntries(3, 4, entries);
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_TRUE(m.ToDense().At(0, 3) > 0.5f);
  EXPECT_TRUE(m.ToDense().At(2, 0) > 0.5f);
  const CsrMatrix mt = CsrMatrix::FromEntries(4, 3, entries, /*swapped=*/true);
  EXPECT_EQ(mt.ToDense(), m.ToDense().Transposed());
}

TEST(CsrMatrix, EmptyRowsAndDegenerateShapes) {
  CsrMatrix m(5);
  m.FinishRow();  // empty row 0
  m.PushCol(4);
  m.FinishRow();
  m.FinishRow();  // empty row 2
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.Row(0).size(), 0u);
  EXPECT_EQ(m.Row(2).size(), 0u);
  EXPECT_EQ(m.RowRangeNnz(0, 3), 1u);

  const CsrMatrix zero = CsrMatrix::FromDense(Matrix(0, 7));
  EXPECT_EQ(zero.rows(), 0u);
  EXPECT_EQ(zero.Density(), 0.0);
}

// ---- Kernels vs oracles --------------------------------------------------

// The naive triple loop: the ground truth CsrProductReference is checked
// against.
Matrix NaiveProduct(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (size_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      c.Set(i, j, acc);
    }
  }
  return c;
}

// CSR products must be bit-identical to the naive triple loop on 0/1
// operands (integer counts below 2^24 are exactly representable, so every
// correct implementation produces the same bits).
TEST(SparseKernels, MatchDenseAndNaiveOraclesAcrossShapesAndDensities) {
  Rng rng(99);
  const std::vector<size_t> dims = {1, 2, 3, 17, 33, 65, 100};
  for (double density : {0.001, 0.05, 0.4, 1.0}) {
    for (int trial = 0; trial < 6; ++trial) {
      const size_t u = dims[rng.NextBounded(dims.size())];
      const size_t v = dims[rng.NextBounded(dims.size())];
      const size_t w = dims[rng.NextBounded(dims.size())];
      const Matrix ad = RandomDenseMatrix(u, v, density, 1000 + trial);
      const Matrix bd = RandomDenseMatrix(v, w, density, 2000 + trial);
      const CsrMatrix a = CsrMatrix::FromDense(ad);
      const CsrMatrix b = CsrMatrix::FromDense(bd);
      const Matrix want = NaiveProduct(ad, bd);
      EXPECT_EQ(CsrDenseProduct(a, bd, 1), want)
          << "u=" << u << " v=" << v << " w=" << w << " d=" << density;
      EXPECT_EQ(CsrCsrProduct(a, b, 1), want)
          << "u=" << u << " v=" << v << " w=" << w << " d=" << density;
      EXPECT_EQ(CsrProductReference(a, bd), want);
    }
  }
}

TEST(SparseKernels, ParallelRowBandsAreBitIdentical) {
  const Matrix ad = RandomDenseMatrix(301, 143, 0.03, 5);
  const Matrix bd = RandomDenseMatrix(143, 257, 0.03, 6);
  const CsrMatrix a = CsrMatrix::FromDense(ad);
  const CsrMatrix b = CsrMatrix::FromDense(bd);
  const Matrix ref = CsrDenseProduct(a, bd, 1);
  const Matrix ref2 = CsrCsrProduct(a, b, 1);
  for (int threads : {2, 3, HardwareThreads()}) {
    EXPECT_EQ(CsrDenseProduct(a, bd, threads), ref) << threads;
    EXPECT_EQ(CsrCsrProduct(a, b, threads), ref2) << threads;
  }
}

TEST(SparseKernels, RowRangeBlocksComposeToFullProduct) {
  const Matrix ad = RandomDenseMatrix(97, 61, 0.08, 8);
  const Matrix bd = RandomDenseMatrix(61, 45, 0.08, 9);
  const CsrMatrix a = CsrMatrix::FromDense(ad);
  const CsrMatrix b = CsrMatrix::FromDense(bd);
  const Matrix want = CsrProductReference(a, bd);
  CsrScratch scratch;
  SparseRowBlock blk;
  for (size_t r0 = 0; r0 < a.rows(); r0 += 13) {
    const size_t r1 = std::min(a.rows(), r0 + 13);
    std::vector<float> out((r1 - r0) * bd.cols());
    CsrDenseRowRange(a, bd, r0, r1, out);
    for (size_t i = r0; i < r1; ++i) {
      for (size_t j = 0; j < bd.cols(); ++j) {
        ASSERT_EQ(out[(i - r0) * bd.cols() + j], want.At(i, j));
      }
    }
    CsrCsrRowRange(a, b, r0, r1, &scratch, &blk);
    for (size_t i = r0; i < r1; ++i) {
      const auto cols = blk.RowCols(i - r0);
      const auto counts = blk.RowCounts(i - r0);
      ASSERT_TRUE(std::is_sorted(cols.begin(), cols.end()));
      std::vector<float> row(bd.cols(), 0.0f);
      for (size_t e = 0; e < cols.size(); ++e) {
        row[cols[e]] = static_cast<float>(counts[e]);
      }
      for (size_t j = 0; j < bd.cols(); ++j) {
        ASSERT_EQ(row[j], want.At(i, j));
      }
    }
  }
}

TEST(SparseKernels, ExpandOpsCountsExactly) {
  const CsrMatrix a =
      CsrMatrix::FromDense(RandomDenseMatrix(20, 30, 0.2, 13));
  const CsrMatrix b =
      CsrMatrix::FromDense(RandomDenseMatrix(30, 25, 0.2, 14));
  double want = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (uint32_t k : a.Row(i)) want += static_cast<double>(b.Row(k).size());
  }
  EXPECT_EQ(CsrCsrExpandOps(a, b, 0, a.rows()), want);
  EXPECT_EQ(CsrCsrExpandOps(a, b, 0, 0), 0.0);
}

// ---- Dispatch ------------------------------------------------------------

TEST(HeavyDispatch, ForcedModesPinEveryBlock) {
  const CsrMatrix a =
      CsrMatrix::FromDense(RandomDenseMatrix(600, 64, 0.1, 21));
  const CsrMatrix b =
      CsrMatrix::FromDense(RandomDenseMatrix(64, 80, 0.1, 22));
  const SparseKernelRates rates = SparseKernelRates::FromRates(1e9, 1e9, 1e10);
  for (auto [mode, kernel] :
       {std::pair{HeavyPathMode::kForceDense, ProductKernel::kDenseGemm},
        std::pair{HeavyPathMode::kForceCsrDense, ProductKernel::kCsrDense},
        std::pair{HeavyPathMode::kForceCsrCsr, ProductKernel::kCsrCsr}}) {
    HeavyKernelCounts counts;
    const auto choices =
        PlanProductBlocks(a, b, 256, mode, &rates, true, true, &counts);
    ASSERT_EQ(choices.size(), 3u);
    EXPECT_EQ(counts.total(), 3u);
    for (const auto& c : choices) EXPECT_EQ(c.kernel, kernel);
  }
}

TEST(HeavyDispatch, DensityDrivesKernelChoice) {
  // Synthetic rates where dense flops are 100x the sparse op rate: dense
  // should win at density 1 and CSR at density 1e-4, regardless of machine.
  const SparseKernelRates rates = SparseKernelRates::FromRates(1e9, 1e9, 1e11);
  const uint64_t n = 4096;
  const ProductKernel sparse_pick = ChooseProductKernel(
      n, n, n, /*block_nnz=*/n, /*expand_ops=*/1.0, rates, true, true);
  EXPECT_NE(sparse_pick, ProductKernel::kDenseGemm);
  const ProductKernel dense_pick = ChooseProductKernel(
      n, n, n, /*block_nnz=*/n * n,
      /*expand_ops=*/static_cast<double>(n) * n * n, rates, true, true);
  EXPECT_EQ(dense_pick, ProductKernel::kDenseGemm);
  // Gating: with dense disallowed the dense-regime block degrades to a CSR
  // kernel instead.
  EXPECT_NE(ChooseProductKernel(n, n, n, n * n,
                                static_cast<double>(n) * n * n, rates, false,
                                true),
            ProductKernel::kDenseGemm);
}


TEST(HeavyDispatch, FloatKernelsGatedOffPastExactFloatRange) {
  // Float cells count exactly only below 2^24 and a cell can count up to
  // the inner dimension, so at inner = 2^24 the gates must send every
  // block, in every mode, to the uint32 CSR x CSR kernel. The gate reads
  // the shape alone: no 2^24-wide operand is built. Planning runs on small
  // operands with rates under which the dense kernel would otherwise win.
  const CsrMatrix a =
      CsrMatrix::FromDense(RandomDenseMatrix(600, 64, 0.5, 23));
  const CsrMatrix b =
      CsrMatrix::FromDense(RandomDenseMatrix(64, 80, 0.5, 24));
  const SparseKernelRates rates = SparseKernelRates::FromRates(1e9, 1e9, 1e12);
  constexpr uint64_t kNoCap = ~uint64_t{0} >> 1;
  for (HeavyPathMode mode :
       {HeavyPathMode::kAuto, HeavyPathMode::kForceDense,
        HeavyPathMode::kForceCsrDense, HeavyPathMode::kForceCsrCsr}) {
    HeavyShape shape{a.rows(), kMaxExactFloatCount, b.cols(), a.nnz(),
                     b.nnz()};
    const HeavyGates gates = GateHeavyProduct(shape, mode, 256, 4, kNoCap);
    EXPECT_FALSE(gates.allow_dense) << HeavyPathModeName(mode);
    EXPECT_FALSE(gates.allow_csr_dense) << HeavyPathModeName(mode);
    HeavyKernelCounts counts;
    PlanProductBlocks(a, b, 256, gates.mode, &rates, gates.allow_dense,
                      gates.allow_csr_dense, &counts);
    EXPECT_EQ(counts.dense, 0u) << HeavyPathModeName(mode);
    EXPECT_EQ(counts.csr_dense, 0u) << HeavyPathModeName(mode);
    EXPECT_EQ(counts.csr_csr, 3u) << HeavyPathModeName(mode);

    // One below the bound, every mode keeps its kernels.
    shape.inner = kMaxExactFloatCount - 1;
    const HeavyGates below = GateHeavyProduct(shape, mode, 256, 4, kNoCap);
    EXPECT_EQ(below.mode, mode);
    EXPECT_EQ(below.allow_csr_dense, mode != HeavyPathMode::kForceCsrCsr);
  }
}

TEST(HeavyDispatch, SymmetricShapeCountsOneSetOfBitRows) {
  // When B^T is A (the two-path self join) the dense kernel reads A's bit
  // rows for B^T too: the gate counts one set, one BitRowsBytes below the
  // same shape read as two operands.
  constexpr uint64_t kNoCap = ~uint64_t{0} >> 1;
  HeavyShape shape{1173, 1200, 1173, 190000, 190000};
  const HeavyGates full =
      GateHeavyProduct(shape, HeavyPathMode::kForceDense, 256, 4, kNoCap);
  shape.symmetric = true;
  const HeavyGates sym =
      GateHeavyProduct(shape, HeavyPathMode::kForceDense, 256, 4, kNoCap);
  EXPECT_EQ(full.bytes - sym.bytes, BitRowsBytes(shape.cols, shape.inner));
  EXPECT_TRUE(sym.allow_dense);
}

// ---- mm_join forced-path equivalence + dispatch ---------------------------

TEST(SparseMmJoin, AllHeavyPathsProduceIdenticalSortedOutput) {
  const BinaryRelation rel = RandomRelation(120, 60, 1400, 1.3, 77);
  IndexedRelation ri(rel);
  MmJoinOptions base;
  base.thresholds = {2, 2};
  base.heavy_path = HeavyPathMode::kForceDense;
  const auto ref = MmRun(ri, ri, base).pairs;
  ASSERT_FALSE(ref.empty());
  for (HeavyPathMode mode :
       {HeavyPathMode::kForceCsrDense, HeavyPathMode::kForceCsrCsr,
        HeavyPathMode::kAuto}) {
    MmJoinOptions opts = base;
    opts.heavy_path = mode;
    EXPECT_EQ(MmRun(ri, ri, opts).pairs, ref)
        << HeavyPathModeName(mode);
  }
  // Counted variant: the CSR x CSR uint32 counts must agree with the float
  // read-back of the dense paths.
  base.count_witnesses = true;
  const auto cref = MmRun(ri, ri, base).counted;
  for (HeavyPathMode mode :
       {HeavyPathMode::kForceCsrDense, HeavyPathMode::kForceCsrCsr}) {
    MmJoinOptions opts = base;
    opts.heavy_path = mode;
    EXPECT_EQ(MmRun(ri, ri, opts).counted, cref)
        << HeavyPathModeName(mode);
  }
}

TEST(SparseMmJoin, ThreadCountDoesNotChangeSortedOutputOnSparsePaths) {
  const BinaryRelation rel = RandomRelation(150, 80, 2000, 1.4, 78);
  IndexedRelation ri(rel);
  for (HeavyPathMode mode :
       {HeavyPathMode::kForceCsrDense, HeavyPathMode::kForceCsrCsr,
        HeavyPathMode::kAuto}) {
    MmJoinOptions opts;
    opts.thresholds = {2, 3};
    opts.heavy_path = mode;
    opts.threads = 1;
    const auto ref = MmRun(ri, ri, opts).pairs;
    for (int threads : {3, HardwareThreads()}) {
      opts.threads = threads;
      EXPECT_EQ(MmRun(ri, ri, opts).pairs, ref)
          << HeavyPathModeName(mode) << " threads=" << threads;
    }
  }
}

TEST(SparseMmJoin, UltraSparseHeavyPartSelectsCsrKernels) {
  // ~7e-4 density heavy part: every block must dodge the dense kernel on any
  // machine (the modeled gap is >100x).
  BinaryRelation rel;
  Rng rng(80);
  for (int i = 0; i < 6000; ++i) {
    rel.Add(rng.NextBounded(3000), rng.NextBounded(3000));
  }
  rel.Finalize();
  IndexedRelation ri(rel);
  MmJoinOptions opts;
  opts.thresholds = {1, 1};  // force everything heavy
  auto res = MmRun(ri, ri, opts);
  ASSERT_GT(res.kernel_counts.total(), 0u);
  EXPECT_EQ(res.kernel_counts.dense, 0u)
      << "dense kernel chosen at density " << res.heavy_density;
  EXPECT_LT(res.heavy_density, 0.01);
  EXPECT_EQ(res.block_choices.size(), res.kernel_counts.total());
  EXPECT_EQ(res.pairs, testutil::OracleTwoPath(rel, rel));
}

TEST(SparseMmJoin, MemoryCapPrefersCsrOverThresholdDoubling) {
  // Dense operands would need ~2 * 1500^2 * 4B = 18 MB; the CSR floor is
  // ~100 KB. With a 4 MB cap the old accounting doubled thresholds away;
  // the sparse path must keep them and still be exact.
  BinaryRelation rel;
  Rng rng(81);
  for (int i = 0; i < 4000; ++i) {
    rel.Add(rng.NextBounded(1500), rng.NextBounded(1500));
  }
  rel.Finalize();
  IndexedRelation ri(rel);
  MmJoinOptions opts;
  opts.thresholds = {1, 1};
  opts.max_matrix_bytes = 4u << 20;
  auto res = MmRun(ri, ri, opts);
  EXPECT_EQ(res.adjusted_thresholds.delta1, 1u);
  EXPECT_EQ(res.kernel_counts.dense, 0u);
  EXPECT_EQ(res.pairs, testutil::OracleTwoPath(rel, rel));
}

// ---- star + triangle forced-path equivalence ------------------------------

TEST(SparseStarJoin, AllHeavyPathsProduceIdenticalOutput) {
  const BinaryRelation rel = RandomRelation(60, 25, 600, 1.2, 82);
  IndexedRelation ri(rel);
  std::vector<const IndexedRelation*> rels(3, &ri);
  StarJoinOptions base;
  base.thresholds = {2, 2};
  base.heavy_path = HeavyPathMode::kForceDense;
  const auto ref = testutil::ToVectors(testutil::StarRun(rels, base).tuples);
  ASSERT_FALSE(ref.empty());
  for (HeavyPathMode mode :
       {HeavyPathMode::kForceCsrDense, HeavyPathMode::kForceCsrCsr,
        HeavyPathMode::kAuto}) {
    StarJoinOptions opts = base;
    opts.heavy_path = mode;
    for (int threads : {1, 3}) {
      opts.threads = threads;
      EXPECT_EQ(testutil::ToVectors(testutil::StarRun(rels, opts).tuples),
                ref)
          << HeavyPathModeName(mode) << " threads=" << threads;
    }
  }
}

TEST(SparseTriangle, AllHeavyPathsMatchNodeIterator) {
  // CountTrianglesMm requires a symmetric relation; CommunityGraph samples
  // each direction independently, so mirror every edge.
  const BinaryRelation community = CommunityGraph(3, 60, 0.3, 83);
  BinaryRelation graph;
  for (const Tuple& t : community.tuples()) {
    graph.Add(t.x, t.y);
    graph.Add(t.y, t.x);
  }
  graph.Finalize();
  IndexedRelation gi(graph);
  const uint64_t want = CountTrianglesNodeIterator(gi);
  for (HeavyPathMode mode :
       {HeavyPathMode::kForceDense, HeavyPathMode::kForceCsrDense,
        HeavyPathMode::kForceCsrCsr, HeavyPathMode::kAuto}) {
    for (int threads : {1, 3}) {
      TriangleCountOptions opts;
      opts.delta = 5;  // plenty of heavy vertices
      opts.threads = threads;
      opts.heavy_path = mode;
      const auto res = CountTrianglesMm(gi, opts);
      EXPECT_EQ(res.triangles, want)
          << HeavyPathModeName(mode) << " threads=" << threads;
      EXPECT_GT(res.kernel_counts.total(), 0u);
    }
  }
}

// ---- calibration ----------------------------------------------------------

TEST(SparseKernelRates, MeasureProducesFiniteOrderedAnchors) {
  const SparseKernelRates rates = SparseKernelRates::Measure(128, {0.01, 0.2});
  ASSERT_EQ(rates.anchors.size(), 2u);
  for (const auto& a : rates.anchors) {
    EXPECT_GT(a.csr_dense_ops_per_sec, 0.0);
    EXPECT_GT(a.csr_csr_ops_per_sec, 0.0);
  }
  EXPECT_GT(rates.dense_flops_per_sec, 0.0);
  // The dense anchor is M̂'s own 1-core timing, so the dispatcher and the
  // optimizer price a 512^3 bit count alike.
  const double mhat = MatMulCalibration::Default().EstimateSeconds(512, 512,
                                                                   512, 1);
  EXPECT_NEAR(rates.DenseSeconds(512, 512, 512), mhat, mhat * 1e-9);
  // Interpolation stays within the anchor envelope.
  const double lo = std::min(rates.anchors[0].csr_dense_ops_per_sec,
                             rates.anchors[1].csr_dense_ops_per_sec);
  const double hi = std::max(rates.anchors[0].csr_dense_ops_per_sec,
                             rates.anchors[1].csr_dense_ops_per_sec);
  const double mid = rates.CsrDenseRate(0.05);
  EXPECT_GE(mid, lo);
  EXPECT_LE(mid, hi);
  EXPECT_EQ(rates.CsrDenseRate(1e-9),
            rates.anchors[0].csr_dense_ops_per_sec);
  EXPECT_EQ(rates.CsrDenseRate(1.0),
            rates.anchors[1].csr_dense_ops_per_sec);
}

TEST(SparseCostModel, OpsFormulas) {
  EXPECT_EQ(SparseProductOps(0, 10, 5), 50.0);       // zeroing only
  EXPECT_EQ(SparseProductOps(100, 10, 5), 550.0);    // + nnz * w
  EXPECT_EQ(SparseProductOps(7, 3, 0), 0.0);
  EXPECT_DOUBLE_EQ(SparseProductSeconds(1e6, 1e9), 1e-3);
}

}  // namespace
}  // namespace jpmm
