// Tests for core/density_partition.h: the global-threshold subrelation
// split (Algorithm 1's R-/R+/S-/S+) and the density-adaptive grid that
// decomposes the heavy product (degree remaps, band shapes, exact pruning
// bounds, and byte-identical execution through MmJoinTwoPath).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "core/density_partition.h"
#include "core/heavy_product.h"
#include "core/mm_join.h"
#include "core/query_engine.h"
#include "core/result_sink.h"
#include "matrix/calibration.h"
#include "matrix/sparse_matrix.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::OracleTwoPathCounted;
using testutil::MmRun;
using testutil::RandomRelation;

// ---- TwoPathPartition (the paper's global light/heavy threshold) ---------

TEST(Partition, SubrelationsFormAPartition) {
  BinaryRelation r = RandomRelation(40, 30, 300, 1.2, 21);
  BinaryRelation s = RandomRelation(35, 30, 280, 1.2, 22);
  IndexedRelation ri(r), si(s);
  for (uint64_t d1 : {1ull, 2ull, 5ull}) {
    for (uint64_t d2 : {1ull, 3ull, 8ull}) {
      TwoPathPartition part(ri, si, Thresholds{d1, d2});
      BinaryRelation rm = part.RMinus(), rp = part.RPlus();
      EXPECT_EQ(rm.size() + rp.size(), r.size());
      // Disjoint: no tuple in both.
      for (const Tuple& t : rp.tuples()) {
        EXPECT_FALSE(std::binary_search(rm.tuples().begin(),
                                        rm.tuples().end(), t));
      }
      BinaryRelation sm = part.SMinus(), sp = part.SPlus();
      EXPECT_EQ(sm.size() + sp.size(), s.size());
    }
  }
}

TEST(Partition, RPlusTuplesAreHeavyBothSides) {
  BinaryRelation r = RandomRelation(30, 20, 250, 1.0, 23);
  IndexedRelation ri(r);
  const Thresholds t{2, 3};
  TwoPathPartition part(ri, ri, t);
  const BinaryRelation rplus = part.RPlus();
  for (const Tuple& tp : rplus.tuples()) {
    EXPECT_GT(ri.DegX(tp.x), t.delta2);
    EXPECT_GT(ri.DegY(tp.y), t.delta1);
  }
  const BinaryRelation rminus = part.RMinus();
  for (const Tuple& tm : rminus.tuples()) {
    EXPECT_TRUE(ri.DegX(tm.x) <= t.delta2 || ri.DegY(tm.y) <= t.delta1);
  }
}

TEST(Partition, LightnessOraclesMatchDegrees) {
  BinaryRelation r = RandomRelation(25, 25, 200, 1.5, 24);
  IndexedRelation ri(r);
  const Thresholds t{3, 4};
  TwoPathPartition part(ri, ri, t);
  for (Value a = 0; a < ri.num_x(); ++a) {
    EXPECT_EQ(part.XLight(a), ri.DegX(a) <= t.delta2);
    EXPECT_EQ(part.ZLight(a), ri.DegX(a) <= t.delta2);
  }
  for (Value b = 0; b < ri.num_y(); ++b) {
    EXPECT_EQ(part.YLight(b), ri.DegY(b) <= t.delta1);
  }
}

TEST(Partition, HeavyIdsAreDenseAndAscending) {
  BinaryRelation r = RandomRelation(50, 40, 500, 1.2, 25);
  IndexedRelation ri(r);
  TwoPathPartition part(ri, ri, Thresholds{2, 2});
  const auto& hx = part.heavy_x();
  EXPECT_TRUE(std::is_sorted(hx.begin(), hx.end()));
  for (size_t i = 0; i < hx.size(); ++i) {
    EXPECT_EQ(part.HeavyXId(hx[i]), static_cast<Value>(i));
  }
  // Non-heavy values map to invalid.
  for (Value a = 0; a < ri.num_x(); ++a) {
    if (!std::binary_search(hx.begin(), hx.end(), a)) {
      EXPECT_EQ(part.HeavyXId(a), kInvalidValue);
    }
  }
}

TEST(Partition, HeavyValuesExceedThresholds) {
  BinaryRelation r = RandomRelation(50, 40, 500, 1.2, 26);
  IndexedRelation ri(r);
  const Thresholds t{2, 3};
  TwoPathPartition part(ri, ri, t);
  for (Value a : part.heavy_x()) EXPECT_GT(ri.DegX(a), t.delta2);
  for (Value b : part.heavy_y()) EXPECT_GT(ri.DegY(b), t.delta1);
  for (Value c : part.heavy_z()) EXPECT_GT(ri.DegX(c), t.delta2);
}

TEST(Partition, HugeThresholdsMakeEverythingLight) {
  BinaryRelation r = RandomRelation(30, 30, 300, 1.0, 27);
  IndexedRelation ri(r);
  TwoPathPartition part(ri, ri, Thresholds{1000, 1000});
  EXPECT_TRUE(part.heavy_x().empty());
  EXPECT_TRUE(part.heavy_y().empty());
  EXPECT_TRUE(part.heavy_z().empty());
  EXPECT_EQ(part.RPlus().size(), 0u);
  EXPECT_EQ(part.RMinus().size(), r.size());
}

TEST(Partition, ThresholdOneMaximizesHeavyPart) {
  // A star: one hub x connected to many ys that each connect back.
  BinaryRelation r;
  for (Value b = 0; b < 10; ++b) {
    r.Add(0, b);             // hub x=0, degree 10
    r.Add(b + 1, b);         // pendant xs, degree 1
    r.Add(b + 1, (b + 1) % 10);
  }
  r.Finalize();
  IndexedRelation ri(r);
  TwoPathPartition part(ri, ri, Thresholds{1, 1});
  // Hub is heavy (degree 10 > 1), y values have degree 3 > 1.
  EXPECT_NE(part.HeavyXId(0), kInvalidValue);
  EXPECT_FALSE(part.heavy_y().empty());
}

TEST(Partition, EmptyRelations) {
  BinaryRelation r;
  r.Finalize();
  IndexedRelation ri(r);
  TwoPathPartition part(ri, ri, Thresholds{1, 1});
  EXPECT_TRUE(part.heavy_x().empty());
  EXPECT_TRUE(part.heavy_y().empty());
}

// ---- DensityGrid (degree-remapped block decomposition) -------------------

// Synthetic constant rates so grid shapes are deterministic across machines.
const SparseKernelRates& TestRates() {
  static const SparseKernelRates rates =
      SparseKernelRates::FromRates(1e9, 1e9, 1e10);
  return rates;
}

// Skewed 0/1 matrix: row i's degree decays like rows / (i + 1), columns
// drawn from a deterministic LCG so tests replay bit-for-bit.
CsrMatrix MakeSkewedCsr(size_t rows, size_t cols, uint64_t seed) {
  CsrMatrix m(cols);
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (size_t i = 0; i < rows; ++i) {
    const size_t deg = std::min(cols, 1 + rows / (i + 1));
    std::set<uint32_t> cs;
    for (size_t j = 0; j < deg; ++j) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      cs.insert(static_cast<uint32_t>((state >> 33) % cols));
    }
    for (uint32_t c : cs) m.PushCol(c);
    m.FinishRow();
  }
  return m;
}

DensityGridOptions SmallGridOptions() {
  DensityGridOptions o;
  o.row_block = 4;
  o.rates = &TestRates();
  return o;
}

TEST(DensityGrid, PermutationsAreBijectionsAndBandsCover) {
  CsrMatrix a = MakeSkewedCsr(37, 20, 1);
  CsrMatrix b = MakeSkewedCsr(20, 29, 2);
  const DensityGridOptions opts = SmallGridOptions();
  DensityGrid g = BuildDensityGrid(a, b, opts);

  auto is_bijection = [](const std::vector<uint32_t>& perm, size_t n) {
    if (perm.size() != n) return false;
    std::vector<uint32_t> sorted(perm);
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < n; ++i) {
      if (sorted[i] != i) return false;
    }
    return true;
  };
  EXPECT_TRUE(is_bijection(g.row_perm, a.rows()));
  EXPECT_TRUE(is_bijection(g.col_perm, b.cols()));

  // Bands tile [0, rows) / [0, cols); interior row bounds snap to the work
  // unit so an executing chunk never straddles two bands.
  ASSERT_GE(g.row_bands.size(), 2u);
  EXPECT_EQ(g.row_bands.front(), 0u);
  EXPECT_EQ(g.row_bands.back(), a.rows());
  EXPECT_TRUE(std::is_sorted(g.row_bands.begin(), g.row_bands.end()));
  for (size_t i = 1; i + 1 < g.row_bands.size(); ++i) {
    EXPECT_EQ(g.row_bands[i] % opts.row_block, 0u);
  }
  ASSERT_GE(g.col_bands.size(), 2u);
  EXPECT_EQ(g.col_bands.front(), 0u);
  EXPECT_EQ(g.col_bands.back(), b.cols());
  EXPECT_TRUE(std::is_sorted(g.col_bands.begin(), g.col_bands.end()));

  // Scheduled + pruned cells tile the grid; every scheduled block sits
  // exactly on a (row band, col band) cell.
  EXPECT_EQ(g.blocks.size() + g.pruned_blocks, g.grid_blocks);
  EXPECT_EQ(g.grid_blocks,
            static_cast<uint64_t>(g.num_row_bands()) * g.num_col_bands());
  for (const BlockKernelChoice& c : g.blocks) {
    EXPECT_TRUE(std::binary_search(g.row_bands.begin(), g.row_bands.end(),
                                   c.row_begin));
    EXPECT_TRUE(std::binary_search(g.row_bands.begin(), g.row_bands.end(),
                                   c.row_end));
    EXPECT_TRUE(std::binary_search(g.col_bands.begin(), g.col_bands.end(),
                                   c.col_begin));
    EXPECT_TRUE(std::binary_search(g.col_bands.begin(), g.col_bands.end(),
                                   c.col_end));
    EXPECT_LT(c.row_begin, c.row_end);
    EXPECT_LT(c.col_begin, c.col_end);
  }

  // The row remap is degree-sorted: nnz is non-increasing along row_perm.
  for (size_t i = 1; i < g.row_perm.size(); ++i) {
    EXPECT_GE(a.RowRangeNnz(g.row_perm[i - 1], g.row_perm[i - 1] + 1),
              a.RowRangeNnz(g.row_perm[i], g.row_perm[i] + 1));
  }
}

TEST(DensityGrid, SchedulingMatchesProductOracle) {
  // The expansion bound of a cell is exact: expand > 0 iff some witness
  // (r, y, c) lands in the cell, iff the remapped product block has a
  // nonzero. So scheduled <=> nonzero block, pruned <=> all-zero block.
  CsrMatrix a = MakeSkewedCsr(41, 17, 3);
  CsrMatrix b = MakeSkewedCsr(17, 23, 4);
  DensityGrid g = BuildDensityGrid(a, b, SmallGridOptions());
  Matrix prod = CsrCsrProduct(a, b, 1);

  std::set<std::pair<uint32_t, uint32_t>> scheduled;
  for (const BlockKernelChoice& c : g.blocks) {
    scheduled.insert({c.row_begin, c.col_begin});
  }
  uint64_t pruned_seen = 0;
  for (size_t i = 0; i < g.num_row_bands(); ++i) {
    for (size_t j = 0; j < g.num_col_bands(); ++j) {
      bool nonzero = false;
      for (uint32_t r = g.row_bands[i]; r < g.row_bands[i + 1] && !nonzero;
           ++r) {
        for (uint32_t k = g.col_bands[j]; k < g.col_bands[j + 1]; ++k) {
          if (prod.At(g.row_perm[r], g.col_perm[k]) > 0.5f) {
            nonzero = true;
            break;
          }
        }
      }
      const bool is_scheduled =
          scheduled.count({g.row_bands[i], g.col_bands[j]}) > 0;
      EXPECT_EQ(is_scheduled, nonzero)
          << "cell (" << i << ", " << j << ")";
      if (!is_scheduled) ++pruned_seen;
    }
  }
  EXPECT_EQ(pruned_seen, g.pruned_blocks);
}

// Two disconnected components with very different degrees: degree
// sorting separates them into distinct bands, so the cross cells have a
// zero witness bound.
std::pair<CsrMatrix, CsrMatrix> DisjointOperands() {
  const size_t rows = 48, inner = 24, cols = 48;
  CsrMatrix a(inner);
  for (size_t i = 0; i < rows; ++i) {
    if (i < 16) {
      for (uint32_t y = 0; y < 12; ++y) a.PushCol(y);  // dense hub component
    } else {
      a.PushCol(12 + static_cast<uint32_t>(i % 12));   // sparse tail
    }
    a.FinishRow();
  }
  CsrMatrix b(cols);
  for (size_t y = 0; y < inner; ++y) {
    if (y < 12) {
      for (uint32_t c = 0; c < 16; ++c) b.PushCol(c);
    } else {
      b.PushCol(16 + static_cast<uint32_t>(y));
    }
    b.FinishRow();
  }
  return {std::move(a), std::move(b)};
}

TEST(DensityGrid, DisjointComponentsPruneBlocks) {
  // The cross cells of the two components must be pruned.
  const auto [a, b] = DisjointOperands();
  DensityGrid g = BuildDensityGrid(a, b, SmallGridOptions());
  EXPECT_GT(g.pruned_blocks, 0u);
  EXPECT_TRUE(g.num_row_bands() > 1 || g.num_col_bands() > 1);
  EXPECT_EQ(g.blocks.size() + g.pruned_blocks, g.grid_blocks);
}

TEST(DensityGrid, DeterministicAndSignatureStable) {
  CsrMatrix a = MakeSkewedCsr(33, 19, 5);
  CsrMatrix b = MakeSkewedCsr(19, 27, 6);
  DensityGrid g1 = BuildDensityGrid(a, b, SmallGridOptions());
  DensityGrid g2 = BuildDensityGrid(a, b, SmallGridOptions());
  EXPECT_EQ(g1.row_perm, g2.row_perm);
  EXPECT_EQ(g1.col_perm, g2.col_perm);
  EXPECT_EQ(g1.row_bands, g2.row_bands);
  EXPECT_EQ(g1.col_bands, g2.col_bands);
  EXPECT_EQ(g1.blocks.size(), g2.blocks.size());
  EXPECT_EQ(g1.Signature(), g2.Signature());
  const std::string expect = std::to_string(g1.num_row_bands()) + "x" +
                             std::to_string(g1.num_col_bands()) + "/s" +
                             std::to_string(g1.blocks.size()) + "/p" +
                             std::to_string(g1.pruned_blocks);
  EXPECT_EQ(g1.Signature(), expect);
}

TEST(DensityGrid, DegenerateOperands) {
  CsrMatrix a(0);  // 0 columns; no rows
  CsrMatrix b(7);
  DensityGrid g = BuildDensityGrid(a, b, SmallGridOptions());
  EXPECT_EQ(g.grid_blocks, 0u);
  EXPECT_TRUE(g.blocks.empty());
  EXPECT_FALSE(g.beneficial);
}

// ---- RunHeavyProduct on a grid (core/heavy_product.h) ---------------------

// Every row the executor hands back, in original coordinates, must add up
// to the reference product — under every kernel mode, both delivery modes
// (per-block pieces, or whole rows gathered across column bands), and
// every thread count; whole_rows also delivers each row exactly once.
TEST(HeavyProduct, GridRowsComposeToReferenceProduct) {
  std::vector<std::pair<CsrMatrix, CsrMatrix>> operands;
  operands.push_back(DisjointOperands());
  operands.emplace_back(MakeSkewedCsr(37, 20, 1), MakeSkewedCsr(20, 29, 2));
  bool saw_multi_band = false;
  for (const auto& [a, b] : operands) {
    const Matrix want = CsrCsrProduct(a, b);
    for (HeavyPathMode mode :
         {HeavyPathMode::kAuto, HeavyPathMode::kForceDense,
          HeavyPathMode::kForceCsrDense, HeavyPathMode::kForceCsrCsr}) {
      for (bool whole_rows : {false, true}) {
        for (int threads : {1, 3}) {
          std::vector<Matrix> got(3, Matrix(a.rows(), b.cols()));
          std::vector<std::vector<int>> deliveries(
              3, std::vector<int>(a.rows(), 0));
          HeavyProduct p;
          p.heavy_path = mode;
          p.partition = PartitionMode::kForce;
          p.row_block = 4;
          p.rates = &TestRates();
          p.threads = threads;
          p.whole_rows = whole_rows;
          p.on_row = [&](int w, uint32_t row, const HeavyRow& out) {
            ++deliveries[w][row];
            out.ForEach([&](uint32_t col, uint32_t count) {
              got[w].MutableRow(row)[col] += static_cast<float>(count);
            });
          };
          bool interrupted = false;
          const HeavyRun run = RunHeavyProduct(a, b, p, &interrupted);
          ASSERT_TRUE(run.partition_used);
          saw_multi_band |= run.partition_col_bands > 1;
          EXPECT_FALSE(interrupted);
          EXPECT_EQ(run.heavy_blocks_executed, run.heavy_blocks_total);
          EXPECT_EQ(run.block_choices.size(), run.kernel_counts.total());
          for (size_t i = 0; i < a.rows(); ++i) {
            const int n = deliveries[0][i] + deliveries[1][i] + deliveries[2][i];
            if (whole_rows) EXPECT_EQ(n, 1) << "row " << i;
            for (size_t j = 0; j < b.cols(); ++j) {
              EXPECT_EQ(got[0].At(i, j) + got[1].At(i, j) + got[2].At(i, j),
                        want.At(i, j))
                  << HeavyPathModeName(mode) << " whole_rows=" << whole_rows
                  << " threads=" << threads << " cell (" << i << ", " << j
                  << ")";
            }
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_multi_band) << "test premise: a grid with several "
                                 "column bands runs";
}

// ---- MmJoinTwoPath under PartitionMode (end-to-end equivalence) ----------

TEST(MmJoinDensity, ForcedGridIsByteIdenticalToUniform) {
  BinaryRelation r = RandomRelation(120, 60, 1400, 1.3, 31);
  BinaryRelation s = RandomRelation(110, 60, 1300, 1.3, 32);
  IndexedRelation ri(r), si(s);
  const auto oracle = OracleTwoPathCounted(r, s);
  for (int threads : {1, 3}) {
    MmJoinOptions opts;
    opts.thresholds = {2, 2};
    opts.count_witnesses = true;
    opts.row_block = 8;
    opts.threads = threads;

    opts.partition = PartitionMode::kOff;
    auto off = MmRun(ri, si, opts);
    EXPECT_FALSE(off.partition_used);
    EXPECT_EQ(off.partition_signature, "uniform");

    opts.partition = PartitionMode::kForce;
    auto force = MmRun(ri, si, opts);
    ASSERT_GT(force.heavy_rows, 0u) << "test premise: heavy part exists";
    EXPECT_TRUE(force.partition_used);
    EXPECT_NE(force.partition_signature, "uniform");
    EXPECT_EQ(force.partition_blocks_scheduled +
                  force.partition_blocks_pruned,
              force.partition_row_bands * force.partition_col_bands);

    EXPECT_EQ(off.counted, oracle);
    EXPECT_EQ(force.counted, oracle);
    // Work units are remap-invariant: same chunk count either way.
    EXPECT_EQ(force.heavy_blocks_total, off.heavy_blocks_total);
  }
}

TEST(MmJoinDensity, AutoModeNeverChangesOutput) {
  for (uint64_t seed : {41ull, 42ull, 43ull}) {
    BinaryRelation r = RandomRelation(90, 45, 900, 1.5, seed);
    BinaryRelation s = RandomRelation(80, 45, 850, 1.5, seed + 100);
    IndexedRelation ri(r), si(s);
    MmJoinOptions opts;
    opts.thresholds = {2, 2};
    opts.count_witnesses = true;
    opts.row_block = 8;
    opts.threads = 2;
    opts.partition = PartitionMode::kAuto;
    auto auto_res = MmRun(ri, si, opts);
    opts.partition = PartitionMode::kOff;
    auto off_res = MmRun(ri, si, opts);
    EXPECT_EQ(auto_res.counted, off_res.counted);
  }
}

TEST(MmJoinDensity, SignatureStableAcrossThreadCounts) {
  BinaryRelation r = RandomRelation(100, 50, 1200, 1.4, 51);
  IndexedRelation ri(r);
  std::string first;
  for (int threads : {1, 2, 4}) {
    MmJoinOptions opts;
    opts.thresholds = {2, 2};
    opts.row_block = 8;
    opts.threads = threads;
    opts.partition = PartitionMode::kForce;
    auto res = MmRun(ri, ri, opts);
    ASSERT_GT(res.heavy_rows, 0u);
    if (first.empty()) {
      first = res.partition_signature;
    } else {
      EXPECT_EQ(res.partition_signature, first);
    }
  }
  EXPECT_FALSE(first.empty());
}

TEST(MmJoinDensity, EarlyExitBalancesUnderRemap) {
  // A limit sink that fills mid-way through the heavy chunks: executed +
  // skipped must still equal the planned total under the remapped schedule.
  BinaryRelation r;
  for (Value x = 0; x < 120; ++x) {
    for (Value y = 0; y < 10; ++y) r.Add(x, (x + y) % 40);
  }
  r.Finalize();
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {1, 1};
  opts.row_block = 8;
  opts.partition = PartitionMode::kForce;
  PageSink sink(0, 5);
  auto res = MmJoinTwoPath(ri, ri, opts, sink);
  ASSERT_GT(res.heavy_rows, 0u);
  EXPECT_TRUE(res.partition_used);
  EXPECT_EQ(res.heavy_blocks_executed + res.heavy_blocks_skipped,
            res.heavy_blocks_total);
  EXPECT_GT(res.heavy_blocks_skipped, 0u);
  EXPECT_EQ(sink.pairs().size(), 5u);
  EXPECT_EQ(res.light_chunks_executed + res.light_chunks_skipped,
            res.light_chunks_total);
}

TEST(MmJoinDensity, EngineReportsStableSignatureAcrossReExecutions) {
  // ExecStats carries the partitioning record through the engine, and the
  // signature fingerprint is identical on every re-execution of one
  // PreparedQuery (plan-cache hit or miss).
  QueryEngine engine;
  engine.catalog().Put("R", RandomRelation(120, 60, 1400, 1.3, 61));
  QuerySpec spec;
  spec.kind = QueryKind::kTwoPath;
  spec.relations = {"R"};
  PreparedQuery query;
  ASSERT_TRUE(engine.Prepare(spec, &query).ok());

  ExecOptions exec;
  exec.threads = 2;
  exec.thresholds = {2, 2};
  exec.partition = PartitionMode::kForce;
  std::string first;
  size_t first_size = 0;
  for (int run = 0; run < 3; ++run) {
    VectorSink sink;
    ExecStats stats;
    const QueryStatus st = engine.Execute(query, sink, exec, &stats);
    ASSERT_TRUE(st.ok()) << st.message();
    EXPECT_TRUE(stats.partition_used);
    EXPECT_EQ(stats.partition_blocks_scheduled + stats.partition_blocks_pruned,
              stats.partition_row_bands * stats.partition_col_bands);
    if (run == 0) {
      first = stats.partition_signature;
      first_size = sink.pairs().size();
      EXPECT_NE(first, "off");
      EXPECT_NE(first, "uniform");
    } else {
      EXPECT_EQ(stats.partition_signature, first);
      EXPECT_EQ(sink.pairs().size(), first_size);
    }
  }
}

}  // namespace
}  // namespace jpmm
