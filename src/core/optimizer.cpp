#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>

#include "core/estimator.h"
#include "matrix/cost_model.h"

namespace jpmm {
namespace {

// Geometric grid ratio of the Delta1 sweep (paper: 1 - epsilon with
// epsilon = 0.95; a finer 0.5 grid here).
constexpr double kGridRatio = 0.5;
// "If |OUT_join| <= cutoff * N, use a plain worst-case-optimal join"
// (Algorithm 3 line 2).
constexpr double kFullJoinCutoff = 20.0;

const SystemConstants& DefaultConstants() {
  static std::once_flag flag;
  static SystemConstants constants;
  std::call_once(flag, [] { constants = SystemConstants::Measure(); });
  return constants;
}

struct CostBreakdown {
  double light = 0.0;
  double heavy = 0.0;
  ProductKernel heavy_kernel = ProductKernel::kDenseGemm;
  double heavy_density = 0.0;
  bool density_adaptive = false;
  uint64_t partition_bands = 0;
  double total() const { return light + heavy; }
};

CostBreakdown EvaluateCost(const TwoPathStats& stats, Thresholds t,
                           const OptimizerOptions& opts,
                           const MatMulCalibration& cal,
                           const SystemConstants& consts, uint64_t num_z_dom) {
  CostBreakdown cost;
  const double light_ops = stats.SumYAtMost(t.delta1) +
                           stats.SumXAtMost(t.delta2) +
                           stats.SumZAtMost(t.delta2);
  cost.light = consts.ti * light_ops + consts.tm * 2.0 *
                                           static_cast<double>(num_z_dom) /
                                           (1 << 10);
  // The stamp arrays are allocated once per worker, not per x value; the
  // amortized term above is tiny and only breaks ties toward smaller setups.

  const uint64_t u = stats.distinct_x() - stats.CountXAtMost(t.delta2);
  const uint64_t v = stats.distinct_y() - stats.CountYAtMost(t.delta1);
  const uint64_t w = stats.distinct_z() - stats.CountZAtMost(t.delta2);
  if (u > 0 && v > 0 && w > 0) {
    // Resolved lazily so fully-light plans never pay the one-time sparse
    // calibration (same contract as PlanProductBlocks).
    const SparseKernelRates& srates = SparseKernelRates::Default();
    const int co = std::max(1, opts.threads);
    const double cells = static_cast<double>(u) * static_cast<double>(v);
    // nnz upper bounds from the degree CDFs: every M1 cell is an R-tuple
    // with a heavy x (and heavy y — not queryable, so this over-estimates
    // density and under-sells the sparse kernels: a conservative tilt).
    const double nnz1 = std::min(
        cells, static_cast<double>(stats.num_tuples_r()) -
                   stats.SumDegXAtMost(t.delta2));
    const double nnz2 = std::min(
        static_cast<double>(v) * static_cast<double>(w),
        static_cast<double>(stats.num_tuples_s()) -
            stats.SumDegZAtMost(t.delta2));
    const double density = std::clamp(nnz1 / std::max(1.0, cells), 0.0, 1.0);
    cost.heavy_density = density;

    const double scan = consts.ts * static_cast<double>(u) * w;
    // Every kernel reads the CSR operands, built in O(nnz).
    const double csr_build = consts.ts * (nnz1 + nnz2);
    // The dense kernel's bit rows of A and B^T (matrix/bit_rows.h), built
    // from the CSR: one pass over the nnz plus ceil(v/64) zeroed words a row.
    const double v_words = std::ceil(static_cast<double>(v) / 64.0);
    auto bit_build = [&](double nnz, double rows) {
      return consts.ts * (nnz + rows * v_words);
    };
    // Dense (the bit count): calibrated M̂ + operand builds + scan.
    const double dense_sec =
        cal.EstimateSeconds(u, v, w, co) + csr_build +
        bit_build(nnz1 + nnz2, static_cast<double>(u + w)) + scan;
    // CSR x dense: M2 is still dense. Row bands parallelize
    // coordination-free, so divide the kernel time by cores.
    const double csr_dense_sec =
        csr_build + consts.ts * static_cast<double>(v) * w +
        SparseProductSeconds(
            SparseProductOps(static_cast<uint64_t>(nnz1), u, w),
            srates.CsrDenseRate(density)) /
            co +
        scan;
    // CSR x CSR: expansion bound nnz1 * avg M2 row nnz; sparse emit (no
    // dense output scan).
    const double expand = nnz1 * (nnz2 / static_cast<double>(v));
    const double csr_csr_sec =
        csr_build +
        SparseProductSeconds(expand, srates.CsrCsrRate(density)) / co;

    cost.heavy = dense_sec;
    cost.heavy_kernel = ProductKernel::kDenseGemm;
    if (csr_dense_sec < cost.heavy) {
      cost.heavy = csr_dense_sec;
      cost.heavy_kernel = ProductKernel::kCsrDense;
    }
    if (csr_csr_sec < cost.heavy) {
      cost.heavy = csr_csr_sec;
      cost.heavy_kernel = ProductKernel::kCsrCsr;
    }

    // Density-adaptive alternative (core/density_partition.h): the degree
    // remap splits the product into B x B bands whose per-band nnz the
    // degree CDFs bound without touching the tuples (HeavyXBandNnz /
    // HeavyZBandNnz). Skew concentrates nnz in the leading bands; trailing
    // bands go ultra-sparse and win on CSR x CSR, so the sum of per-cell
    // minima can beat every whole-matrix kernel choice. CSR builds plus
    // the remap passes are charged up front; execution re-decides from
    // exact nnz under PartitionMode::kAuto.
    for (uint64_t bc : {2ull, 4ull, 8ull}) {
      if (u < bc || w < bc) break;
      const size_t bands = static_cast<size_t>(bc);
      const std::vector<double> row_nnz = stats.HeavyXBandNnz(t.delta2, bands);
      const std::vector<double> col_nnz = stats.HeavyZBandNnz(t.delta2, bands);
      const double remap = consts.ts * 2.0 * (nnz1 + nnz2);
      double total = csr_build + remap;
      for (size_t i = 0; i < bands; ++i) {
        const uint64_t ui = (u + bc - 1) / bc;
        const double cell_nnz = std::min(
            row_nnz[i], static_cast<double>(ui) * static_cast<double>(v));
        const double cell_density = std::clamp(
            cell_nnz / std::max(1.0, static_cast<double>(ui) *
                                         static_cast<double>(v)),
            0.0, 1.0);
        for (size_t j = 0; j < bands; ++j) {
          const uint64_t wj = (w + bc - 1) / bc;
          const double cell_scan =
              consts.ts * static_cast<double>(ui) * static_cast<double>(wj);
          const double d_cell =
              cal.EstimateSeconds(ui, v, wj, co) +
              bit_build(cell_nnz + col_nnz[j], static_cast<double>(ui + wj)) +
              cell_scan;
          const double sd_cell =
              consts.ts * static_cast<double>(v) * wj +
              SparseProductSeconds(
                  SparseProductOps(static_cast<uint64_t>(cell_nnz), ui, wj),
                  srates.CsrDenseRate(cell_density)) /
                  co +
              cell_scan;
          const double cc_cell =
              SparseProductSeconds(
                  row_nnz[i] * (col_nnz[j] / static_cast<double>(v)),
                  srates.CsrCsrRate(cell_density)) /
              co;
          total += std::min({d_cell, sd_cell, cc_cell});
        }
      }
      if (total < cost.heavy) {
        cost.heavy = total;
        cost.density_adaptive = true;
        cost.partition_bands = bc;
      }
    }
  }
  return cost;
}

}  // namespace

std::string PlanChoice::ToString() const {
  std::ostringstream os;
  if (use_full_wcoj) {
    os << "plan=wcoj-full join=" << full_join_size;
  } else {
    os << "plan=mmjoin " << thresholds.ToString()
       << " est_out=" << estimated_output << " join=" << full_join_size
       << " est_light=" << est_light_seconds
       << " est_heavy=" << est_heavy_seconds
       << " heavy_kernel=" << ProductKernelName(heavy_kernel)
       << " est_density=" << est_heavy_density;
    if (density_adaptive) {
      os << " partition=density-adaptive bands=" << partition_bands;
    }
  }
  return os.str();
}

PlanChoice ChooseTwoPathPlan(const IndexedRelation& r,
                             const IndexedRelation& s,
                             const TwoPathStats& stats,
                             const OptimizerOptions& opts) {
  const MatMulCalibration& cal =
      opts.calibration != nullptr ? *opts.calibration
                                  : MatMulCalibration::Default();
  const SystemConstants& consts =
      opts.constants != nullptr ? *opts.constants : DefaultConstants();

  PlanChoice plan;
  const OutputEstimate est = EstimateTwoPathOutput(r, s, stats);
  plan.estimated_output = est.estimate;
  plan.full_join_size = est.full_join_size;

  const uint64_t n = std::max(r.num_tuples(), s.num_tuples());
  // Algorithm 3 line 2: duplication factor too small to pay for the
  // decomposition — evaluate the join directly.
  if (static_cast<double>(est.full_join_size) <=
      kFullJoinCutoff * static_cast<double>(n)) {
    plan.use_full_wcoj = true;
    plan.thresholds = Thresholds{n, n};  // everything light
    return plan;
  }

  double best_cost = -1.0;
  CostBreakdown best_breakdown;
  Thresholds best{1, 1};
  for (double d1 = static_cast<double>(n); d1 >= 1.0; d1 *= kGridRatio) {
    Thresholds t;
    t.delta1 = static_cast<uint64_t>(d1);
    // Algorithm 3 line 9: Delta2 = N * Delta1 / |OUT|.
    const double d2 = static_cast<double>(n) * d1 /
                      std::max<double>(1.0, static_cast<double>(est.estimate));
    t.delta2 = static_cast<uint64_t>(
        std::clamp(d2, 1.0, static_cast<double>(n)));
    const CostBreakdown cost =
        EvaluateCost(stats, t, opts, cal, consts, s.num_x());
    if (best_cost < 0 || cost.total() < best_cost) {
      best_cost = cost.total();
      best_breakdown = cost;
      best = t;
    }
    if (t.delta1 == 1) break;
  }

  plan.thresholds = best;
  plan.est_light_seconds = best_breakdown.light;
  plan.est_heavy_seconds = best_breakdown.heavy;
  plan.heavy_kernel = best_breakdown.heavy_kernel;
  plan.est_heavy_density = best_breakdown.heavy_density;
  plan.density_adaptive = best_breakdown.density_adaptive;
  plan.partition_bands = best_breakdown.partition_bands;
  return plan;
}

Thresholds ChooseNonMmThresholds(const IndexedRelation& r,
                                 const IndexedRelation& s,
                                 const TwoPathStats& stats) {
  const OutputEstimate est = EstimateTwoPathOutput(r, s, stats);
  const double n =
      static_cast<double>(std::max(r.num_tuples(), s.num_tuples()));
  const double delta =
      n / std::sqrt(std::max(1.0, static_cast<double>(est.estimate)));
  const auto d = static_cast<uint64_t>(std::clamp(delta, 1.0, n));
  return Thresholds{d, d};
}

}  // namespace jpmm
