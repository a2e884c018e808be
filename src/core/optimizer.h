// Algorithm 3 — the cost-based optimizer choosing degree thresholds.
//
// The optimizer estimates, for candidate (Delta1, Delta2):
//   t_light = TI * ( sum(y, D1) + sum(x, D2) + sum(z, D2) ) + Tm * stamp setup
//   t_heavy = Mhat(u, v, w, cores) + Ts * (u*v + v*w)  [build] + Ts * u*w [scan]
// with u/v/w = heavy x/y/z counts from count(w, delta) indexes, and Mhat from
// the calibrated matrix-multiplication table (§5). Candidates follow line 9
// of Algorithm 3: Delta2 = N * Delta1 / |OUT_est|, with Delta1 swept over a
// geometric grid.
//
// Documented deviation: because one cost probe is O(log N), the optimizer
// sweeps the full grid (ratio 0.5) and takes the argmin instead of stopping
// at the first cost increase, the paper's stopping rule.

#ifndef JPMM_CORE_OPTIMIZER_H_
#define JPMM_CORE_OPTIMIZER_H_

#include <cstdint>
#include <string>

#include "core/heavy_dispatch.h"
#include "core/thresholds.h"
#include "matrix/calibration.h"
#include "storage/index.h"
#include "storage/stats.h"

namespace jpmm {

struct OptimizerOptions {
  int threads = 1;
  /// nullptr => MatMulCalibration::Default().
  const MatMulCalibration* calibration = nullptr;
  /// Measured on first use when not supplied.
  const SystemConstants* constants = nullptr;
};

/// The optimizer's decision for one 2-path instance.
struct PlanChoice {
  /// True: skip the decomposition, run plain WCOJ + dedup (output close to
  /// the full join, Algorithm 3 line 2-3).
  bool use_full_wcoj = false;
  Thresholds thresholds;
  uint64_t estimated_output = 0;
  uint64_t full_join_size = 0;
  double est_light_seconds = 0.0;
  double est_heavy_seconds = 0.0;
  /// Heavy-part kernel the cost model expects to win at the chosen
  /// thresholds (execution re-decides per product block from exact nnz;
  /// this is the plan-level prediction) and the estimated operand density
  /// it was derived from.
  ProductKernel heavy_kernel = ProductKernel::kDenseGemm;
  double est_heavy_density = 0.0;
  /// True when the density-adaptive decomposition (degree-remapped row x
  /// column bands with per-band kernels, core/density_partition.h) priced
  /// cheaper than every single-kernel heavy estimate at the chosen
  /// thresholds, with the predicted band count. Execution re-decides from
  /// exact nnz (PartitionMode::kAuto); this is the plan-level prediction
  /// jpmm_cli --explain surfaces.
  bool density_adaptive = false;
  uint64_t partition_bands = 0;

  std::string ToString() const;
};

/// Chooses the MMJoin plan for pi_{x,z}(R JOIN S).
PlanChoice ChooseTwoPathPlan(const IndexedRelation& r,
                             const IndexedRelation& s,
                             const TwoPathStats& stats,
                             const OptimizerOptions& opts = {});

/// Thresholds for the combinatorial Non-MM join (Lemma 2): the balanced
/// choice Delta1 = Delta2 = max(1, N / sqrt(|OUT_est|)).
Thresholds ChooseNonMmThresholds(const IndexedRelation& r,
                                 const IndexedRelation& s,
                                 const TwoPathStats& stats);

}  // namespace jpmm

#endif  // JPMM_CORE_OPTIMIZER_H_
