// Degree-based partitioning for the join-project strategies.
//
// Two partitioning concepts live here, one per generation:
//
// 1. TwoPathPartition — the paper's single global threshold (Algorithm 1,
//    steps 1-2):
//
//      R- = { (a,b) in R : deg_R(a) <= Delta2  or  deg_S(b) <= Delta1 }
//      S- = { (c,b) in S : deg_S(c) <= Delta2  or  deg_S(b) <= Delta1 }
//      R+ = R \ R-,  S+ = S \ S-
//
//    Note the y-lightness test is against S in both relations, exactly as
//    in §3.1 (for the paper's self-join experiments the test is symmetric).
//    Heavy values get dense ids: rows (heavy x), inner dimension (heavy y)
//    and columns (heavy z) of the rectangular matrices M1, M2. Heavy ids
//    are only assigned to values that can actually produce a heavy output
//    (e.g. a heavy x with no heavy y neighbour gets no row), keeping the
//    matrices tight.
//
// 2. DensityGrid — DIM³-style density-adaptive decomposition of the heavy
//    product (Huang & Chen, arXiv:2206.04995). One global Delta leaves the
//    heavy operands internally skewed: a few hub rows carry most of the
//    nnz, so any single per-row-block kernel choice is wrong for part of
//    the matrix. BuildDensityGrid sorts the heavy rows (and the output
//    columns) by degree so nnz concentrates into corner blocks, splits the
//    product into a small grid of density-homogeneous row x column bands
//    (band count chosen by pricing each candidate shape with the measured
//    SparseKernelRates sparse and dense anchors — not a fixed block
//    count), prunes blocks whose exact witness bound is zero, and assigns
//    each surviving block the kernel its density actually wants. Row bands
//    are snapped to row_block multiples so the executing join's work units
//    stay the same ceil(rows / row_block) chunks as the uniform plan —
//    early-exit accounting (executed + skipped == total) is remap-invariant.
//    The permutations are pure execution-order devices: emit paths apply
//    the inverse remap, so outputs are byte-identical to the uniform plan.

#ifndef JPMM_CORE_DENSITY_PARTITION_H_
#define JPMM_CORE_DENSITY_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/heavy_dispatch.h"
#include "core/thresholds.h"
#include "matrix/sparse_matrix.h"
#include "storage/index.h"
#include "storage/relation.h"

namespace jpmm {

/// Lightness oracles + heavy-value id maps for one (R, S, Thresholds) triple.
class TwoPathPartition {
 public:
  TwoPathPartition(const IndexedRelation& r, const IndexedRelation& s,
                   Thresholds t);

  const Thresholds& thresholds() const { return t_; }

  /// deg_R(a) <= Delta2.
  bool XLight(Value a) const { return r_->DegX(a) <= t_.delta2; }
  /// deg_S(c) <= Delta2.
  bool ZLight(Value c) const { return s_->DegX(c) <= t_.delta2; }
  /// deg_S(b) <= Delta1 — Algorithm 1's join-variable lightness test.
  bool YLight(Value b) const { return s_->DegY(b) <= t_.delta1; }

  /// Heavy x values that own a matrix row (ascending).
  const std::vector<Value>& heavy_x() const { return heavy_x_; }
  /// Heavy y values that own a matrix inner index (ascending).
  const std::vector<Value>& heavy_y() const { return heavy_y_; }
  /// Heavy z values that own a matrix column (ascending).
  const std::vector<Value>& heavy_z() const { return heavy_z_; }

  /// Row id of a, or kInvalidValue when a has no row.
  Value HeavyXId(Value a) const {
    return a < heavy_x_id_.size() ? heavy_x_id_[a] : kInvalidValue;
  }
  Value HeavyYId(Value b) const {
    return b < heavy_y_id_.size() ? heavy_y_id_[b] : kInvalidValue;
  }
  Value HeavyZId(Value c) const {
    return c < heavy_z_id_.size() ? heavy_z_id_[c] : kInvalidValue;
  }

  /// Resident bytes of the heavy-value lists and id maps.
  uint64_t Bytes() const {
    return sizeof(Value) *
           (heavy_x_.size() + heavy_y_.size() + heavy_z_.size() +
            heavy_x_id_.size() + heavy_y_id_.size() + heavy_z_id_.size());
  }

  /// Materialized subrelations (diagnostics / partition-invariant tests; the
  /// join itself never materializes them).
  BinaryRelation RMinus() const;
  BinaryRelation RPlus() const;
  BinaryRelation SMinus() const;
  BinaryRelation SPlus() const;

 private:
  const IndexedRelation* r_;
  const IndexedRelation* s_;
  Thresholds t_;
  std::vector<Value> heavy_x_, heavy_y_, heavy_z_;
  std::vector<Value> heavy_x_id_, heavy_y_id_, heavy_z_id_;
};

/// Whether a heavy product may be executed on a density-adaptive grid.
/// kAuto engages the grid only when its priced cost (including the remap
/// and band-slice build overhead) beats the uniform row-block plan; kForce
/// engages it whenever a non-trivial heavy part exists (equivalence tests
/// and the differential fuzzer pin it on); kOff always runs the uniform
/// plan.
enum class PartitionMode {
  kAuto,
  kOff,
  kForce,
};

const char* PartitionModeName(PartitionMode m);

struct DensityGridOptions {
  /// Work-unit granularity of the executing join. Row-band boundaries are
  /// snapped to multiples of this so a chunk never straddles two bands.
  size_t row_block = 256;
  /// Grid shape search space: candidate band counts are the powers of two
  /// up to these bounds (an 8x8 grid is already far past the point of
  /// diminishing homogeneity returns on real degree distributions).
  size_t max_row_bands = 8;
  size_t max_col_bands = 8;
  /// Forced kernel modes pin every block's kernel, as in PlanProductBlocks.
  HeavyPathMode mode = HeavyPathMode::kAuto;
  /// nullptr resolves to SparseKernelRates::Default().
  const SparseKernelRates* rates = nullptr;
  /// Representation gates from the caller's memory-cap accounting.
  bool allow_dense = true;
  bool allow_csr_dense = true;
};

/// A density-adaptive decomposition of one A (rows x v) * B (v x cols)
/// counting product. Permutations map remapped indices to original ones;
/// the inner dimension is never remapped (both operands see it in original
/// order). blocks holds only the scheduled (non-pruned) grid cells, in
/// row-band-major order, with row/col ranges in *remapped* coordinates.
struct DensityGrid {
  std::vector<uint32_t> row_perm;  // remapped row -> original row
  std::vector<uint32_t> col_perm;  // remapped col -> original col
  /// Band offsets, sizes num_row_bands()+1 / num_col_bands()+1. Interior
  /// row-band offsets are multiples of row_block.
  std::vector<uint32_t> row_bands;
  std::vector<uint32_t> col_bands;
  /// Scheduled blocks with per-block kernel choice. nnz / density describe
  /// the A row band feeding the block (the inner dimension is unsplit).
  std::vector<BlockKernelChoice> blocks;
  uint64_t grid_blocks = 0;   // num_row_bands * num_col_bands
  uint64_t pruned_blocks = 0; // cells whose exact witness bound was zero
  double est_seconds = 0.0;          // priced grid cost incl. remap overhead
  double est_uniform_seconds = 0.0;  // priced uniform row-block plan cost
  /// True iff the grid is priced strictly cheaper than the uniform plan
  /// (with margin) — what PartitionMode::kAuto keys off.
  bool beneficial = false;

  size_t num_row_bands() const {
    return row_bands.empty() ? 0 : row_bands.size() - 1;
  }
  size_t num_col_bands() const {
    return col_bands.empty() ? 0 : col_bands.size() - 1;
  }

  /// Stable plan fingerprint, e.g. "4x2/s7/p1" (row bands x col bands,
  /// scheduled, pruned). Depends only on the operands, the rates, and the
  /// gates — never on thread count — so repeated executions of one
  /// PreparedQuery against an unchanged catalog report the same signature.
  std::string Signature() const;
};

/// Builds the density-adaptive grid for A * B: degree-sorted row/column
/// permutations, cost-priced band-count selection over candidate shapes,
/// exact per-block witness bounds (a zero bound prunes the block), and a
/// per-block kernel choice under the given mode/gates. Deterministic for
/// fixed operands + options.
DensityGrid BuildDensityGrid(const CsrMatrix& a, const CsrMatrix& b,
                             const DensityGridOptions& opts);

}  // namespace jpmm

#endif  // JPMM_CORE_DENSITY_PARTITION_H_
