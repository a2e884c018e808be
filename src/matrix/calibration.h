// Runtime calibration of matrix-multiplication cost — §5, Table 1.
//
// The optimizer needs M̂(u, v, w, co): an estimate of the wall-clock seconds
// to multiply u x v by v x w matrices with co cores. Following the paper, we
// measure square products M̂(p, p, p, co) for a grid of p and extrapolate an
// arbitrary (u, v, w) through its effective dimension (u*V*w)^(1/3), which is
// exact for a classical kernel with predictable cubic growth. The kernel
// timed is the one the executor's dense blocks run, the bit-packed
// AND-popcount count (matrix/bit_rows.h), so V is v rounded up to whole
// 64-bit words. The same module measures the Table-1 system constants:
//   Ts - seconds per sequential std::vector element access
//   TI - seconds per random access + insert
//   Tm - seconds per 32-byte allocation

#ifndef JPMM_MATRIX_CALIBRATION_H_
#define JPMM_MATRIX_CALIBRATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jpmm {

/// Table-1 system constants (seconds per operation).
struct SystemConstants {
  double ts = 1e-9;   // sequential access
  double ti = 8e-9;   // random access + insert
  double tm = 15e-9;  // 32-byte allocation

  /// Micro-measures the constants on this machine.
  static SystemConstants Measure();
};

/// Measured throughput of the sparse heavy-part kernels
/// (matrix/sparse_matrix.h), in nnz-operations per second, at a small grid
/// of anchor densities. One nnz-op is one float accumulate of the
/// CSR x dense saxpy (relative to SparseProductOps) or one stamp-counter
/// update of the CSR x CSR expansion (relative to CsrCsrExpandOps). The
/// rate is density-dependent — at low density the saxpy is latency-bound on
/// short rows, at high density it streams — so rates are anchored at 2-3
/// densities and queried by log-density interpolation. dense_flops_per_sec
/// is the dense kernel's rate — the bit-packed AND-popcount product
/// (matrix/bit_rows.h) as dense-equivalent flops/s (2 p^3 / seconds),
/// read from MatMulCalibration::Default()'s 1-core 512^3 anchor — so the
/// per-block dense-vs-CSR dispatch (core/heavy_dispatch.h) compares kernels
/// measured on the same machine in the same process, and prices the dense
/// kernel at the rate the optimizer's M̂ does.
struct SparseKernelRates {
  struct Anchor {
    double density;
    double csr_dense_ops_per_sec;
    double csr_csr_ops_per_sec;
  };
  std::vector<Anchor> anchors;       // ascending density
  double dense_flops_per_sec = 1e9;  // bit-count anchor, dense-equivalent

  /// Times the sparse kernels on dim x dim operands at each density; the
  /// dense rate comes from MatMulCalibration::Default().
  static SparseKernelRates Measure(
      uint32_t dim = 1024, const std::vector<double>& densities = {1e-3, 1e-2,
                                                                   1e-1});

  /// Synthetic instance (deterministic tests): constant rates at all
  /// densities.
  static SparseKernelRates FromRates(double csr_dense_ops_per_sec,
                                     double csr_csr_ops_per_sec,
                                     double dense_flops_per_sec);

  /// Process-wide instance, measured once per active KernelIsa on first
  /// use under that level.
  static const SparseKernelRates& Default();

  /// Rates at an arbitrary density: log-density linear interpolation
  /// between the bracketing anchors, clamped at the grid ends.
  double CsrDenseRate(double density) const;
  double CsrCsrRate(double density) const;

  /// Priced seconds of the dense (bit-count) kernel on a rows x v by
  /// v x w block: 2 * rows * V * w dense-equivalent flops at
  /// dense_flops_per_sec, with V = v rounded up to whole 64-bit words — the
  /// kernel's word loop costs a 70-wide inner dimension what it costs a
  /// 128-wide one.
  double DenseSeconds(uint64_t rows, uint64_t v, uint64_t w) const;
};

/// Calibrated matrix-multiplication timing table, in the unit of
/// SparseKernelRates::DenseSeconds.
class MatMulCalibration {
 public:
  /// Times the bit-count kernel on square p x p products for each p in dims
  /// and each core count in cores, the rows split into that many row bands.
  /// dims must be ascending multiples of 64 (whole words).
  static MatMulCalibration Measure(const std::vector<uint32_t>& dims,
                                   const std::vector<int>& cores);

  /// Builds a synthetic table from a flops rate (tests / deterministic runs):
  /// time(p, co) = p^3 / (rate * co).
  static MatMulCalibration FromFlopsRate(double flops_per_second,
                                         const std::vector<int>& cores);

  /// Estimated seconds for a u x v times v x w product on co cores, with v
  /// rounded up to whole 64-bit words. Includes nothing but the
  /// multiplication itself. Core counts between calibrated anchors
  /// interpolate the measured speedup curve; counts beyond the grid
  /// extrapolate with the marginal per-core efficiency of the last measured
  /// segment (a single-anchor grid falls back to the old linear-scaling
  /// assumption).
  double EstimateSeconds(uint64_t u, uint64_t v, uint64_t w, int co) const;

  /// Process-wide instance, measured once per active KernelIsa on first
  /// use under that level, at dims {128, 256, 512, 1024}. The core grid
  /// anchors {1, 2, hardware} (deduplicated) so heavy-cost estimates
  /// reflect the measured parallel efficiency of row bands, not assumed
  /// linear scaling.
  static const MatMulCalibration& Default();

  /// Measured dense-equivalent flops rate at the largest calibrated dim,
  /// 1 core.
  double single_core_flops() const;

 private:
  struct Entry {
    uint32_t dim;
    double seconds;
  };
  // entries_[c] = timings for cores_[c], ascending dim.
  std::vector<int> cores_;
  std::vector<std::vector<Entry>> entries_;

  double EstimateForCore(double effective_dim, size_t core_idx) const;
};

}  // namespace jpmm

#endif  // JPMM_MATRIX_CALIBRATION_H_
