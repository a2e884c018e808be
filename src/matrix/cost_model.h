// Operation counts of the sparse heavy-part kernels and their priced time.
//
// The dense blocks' kernel is priced in calibration.h
// (SparseKernelRates::DenseSeconds, MatMulCalibration::EstimateSeconds);
// the CSR kernels are priced here, as operation counts at a measured rate.

#ifndef JPMM_MATRIX_COST_MODEL_H_
#define JPMM_MATRIX_COST_MODEL_H_

#include <cstdint>

namespace jpmm {

/// Float-accumulate operations of the CSR x dense saxpy kernel producing a
/// U x W product from a CSR operand with nnz set cells: U*W output-zeroing
/// stores plus one add per (A entry, output column) pair. The count scales
/// with density, where a dense kernel's U*V*W does not.
double SparseProductOps(uint64_t nnz, uint64_t u, uint64_t w);

/// Seconds for a sparse product at a measured nnz-op rate
/// (SparseKernelRates in calibration.h). ops is SparseProductOps for the
/// CSR x dense kernel or the exact expansion count (CsrCsrExpandOps) for
/// the CSR x CSR kernel.
double SparseProductSeconds(double ops, double ops_per_sec);

}  // namespace jpmm

#endif  // JPMM_MATRIX_COST_MODEL_H_
