// Analytical matrix-multiplication cost model (Lemma 1).
//
// M(U, V, W) = O(U*V*W * beta^(omega-3)) with beta = min(U, V, W): a
// rectangular product decomposes into (UVW / beta^3) square beta-products,
// each O(beta^omega). With the classical kernel omega = 3 and the formula
// degenerates to U*V*W operations; the omega knob exists so tests and the
// theory-facing helpers can reason about fast-MM regimes (omega = 2.373, 2).

#ifndef JPMM_MATRIX_COST_MODEL_H_
#define JPMM_MATRIX_COST_MODEL_H_

#include <cstdint>

namespace jpmm {

/// Exponent of our actual kernel (classical multiplication).
inline constexpr double kClassicalOmega = 3.0;
/// Best published exponent the paper cites (Le Gall & Urrutia).
inline constexpr double kBestKnownOmega = 2.373;

/// Lemma 1 operation count for a U x V times V x W product.
double RectangularMmOps(uint64_t u, uint64_t v, uint64_t w,
                        double omega = kClassicalOmega);

/// Cost of materializing the two rectangular operands as dense arrays
/// (the constant C of §3.1): max(U*V, V*W) cell visits.
double MatrixBuildOps(uint64_t u, uint64_t v, uint64_t w);

/// Float-accumulate operations of the CSR x dense saxpy kernel producing a
/// U x W product from a CSR operand with nnz set cells: U*W output-zeroing
/// stores plus one add per (A entry, output column) pair. Compare against
/// RectangularMmOps' U*V*W to see the zero-skip: the sparse count scales
/// with density, the dense one does not.
double SparseProductOps(uint64_t nnz, uint64_t u, uint64_t w);

/// Seconds for a sparse product at a measured nnz-op rate
/// (SparseKernelRates in calibration.h). ops is SparseProductOps for the
/// CSR x dense kernel or the exact expansion count (CsrCsrExpandOps) for
/// the CSR x CSR kernel.
double SparseProductSeconds(double ops, double ops_per_sec);

/// Lemma 3 runtime shape, for shape-checking tests:
/// |D| + |D|^(2/3) * |OUT|^(1/3) * max(|D|, |OUT|)^(1/3)   (omega = 2).
double Lemma3Runtime(double n, double out);

/// Lemma 2 (combinatorial) runtime shape: |D| * |OUT|^(1 - 1/k).
double Lemma2Runtime(double n, double out, int k);

}  // namespace jpmm

#endif  // JPMM_MATRIX_COST_MODEL_H_
