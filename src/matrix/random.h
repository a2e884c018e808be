// Random matrix generators shared by calibration, benchmarks, and tests.
//
// One definition so the operands calibration measures, the microbenchmark
// times, and the property tests verify are the same distribution.

#ifndef JPMM_MATRIX_RANDOM_H_
#define JPMM_MATRIX_RANDOM_H_

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "matrix/dense_matrix.h"

namespace jpmm {

/// rows x cols matrix with each entry 1.0f with probability density, else 0.
inline Matrix RandomDenseMatrix(size_t rows, size_t cols, double density,
                                uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.NextBool(density)) m.Set(i, j, 1.0f);
    }
  }
  return m;
}

}  // namespace jpmm

#endif  // JPMM_MATRIX_RANDOM_H_
