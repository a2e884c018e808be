#include "matrix/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace jpmm {

double RectangularMmOps(uint64_t u, uint64_t v, uint64_t w, double omega) {
  if (u == 0 || v == 0 || w == 0) return 0.0;
  const double beta = static_cast<double>(std::min({u, v, w}));
  return static_cast<double>(u) * static_cast<double>(v) *
         static_cast<double>(w) * std::pow(beta, omega - 3.0);
}

double MatrixBuildOps(uint64_t u, uint64_t v, uint64_t w) {
  return std::max(static_cast<double>(u) * static_cast<double>(v),
                  static_cast<double>(v) * static_cast<double>(w));
}

double SparseProductOps(uint64_t nnz, uint64_t u, uint64_t w) {
  if (w == 0) return 0.0;
  return (static_cast<double>(u) + static_cast<double>(nnz)) *
         static_cast<double>(w);
}

double SparseProductSeconds(double ops, double ops_per_sec) {
  JPMM_CHECK(ops_per_sec > 0.0);
  return std::max(0.0, ops) / ops_per_sec;
}

double Lemma3Runtime(double n, double out) {
  JPMM_CHECK(n >= 0 && out >= 0);
  return n + std::pow(n, 2.0 / 3.0) * std::pow(out, 1.0 / 3.0) *
                 std::pow(std::max(n, out), 1.0 / 3.0);
}

double Lemma2Runtime(double n, double out, int k) {
  JPMM_CHECK(k >= 2);
  return n * std::pow(out, 1.0 - 1.0 / static_cast<double>(k));
}

}  // namespace jpmm
