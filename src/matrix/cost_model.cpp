#include "matrix/cost_model.h"

#include <algorithm>

#include "common/check.h"

namespace jpmm {

double SparseProductOps(uint64_t nnz, uint64_t u, uint64_t w) {
  if (w == 0) return 0.0;
  return (static_cast<double>(u) + static_cast<double>(nnz)) *
         static_cast<double>(w);
}

double SparseProductSeconds(double ops, double ops_per_sec) {
  JPMM_CHECK(ops_per_sec > 0.0);
  return std::max(0.0, ops) / ops_per_sec;
}

}  // namespace jpmm
