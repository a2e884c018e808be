// Degree thresholds (Delta_1, Delta_2) parameterizing Algorithm 1 and the
// star-join algorithm of Section 3.2.

#ifndef JPMM_CORE_THRESHOLDS_H_
#define JPMM_CORE_THRESHOLDS_H_

#include <cstdint>
#include <string>

namespace jpmm {

/// Delta_1 bounds the join-variable (y) degree; Delta_2 bounds the head
/// variable (x_i) degree. Values are "light" at or below the threshold and
/// "heavy" above it.
struct Thresholds {
  uint64_t delta1 = 1;
  uint64_t delta2 = 1;

  bool operator==(const Thresholds&) const = default;

  std::string ToString() const {
    return "d1=" + std::to_string(delta1) + " d2=" + std::to_string(delta2);
  }
};

}  // namespace jpmm

#endif  // JPMM_CORE_THRESHOLDS_H_
