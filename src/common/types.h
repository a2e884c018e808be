// Core value types shared by every jpmm module.
//
// Relations store dictionary-encoded 32-bit values; a binary relation R(x, y)
// is a multiset of (Value, Value) pairs. All algorithms in the library work
// over these dense ids; a caller with string attributes maps them to ids
// before they enter a relation (the loaders read integer edge lists).

#ifndef JPMM_COMMON_TYPES_H_
#define JPMM_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace jpmm {

/// Dictionary-encoded attribute value. Dense ids in [0, domain_size).
using Value = uint32_t;

/// Sentinel for "no value" (never a legal dictionary code).
inline constexpr Value kInvalidValue = std::numeric_limits<Value>::max();

/// One tuple of a binary relation R(x, y).
struct Tuple {
  Value x = 0;
  Value y = 0;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.x == b.x && a.y == b.y;
  }
  friend bool operator<(const Tuple& a, const Tuple& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  }
};

/// Output pair of a join-project query Q(x, z).
struct OutPair {
  Value x = 0;
  Value z = 0;

  friend bool operator==(const OutPair& a, const OutPair& b) {
    return a.x == b.x && a.z == b.z;
  }
  friend bool operator<(const OutPair& a, const OutPair& b) {
    return a.x != b.x ? a.x < b.x : a.z < b.z;
  }
};

/// Output pair annotated with its witness count |{b : (x,b) in R, (z,b) in S}|.
/// The count is what ordered SSJ sorts by and what SCJ compares to |set|.
struct CountedPair {
  Value x = 0;
  Value z = 0;
  uint32_t count = 0;

  friend bool operator==(const CountedPair& a, const CountedPair& b) {
    return a.x == b.x && a.z == b.z && a.count == b.count;
  }
  friend bool operator<(const CountedPair& a, const CountedPair& b) {
    if (a.x != b.x) return a.x < b.x;
    if (a.z != b.z) return a.z < b.z;
    return a.count < b.count;
  }
};

/// Packs an output pair into one 64-bit key (for hash sets / sorting).
inline uint64_t PackPair(Value x, Value z) {
  return (static_cast<uint64_t>(x) << 32) | z;
}
inline OutPair UnpackPair(uint64_t key) {
  return OutPair{static_cast<Value>(key >> 32),
                 static_cast<Value>(key & 0xffffffffu)};
}

}  // namespace jpmm

#endif  // JPMM_COMMON_TYPES_H_
