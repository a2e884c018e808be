#include "join/intersection.h"

#include <algorithm>

namespace jpmm {
namespace {

// Galloping lower_bound: doubles the step from `start` then binary searches.
size_t GallopTo(std::span<const Value> v, size_t start, Value target) {
  size_t step = 1;
  size_t lo = start;
  size_t hi = start;
  while (hi < v.size() && v[hi] < target) {
    lo = hi;
    hi += step;
    step <<= 1;
  }
  hi = std::min(hi, v.size());
  return static_cast<size_t>(
      std::lower_bound(v.begin() + lo, v.begin() + hi, target) - v.begin());
}

}  // namespace

size_t IntersectCount(std::span<const Value> a, std::span<const Value> b) {
  if (a.size() > b.size()) std::swap(a, b);
  // Gallop when lopsided (>32x), merge otherwise.
  if (b.size() > 32 * a.size()) {
    size_t count = 0;
    size_t j = 0;
    for (Value v : a) {
      j = GallopTo(b, j, v);
      if (j == b.size()) break;
      if (b[j] == v) {
        ++count;
        ++j;
      }
    }
    return count;
  }
  size_t count = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

bool IntersectsSorted(std::span<const Value> a, std::span<const Value> b) {
  if (a.empty() || b.empty()) return false;
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() > 32 * a.size()) {
    size_t j = 0;
    for (Value v : a) {
      j = GallopTo(b, j, v);
      if (j == b.size()) return false;
      if (b[j] == v) return true;
    }
    return false;
  }
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace jpmm
