#include "join/sorted_set_ops.h"

#include <algorithm>
#include <queue>

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

size_t IntersectSorted(std::span<const Value> a, std::span<const Value> b,
                       std::vector<Value>* out) {
  const size_t before = out->size();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out->size() - before;
}

bool IsSubsetSorted(std::span<const Value> sub, std::span<const Value> super) {
  if (sub.size() > super.size()) return false;
  size_t j = 0;
  for (Value v : sub) {
    j = GallopTo(super, j, v);
    if (j == super.size() || super[j] != v) return false;
    ++j;
  }
  return true;
}

size_t KWayUnion(const std::vector<std::span<const Value>>& lists,
                 std::vector<Value>* out) {
  const size_t before = out->size();
  // (value, list index, position) min-heap.
  struct Head {
    Value v;
    uint32_t list;
    uint32_t pos;
    bool operator>(const Head& o) const { return v > o.v; }
  };
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
  for (uint32_t l = 0; l < lists.size(); ++l) {
    if (!lists[l].empty()) heap.push(Head{lists[l][0], l, 0});
  }
  while (!heap.empty()) {
    const Head h = heap.top();
    heap.pop();
    if (out->size() == before || out->back() != h.v) out->push_back(h.v);
    if (h.pos + 1 < lists[h.list].size()) {
      heap.push(Head{lists[h.list][h.pos + 1], h.list, h.pos + 1});
    }
  }
  return out->size() - before;
}

}  // namespace jpmm
