// Worst-case optimal evaluation of star joins.
//
// For the star query Q(x1..xk) = R1(x1,y), ..., Rk(xk,y) a worst-case
// optimal plan keys every relation on the shared variable y and, per y
// value, emits the cartesian product of the adjacency lists (Prop. 1 / the
// generic-join instantiation for stars). Projection of y then needs a global
// tuple dedup, which TupleBuffer provides.

#ifndef JPMM_JOIN_STAR_WCOJ_H_
#define JPMM_JOIN_STAR_WCOJ_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.h"
#include "storage/index.h"

namespace jpmm {

/// Flat buffer of fixed-arity tuples with sort/unique dedup.
class TupleBuffer {
 public:
  explicit TupleBuffer(uint32_t arity) : arity_(arity) {}
  /// Takes `flat` as the tuples, arity values each.
  TupleBuffer(uint32_t arity, std::vector<Value> flat)
      : arity_(arity), flat_(std::move(flat)) {}

  uint32_t arity() const { return arity_; }
  size_t size() const { return flat_.size() / arity_; }
  bool empty() const { return flat_.empty(); }

  /// Appends one tuple (must have exactly arity values).
  void Add(std::span<const Value> tuple);

  /// Tuple i as a span.
  std::span<const Value> Get(size_t i) const {
    return {flat_.data() + i * arity_, arity_};
  }

  /// Sorts tuples lexicographically and removes duplicates.
  void SortUnique();

  /// Appends every tuple of other.
  void Append(const TupleBuffer& other);

  const std::vector<Value>& flat() const { return flat_; }

 private:
  uint32_t arity_;
  std::vector<Value> flat_;
};

/// Per-relation filter applied during enumeration: tuple (a, b) of relation
/// i participates iff filter(i, a, b). Null filter = no restriction.
using StarTupleFilter = std::function<bool(size_t rel, Value a, Value b)>;

/// Evaluates pi_{x1..xk}(R1 JOIN ... JOIN Rk) over the shared variable y.
/// The result is sorted and duplicate-free. `filter`, if set, restricts each
/// relation's tuples (used by the light/heavy decomposition steps).
/// `y_filter`, if set, restricts which y values are expanded. `threads`
/// partitions the y domain across workers (coordination-free; results are
/// merged and dedup'd at the end).
TupleBuffer StarJoinProjectWcoj(
    const std::vector<const IndexedRelation*>& rels,
    const StarTupleFilter& filter = nullptr,
    const std::function<bool(Value y)>& y_filter = nullptr, int threads = 1);

/// Size of the full star join (before projection).
uint64_t FullStarJoinSize(const std::vector<const IndexedRelation*>& rels);

}  // namespace jpmm

#endif  // JPMM_JOIN_STAR_WCOJ_H_
