// IndexedRelation: dual-direction CSR adjacency over a BinaryRelation.
//
// Section 5 ("Indexing relations"): worst-case optimal processing needs the
// relation indexed on every variable — by x (key x, sorted y-list) and by y
// (key y, sorted x-list). Building both is O(|D| log |D|); all join
// algorithms in jpmm consume this form.
//
// Each tuple takes 12 bytes: its y in the x-direction, its x in the
// y-direction, and its twin position — where its x sits in the
// y-direction, recorded at build time so a self join's mirrored scan
// starts there without a search.

#ifndef JPMM_STORAGE_INDEX_H_
#define JPMM_STORAGE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "storage/relation.h"

namespace jpmm {

/// Immutable CSR index of a binary relation in both directions.
class IndexedRelation {
 public:
  IndexedRelation() = default;

  /// Builds both CSR directions. The relation must be finalized.
  explicit IndexedRelation(const BinaryRelation& rel);

  size_t num_tuples() const { return num_tuples_; }
  Value num_x() const { return num_x_; }
  Value num_y() const { return num_y_; }

  /// Sorted y-neighbours of x-value a (empty span if out of range).
  std::span<const Value> YsOf(Value a) const {
    if (a >= num_x_) return {};
    return {x_neighbors_.data() + x_offsets_[a],
            x_offsets_[a + 1] - x_offsets_[a]};
  }

  /// Sorted x-neighbours of y-value b (empty span if out of range).
  std::span<const Value> XsOf(Value b) const {
    if (b >= num_y_) return {};
    return {y_neighbors_.data() + y_offsets_[b],
            y_offsets_[b + 1] - y_offsets_[b]};
  }

  /// Degree of x-value a: |sigma_{x=a} R|.
  uint32_t DegX(Value a) const {
    return a >= num_x_ ? 0 : x_offsets_[a + 1] - x_offsets_[a];
  }

  /// Degree of y-value b: |sigma_{y=b} R|.
  uint32_t DegY(Value b) const {
    return b >= num_y_ ? 0 : y_offsets_[b + 1] - y_offsets_[b];
  }

  /// Number of x-value a's first tuple in (x, y) order: YsOf(a)[k] is the
  /// y of tuple XBegin(a) + k. XBegin(num_x()) is num_tuples().
  uint32_t XBegin(Value a) const { return x_offsets_[a]; }

  /// The x's from a on in XsOf(b), for tuple t = (a, b) in (x, y) order:
  /// read from t's twin position, stored at build time, with no search.
  std::span<const Value> XsFromTwin(uint32_t t) const {
    const uint32_t end = y_offsets_[x_neighbors_[t] + 1];
    return {y_neighbors_.data() + twin_[t], end - twin_[t]};
  }

  /// Bytes the index holds: offsets, neighbour lists and twin positions.
  size_t Bytes() const;

  /// True iff tuple (a, b) is present (binary search on the y-list of a).
  bool Contains(Value a, Value b) const;

  /// All tuples in (x, y) sorted order.
  std::vector<Tuple> ToTuples() const;

 private:
  size_t num_tuples_ = 0;
  Value num_x_ = 0;
  Value num_y_ = 0;
  std::vector<uint32_t> x_offsets_;  // size num_x + 1
  std::vector<Value> x_neighbors_;   // y values, sorted per x
  std::vector<uint32_t> y_offsets_;  // size num_y + 1
  std::vector<Value> y_neighbors_;   // x values, sorted per y
  std::vector<uint32_t> twin_;       // per tuple in (x, y) order: its
                                     // index in y_neighbors_
};

/// Removes tuples that cannot contribute to the 2-path join
/// pi_{x,z}(R(x,y) JOIN S(z,y)): keeps R-tuples whose y appears in S and
/// S-tuples whose y appears in R. The linear preprocessing step of §3.1.
void SemijoinReduce(BinaryRelation* r, BinaryRelation* s);

}  // namespace jpmm

#endif  // JPMM_STORAGE_INDEX_H_
