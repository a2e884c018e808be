// Epoch-stamped membership set — the deduplication idiom of Section 6.
//
// The paper replaces hash-map deduplication (which rehashes as it grows and
// needs |OUT| reserved memory) with a dense vector indexed by the candidate
// value, reused across x-values. We add the classic epoch trick so clearing
// between x-values is O(1) instead of O(domain).

#ifndef JPMM_COMMON_STAMP_SET_H_
#define JPMM_COMMON_STAMP_SET_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace jpmm {

/// Set over a dense universe [0, n) with O(1) insert/lookup and O(1) clear.
class StampSet {
 public:
  StampSet() = default;
  explicit StampSet(size_t n) : stamps_(n, 0) {}

  /// Resizes the universe (clears the set).
  void ResizeUniverse(size_t n) {
    stamps_.assign(n, 0);
    epoch_ = 1;
  }

  /// Empties the set in O(1).
  void NewEpoch() {
    if (++epoch_ == 0) {  // stamp wrap-around: one O(n) flush every 2^32 epochs
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Inserts v; returns true iff v was not present.
  bool Insert(uint32_t v) {
    JPMM_DCHECK(v < stamps_.size());
    if (stamps_[v] == epoch_) return false;
    stamps_[v] = epoch_;
    return true;
  }

  bool Contains(uint32_t v) const {
    JPMM_DCHECK(v < stamps_.size());
    return stamps_[v] == epoch_;
  }

  size_t universe() const { return stamps_.size(); }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 1;
};

/// Counter array over a dense universe with O(1) clear; used by the counting
/// variant of the light-part join (witness counts per z for a fixed x).
class StampCounter {
 public:
  StampCounter() = default;
  explicit StampCounter(size_t n) : stamps_(n, 0), counts_(n, 0) {}

  void ResizeUniverse(size_t n) {
    stamps_.assign(n, 0);
    counts_.assign(n, 0);
    epoch_ = 1;
  }

  void NewEpoch() {
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Adds delta to v's count; returns the count before the addition
  /// (0 means v is fresh this epoch).
  uint32_t Add(uint32_t v, uint32_t delta) {
    JPMM_DCHECK(v < stamps_.size());
    if (stamps_[v] != epoch_) {
      stamps_[v] = epoch_;
      counts_[v] = delta;
      return 0;
    }
    const uint32_t before = counts_[v];
    counts_[v] += delta;
    return before;
  }

  uint32_t Get(uint32_t v) const {
    JPMM_DCHECK(v < stamps_.size());
    return stamps_[v] == epoch_ ? counts_[v] : 0;
  }

  /// v's count, which drops to 0 (v stays live this epoch).
  uint32_t Take(uint32_t v) {
    JPMM_DCHECK(v < stamps_.size());
    if (stamps_[v] != epoch_) return 0;
    const uint32_t before = counts_[v];
    counts_[v] = 0;
    return before;
  }

  size_t universe() const { return stamps_.size(); }

  /// Raw storage for the SIMD stamp-expansion kernels
  /// (matrix/sparse_kernels.h), which gather/scatter stamps and counts
  /// directly. Invariant they must preserve: stamps_[v] == epoch() iff v is
  /// live this epoch, and then counts_[v] is its count.
  uint32_t* raw_stamps() { return stamps_.data(); }
  uint32_t* raw_counts() { return counts_.data(); }
  uint32_t epoch() const { return epoch_; }

 private:
  std::vector<uint32_t> stamps_;
  std::vector<uint32_t> counts_;
  uint32_t epoch_ = 1;
};

}  // namespace jpmm

#endif  // JPMM_COMMON_STAMP_SET_H_
