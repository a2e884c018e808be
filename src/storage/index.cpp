#include "storage/index.h"

#include <algorithm>

#include "common/check.h"

namespace jpmm {

IndexedRelation::IndexedRelation(const BinaryRelation& rel) {
  JPMM_CHECK_MSG(rel.finalized(), "IndexedRelation requires Finalize()");
  num_tuples_ = rel.size();
  num_x_ = rel.num_x();
  num_y_ = rel.num_y();

  x_offsets_.assign(static_cast<size_t>(num_x_) + 1, 0);
  y_offsets_.assign(static_cast<size_t>(num_y_) + 1, 0);
  for (const Tuple& t : rel.tuples()) {
    ++x_offsets_[t.x + 1];
    ++y_offsets_[t.y + 1];
  }
  for (size_t i = 1; i < x_offsets_.size(); ++i) x_offsets_[i] += x_offsets_[i - 1];
  for (size_t i = 1; i < y_offsets_.size(); ++i) y_offsets_[i] += y_offsets_[i - 1];

  x_neighbors_.resize(num_tuples_);
  y_neighbors_.resize(num_tuples_);
  twin_.resize(num_tuples_);
  std::vector<uint32_t> y_fill(y_offsets_.begin(), y_offsets_.end() - 1);
  // Tuples are sorted by (x, y): the x-direction is their order, and the
  // y-direction receives x values in increasing order per y bucket.
  for (size_t i = 0; i < num_tuples_; ++i) {
    const Tuple& t = rel.tuples()[i];
    x_neighbors_[i] = t.y;
    twin_[i] = y_fill[t.y];
    y_neighbors_[y_fill[t.y]++] = t.x;
  }
}

size_t IndexedRelation::Bytes() const {
  return sizeof(uint32_t) * (x_offsets_.size() + y_offsets_.size() +
                             twin_.size()) +
         sizeof(Value) * (x_neighbors_.size() + y_neighbors_.size());
}

bool IndexedRelation::Contains(Value a, Value b) const {
  const auto ys = YsOf(a);
  return std::binary_search(ys.begin(), ys.end(), b);
}

std::vector<Tuple> IndexedRelation::ToTuples() const {
  std::vector<Tuple> out;
  out.reserve(num_tuples_);
  for (Value a = 0; a < num_x_; ++a) {
    for (Value b : YsOf(a)) out.push_back(Tuple{a, b});
  }
  return out;
}

void SemijoinReduce(BinaryRelation* r, BinaryRelation* s) {
  JPMM_CHECK(r->finalized() && s->finalized());
  const Value ny = std::max(r->num_y(), s->num_y());
  std::vector<uint8_t> in_r(ny, 0), in_s(ny, 0);
  for (const Tuple& t : r->tuples()) in_r[t.y] = 1;
  for (const Tuple& t : s->tuples()) in_s[t.y] = 1;

  auto filter = [](const BinaryRelation& rel, const std::vector<uint8_t>& keep) {
    std::vector<Tuple> kept;
    kept.reserve(rel.size());
    for (const Tuple& t : rel.tuples()) {
      if (keep[t.y]) kept.push_back(t);
    }
    BinaryRelation out(std::move(kept));
    out.Finalize();
    return out;
  };
  BinaryRelation new_r = filter(*r, in_s);
  BinaryRelation new_s = filter(*s, in_r);
  *r = std::move(new_r);
  *s = std::move(new_s);
}

}  // namespace jpmm
