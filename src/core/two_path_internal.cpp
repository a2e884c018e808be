#include "core/two_path_internal.h"

namespace jpmm::internal {

TwoPathContext::TwoPathContext(const IndexedRelation& r_in,
                               const IndexedRelation& s_in, Thresholds t)
    : r(r_in), s(s_in), part(r_in, s_in, t) {
  const Value ny = std::max(r.num_y(), s.num_y());
  lightz_offsets.assign(static_cast<size_t>(ny) + 1, 0);
  for (Value b = 0; b < ny; ++b) {
    if (s.DegY(b) > t.delta1 && r.DegY(b) > 0) {
      uint64_t n_light = 0;
      for (Value c : s.XsOf(b)) {
        if (part.ZLight(c)) ++n_light;
      }
      lightz_offsets[b + 1] = n_light;
    }
  }
  for (Value b = 0; b < ny; ++b) lightz_offsets[b + 1] += lightz_offsets[b];
  lightz_values.resize(lightz_offsets[ny]);
  for (Value b = 0; b < ny; ++b) {
    if (s.DegY(b) > t.delta1 && r.DegY(b) > 0) {
      uint64_t pos = lightz_offsets[b];
      for (Value c : s.XsOf(b)) {
        if (part.ZLight(c)) lightz_values[pos++] = c;
      }
    }
  }
}

void TwoPathContext::AccumulateLight(Value a, PairEmitter* em) const {
  auto add = [em](Value c) { em->Add(c, 1); };
  if (part.XLight(a)) {
    // Class L1 via light a: every witness of a is covered here.
    for (Value b : r.YsOf(a)) {
      for (Value c : s.XsOf(b)) add(c);
    }
    return;
  }
  for (Value b : r.YsOf(a)) {
    if (part.YLight(b)) {
      // Class L1 via light b.
      for (Value c : s.XsOf(b)) add(c);
    } else {
      // Class L2: heavy b, light c.
      for (Value c : LightZOf(b)) add(c);
    }
  }
}

uint64_t TwoPathContext::LightWitnessCount(Value a) const {
  uint64_t n = 0;
  if (part.XLight(a)) {
    for (Value b : r.YsOf(a)) n += s.DegY(b);
    return n;
  }
  for (Value b : r.YsOf(a)) {
    if (part.YLight(b)) {
      n += s.DegY(b);
    } else {
      n += lightz_offsets[b + 1] - lightz_offsets[b];
    }
  }
  return n;
}

}  // namespace jpmm::internal
