#include "core/two_path_internal.h"

#include <algorithm>
#include <type_traits>

#include "core/heavy_product.h"

namespace jpmm::internal {

template <typename T, typename Write>
void PairEmitter::WriteCells(std::vector<T>* buf, size_t* n, size_t cells,
                             size_t per, Write write) {
  for (size_t k = 0; k < cells;) {
    size_t room = kFlushAt - *n;
    if (room < per) {
      Flush();
      room = kFlushAt;
    }
    const size_t end = std::min(cells, k + room / per);
    T* out = buf->data() + *n;
    size_t m = 0;
    for (; k < end; ++k) m += write(k, out + m);
    *n += m;
    if (*n == kFlushAt) Flush();
  }
}

template <typename T>
void PairEmitter::WriteRow(std::vector<T>* buf, size_t* n, Value a,
                           const HeavyRow& row, size_t cells,
                           const Value* z_of, uint32_t min_count) {
  constexpr bool kCounted = std::is_same_v<T, CountedPair>;
  const uint32_t* cols = cell_cols_.data();
  const uint32_t* counts = cell_counts_.data();
  auto result = [](Value x, Value z, uint32_t cnt) {
    if constexpr (kCounted) {
      return T{x, z, cnt};
    } else {
      return T{x, z};
    }
  };
  auto count = [counts](size_t k) -> uint32_t {
    if constexpr (kCounted) {
      return counts[k];
    } else {
      return 0;
    }
  };
  auto keep = [min_count](uint32_t cnt) -> size_t {
    if constexpr (kCounted) {
      return cnt >= min_count;
    } else {
      return 1;
    }
  };
  if (!row.symmetric) {
    WriteCells(buf, n, cells, 1, [&](size_t k, T* out) {
      const uint32_t cnt = count(k);
      out[0] = result(a, z_of[cols[k]], cnt);
      return keep(cnt);
    });
    return;
  }
  // Both directions are stored for every cell; a cell at position q keeps
  // none, one (the diagonal) or both against the head's position p.
  const uint32_t p = row.position;
  auto mirrored = [&](auto position_of) {
    WriteCells(buf, n, cells, 2, [&](size_t k, T* out) {
      const uint32_t col = cols[k];
      const Value c = z_of[col];
      const uint32_t cnt = count(k);
      out[0] = result(a, c, cnt);
      out[1] = result(c, a, cnt);
      const uint32_t q = position_of(col);
      return keep(cnt) * (size_t{q >= p} + size_t{q > p});
    });
  };
  if (row.positions == nullptr) {
    mirrored([](uint32_t col) { return col; });
  } else {
    const uint32_t* positions = row.positions;
    mirrored([positions](uint32_t col) { return positions[col]; });
  }
}

void PairEmitter::EmitHeavyHead(Value a, const HeavyRow& row,
                                const TwoPathPartition& part,
                                bool count_witnesses, uint32_t min_count) {
  // A symmetric row of the uniform plan (no position map: a column is its
  // own position) starts at the head's own column, so every cell it keeps
  // is the diagonal or after it.
  const uint32_t p = row.position;
  const size_t from = row.symmetric && row.positions == nullptr &&
                              p >= row.col_base
                          ? p - row.col_base
                          : 0;
  const size_t bound = row.CellBound();
  if (cell_cols_.size() < bound) {
    cell_cols_.resize(bound);
    cell_counts_.resize(bound);
  }
  uint32_t* cols = cell_cols_.data();
  uint32_t* counts = cell_counts_.data();
  const size_t cells =
      row.Compact(from, cols, count_witnesses ? counts : nullptr);
  const Value* z_of = part.heavy_z().data();

  // Light fold. A plain float row mapped by col_base answers "did the row
  // emit z" with one read, so EmitTouched drops those z's below. Otherwise
  // each emitted cell takes its z's light count: the pair carries the sum,
  // and EmitTouched skips the emptied z.
  const bool read_fold =
      !count_witnesses && row.values != nullptr && row.col_ids == nullptr;
  if (!touched_.empty() && !read_fold) {
    for (size_t k = 0; k < cells; ++k) {
      const uint32_t light = counter_.Take(z_of[cols[k]]);
      if (count_witnesses) counts[k] += light;
    }
  }
  if (count_witnesses) {
    WriteRow(&counted_, &n_counted_, a, row, cells, z_of, min_count);
  } else {
    WriteRow(&pairs_, &n_pairs_, a, row, cells, z_of, min_count);
  }
  if (touched_.empty()) return;

  EmitTouched(a, count_witnesses, min_count, [&](Value c) {
    const Value col = part.HeavyZId(c);
    if (col == kInvalidValue) return 1;
    if (read_fold && col >= row.col_base && col - row.col_base < row.width &&
        row.values[col - row.col_base] > 0.5f) {
      return 0;
    }
    if (!row.symmetric) return 1;
    const uint32_t q = row.PositionOf(col);
    return q < p ? 0 : q == p ? 1 : 2;
  });
}

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
