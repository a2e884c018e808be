#include "core/star_join.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/cancel_token.h"
#include "core/heavy_product.h"
#include "core/result_sink.h"
#include "core/trace.h"
#include "join/intersection.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {

namespace {

// The data-only half of step (3), built by the threshold fit: the heavy-combo
// rows in lexicographic combo order and the CSR operands V and W^T. Its
// shape's rows are V's, inner the shared y, cols W's.
struct StarOperands : HeavyFit {
  size_t g1 = 0, g2 = 0;  // group sizes: ceil(k/2), floor(k/2)
  std::vector<Value> rows1_flat, rows2_flat;  // stride g1 / g2
  CsrMatrix v;   // V: first-group combos x shared y
  CsrMatrix wt;  // W^T: shared y x second-group combos
  /// Per y value: the relations in which deg(y) > thresholds.delta1.
  std::vector<uint8_t> heavy_cnt;
};

// Heavy combos are packed 32 bits per value into one 128-bit key (group
// sizes beyond 4 — star arity beyond 8 — would need the general path; the
// library checks that bound at entry).
using PackedCombo = unsigned __int128;

struct PackedComboHash {
  size_t operator()(PackedCombo v) const {
    return static_cast<size_t>(
        Mix64(static_cast<uint64_t>(v) ^ Mix64(static_cast<uint64_t>(v >> 64))));
  }
};

using RowMap = std::unordered_map<PackedCombo, Value, PackedComboHash>;

PackedCombo PackComboKey(const std::vector<Value>& combo) {
  PackedCombo key = 0;
  for (Value v : combo) key = (key << 32) | v;
  return key;
}

// Per y value (up to the largest y domain): the relations in which
// deg(y) > delta1.
std::vector<uint8_t> HeavyCounts(
    const std::vector<const IndexedRelation*>& rels, uint64_t delta1) {
  Value ny = 0;
  for (const auto* rel : rels) ny = std::max(ny, rel->num_y());
  std::vector<uint8_t> heavy_cnt(ny, 0);
  for (const auto* rel : rels) {
    for (Value b = 0; b < rel->num_y(); ++b) {
      if (rel->DegY(b) > delta1) ++heavy_cnt[b];
    }
  }
  return heavy_cnt;
}

// The light/heavy classification under one threshold pair, over the heavy
// counts HeavyCounts(rels, t.delta1) built elsewhere.
struct StarContext {
  const std::vector<const IndexedRelation*>& rels;
  Thresholds t;
  const std::vector<uint8_t>& heavy_cnt;

  Value ny() const { return static_cast<Value>(heavy_cnt.size()); }

  bool XiLight(size_t i, Value a) const {
    return rels[i]->DegX(a) <= t.delta2;
  }

  // y light in every relation except (possibly) j.
  bool LightAllExcept(size_t j, Value b) const {
    if (heavy_cnt[b] == 0) return true;
    return heavy_cnt[b] == 1 && rels[j]->DegY(b) > t.delta1;
  }
};

// Steps (1) and (2): the combinatorial light part shared by MM and Non-MM.
//
// Two refinements over a literal reading of §3.2, both output-preserving:
//   - Step 2-j enumerates the *full* per-y product wherever y is light in
//     all relations but (possibly) j, so those y values need no step-1
//     coverage at all; step 1-j therefore only expands y values heavy in
//     >= 2 relations. On sparse inputs (no such y) step 1 disappears and
//     the light part degenerates to a single WCOJ pass.
//   - A y light in *every* relation satisfies step 2's condition for every
//     j; it is claimed by j = 0 alone to avoid k identical enumerations.
//
// Each step is one unit of `gate`: claimed before it runs, so a satisfied
// sink or a fired token skips this step and the rest, counted skipped.
// *steps_total receives the number of planned steps. Returns the union of
// the steps' tuples, unsorted and with duplicates.
TupleBuffer LightSteps(const StarContext& ctx, int threads, ChunkGate* gate,
                       uint64_t* steps_total) {
  const size_t k = ctx.rels.size();
  TupleBuffer out(static_cast<uint32_t>(k));

  bool any_shared_heavy = false;
  for (Value b = 0; b < ctx.ny() && !any_shared_heavy; ++b) {
    any_shared_heavy = ctx.heavy_cnt[b] >= 2;
  }
  const uint64_t total = k * (any_shared_heavy ? 2 : 1);
  *steps_total = total;
  uint64_t step = 0;
  auto claim = [&] { return gate->Claim(total - step++); };

  for (size_t j = 0; j < k; ++j) {
    if (any_shared_heavy) {
      if (!claim()) break;
      // Step 1-j: substitute R-j (light xj tuples only), restricted to y
      // values not already fully covered by step 2.
      out.Append(StarJoinProjectWcoj(
          ctx.rels,
          [&ctx, j](size_t rel, Value a, Value) {
            return rel != j || ctx.XiLight(j, a);
          },
          [&ctx](Value b) { return ctx.heavy_cnt[b] >= 2; }, threads));
    }
    // Step 2-j: substitute R<>j — only y values light in all other
    // relations.
    if (!claim()) break;
    out.Append(StarJoinProjectWcoj(
        ctx.rels, nullptr,
        [&ctx, j](Value b) {
          if (ctx.heavy_cnt[b] == 0) return j == 0;
          return ctx.LightAllExcept(j, b);
        },
        threads));
  }
  return out;
}

// Approximate bytes the sparse registration of one group holds: the
// incidence list, the flat combo rows, and the hash map (amortized ~48 B
// per combo). This — not the dense rows x cols cell count — is what the
// memory-cap retry loop bounds: the dense representations are gated
// per-block later (falling back to the CSR kernels), so a sparse-but-wide
// heavy part must not force thresholds up.
uint64_t RegistrationBytes(size_t combos, size_t group_size, size_t entries) {
  return static_cast<uint64_t>(entries) * sizeof(std::pair<Value, Value>) +
         static_cast<uint64_t>(combos) * group_size * sizeof(Value) +
         static_cast<uint64_t>(combos) * 48;
}

// Heavy-combo registration for one variable group over the shared columns.
// Fills rows_flat (one combo per row id, in first-seen order) and entries
// (one (row, col) incidence each, in ascending column order). Aborts early
// (returns false) if the registration working set exceeds max_bytes.
bool RegisterGroup(const StarContext& ctx, const std::vector<size_t>& group,
                   const std::vector<Value>& cols, uint64_t max_bytes,
                   std::vector<Value>* rows_flat,
                   std::vector<std::pair<Value, Value>>* entries) {
  const size_t g = group.size();
  RowMap row_map;
  std::vector<std::vector<Value>> lists(g);
  std::vector<Value> combo(g);
  for (size_t col = 0; col < cols.size(); ++col) {
    const Value b = cols[col];
    bool empty = false;
    for (size_t i = 0; i < g; ++i) {
      lists[i].clear();
      for (Value a : ctx.rels[group[i]]->XsOf(b)) {
        if (!ctx.XiLight(group[i], a)) lists[i].push_back(a);
      }
      if (lists[i].empty()) {
        empty = true;
        break;
      }
    }
    if (empty) continue;

    std::vector<size_t> pos(g, 0);
    for (size_t i = 0; i < g; ++i) combo[i] = lists[i][0];
    for (;;) {
      auto [it, inserted] = row_map.try_emplace(
          PackComboKey(combo), static_cast<Value>(row_map.size()));
      if (inserted) {
        rows_flat->insert(rows_flat->end(), combo.begin(), combo.end());
      }
      entries->emplace_back(it->second, static_cast<Value>(col));
      // Checked on every incidence, not just combo insertions: the entry
      // list keeps growing even when no new combo appears.
      if (RegistrationBytes(row_map.size(), g, entries->size()) > max_bytes) {
        return false;
      }

      size_t dim = g;
      bool done = false;
      while (dim > 0) {
        --dim;
        if (++pos[dim] < lists[dim].size()) {
          combo[dim] = lists[dim][pos[dim]];
          break;
        }
        pos[dim] = 0;
        combo[dim] = lists[dim][0];
        if (dim == 0) {
          done = true;
          break;
        }
      }
      if (done) break;
    }
  }
  return true;
}

// Renumbers one group's rows in lexicographic combo order: rows_flat is
// permuted and the row ids in entries remapped. O(R log R + E). Afterwards
// walking V rows, and within each the W rows, in id order visits the heavy
// tuples in sorted order.
void SortGroupRows(size_t g, std::vector<Value>* rows_flat,
                   std::vector<std::pair<Value, Value>>* entries) {
  const size_t n = rows_flat->size() / g;
  const Value* flat = rows_flat->data();
  std::vector<Value> order(n);
  std::iota(order.begin(), order.end(), Value{0});
  std::sort(order.begin(), order.end(), [flat, g](Value a, Value b) {
    return std::lexicographical_compare(flat + a * g, flat + a * g + g,
                                        flat + b * g, flat + b * g + g);
  });
  std::vector<Value> sorted(rows_flat->size());
  std::vector<Value> new_id(n);
  for (size_t r = 0; r < n; ++r) {
    std::copy(flat + order[r] * g, flat + order[r] * g + g,
              sorted.begin() + static_cast<std::ptrdiff_t>(r * g));
    new_id[order[r]] = static_cast<Value>(r);
  }
  *rows_flat = std::move(sorted);
  for (auto& e : *entries) e.first = new_id[e.first];
}

// Shared columns of the heavy step: y heavy in >= 2 relations and adjacent
// to at least one heavy x value in every relation.
std::vector<Value> HeavyColumns(const StarContext& ctx) {
  std::vector<Value> cols;
  const size_t k = ctx.rels.size();
  for (Value b = 0; b < ctx.ny(); ++b) {
    if (ctx.heavy_cnt[b] < 2) continue;
    bool ok = true;
    for (size_t i = 0; i < k && ok; ++i) {
      bool has_heavy = false;
      for (Value a : ctx.rels[i]->XsOf(b)) {
        if (!ctx.XiLight(i, a)) {
          has_heavy = true;
          break;
        }
      }
      ok = has_heavy;
    }
    if (ok) cols.push_back(b);
  }
  return cols;
}

struct HeavyGroups {
  size_t g1 = 0, g2 = 0;  // group sizes: ceil(k/2), floor(k/2)
  std::vector<Value> cols;
  std::vector<Value> rows1_flat, rows2_flat;  // stride g1 / g2, sorted
  std::vector<std::pair<Value, Value>> entries1, entries2;  // (row, col)
  bool fits = false;

  uint64_t rows1() const { return rows1_flat.size() / g1; }
  uint64_t rows2() const { return rows2_flat.size() / g2; }
};

HeavyGroups BuildHeavyGroups(const StarContext& ctx, uint64_t max_bytes) {
  const size_t k = ctx.rels.size();
  HeavyGroups hg;
  hg.g1 = (k + 1) / 2;
  hg.g2 = k - hg.g1;
  std::vector<size_t> group1, group2;
  for (size_t i = 0; i < hg.g1; ++i) group1.push_back(i);
  for (size_t i = hg.g1; i < k; ++i) group2.push_back(i);

  hg.cols = HeavyColumns(ctx);
  if (hg.cols.empty()) {
    hg.fits = true;
    return hg;
  }
  hg.fits = RegisterGroup(ctx, group1, hg.cols, max_bytes, &hg.rows1_flat,
                          &hg.entries1) &&
            RegisterGroup(ctx, group2, hg.cols, max_bytes, &hg.rows2_flat,
                          &hg.entries2);
  if (hg.fits) {
    SortGroupRows(hg.g1, &hg.rows1_flat, &hg.entries1);
    SortGroupRows(hg.g2, &hg.rows2_flat, &hg.entries2);
  }
  return hg;
}

// Fits the thresholds and builds the operands: the heavy combos are
// registered under key.thresholds, doubling both thresholds until the
// registration fits key.max_matrix_bytes and the representations the heavy
// kernels are gated to (GateHeavyProduct) fit it too. Deterministic for
// fixed relations and key.
std::shared_ptr<const StarOperands> PrepareStarOperands(
    const std::vector<const IndexedRelation*>& rels,
    const HeavyOperandKey& key) {
  JPMM_CHECK(rels.size() >= 2);
  JPMM_CHECK_MSG(rels.size() <= 8, "combo packing supports k <= 8");
  auto op = std::make_shared<StarOperands>();
  Thresholds t = key.thresholds;
  HeavyGroups hg;
  // Retry with doubled thresholds until the heavy part fits: the sparse
  // registration must fit, and so must the representations the heavy
  // kernels are gated to (core/heavy_product.h — under kAuto the dense
  // ones are gated off rather than doubling thresholds).
  for (;;) {
    op->heavy_cnt = HeavyCounts(rels, t.delta1);
    hg = BuildHeavyGroups(StarContext{rels, t, op->heavy_cnt},
                          key.max_matrix_bytes);
    op->shape = HeavyShape{hg.rows1(), hg.cols.size(), hg.rows2(),
                           hg.entries1.size(), hg.entries2.size()};
    if (hg.fits &&
        GateHeavyProduct(op->shape, key.heavy_path, key.row_block,
                         key.threads, key.max_matrix_bytes)
                .bytes <= key.max_matrix_bytes) {
      break;
    }
    t.delta1 *= 2;
    t.delta2 *= 2;
  }
  op->thresholds = t;
  op->g1 = hg.g1;
  op->g2 = hg.g2;
  op->rows1_flat = std::move(hg.rows1_flat);
  op->rows2_flat = std::move(hg.rows2_flat);
  // The CSR operands are just the registered incidences (row offsets +
  // column ids); the incidence lists die with hg.
  if (op->shape.rows > 0 && op->shape.cols > 0) {
    op->v = CsrMatrix::FromEntries(op->shape.rows, op->shape.inner,
                                   hg.entries1);
    op->wt = CsrMatrix::FromEntries(op->shape.inner, op->shape.cols,
                                    hg.entries2, /*swapped=*/true);
  }
  op->bytes = CsrBytes(op->v.rows(), op->v.nnz()) +
              CsrBytes(op->wt.rows(), op->wt.nnz()) +
              sizeof(Value) * (op->rows1_flat.size() + op->rows2_flat.size()) +
              op->heavy_cnt.size();
  return op;
}

// The heavy output of a run: for every V row, the ascending
// W-row ids it pairs with, kept as one segment of the id buffer of the
// worker that produced the row. A row no executed chunk reached keeps an
// empty segment. Rows are distinct combos, so the pairs need no dedup.
struct HeavyPairs {
  struct Segment {
    size_t offset = 0;
    uint32_t length = 0;
    uint32_t worker = 0;
  };
  std::vector<std::vector<uint32_t>> ids;  // per worker
  std::vector<Segment> rows;               // per V row

  HeavyPairs(int threads, uint64_t heavy_rows)
      : ids(static_cast<size_t>(threads)), rows(heavy_rows) {}

  // Closes row i: the ids worker w appended since `begin` become its
  // segment, sorted when they do not already ascend (grid rows arrive in
  // remapped column order, gathered ones unordered).
  void Close(int w, uint32_t i, size_t begin) {
    std::vector<uint32_t>& buf = ids[static_cast<size_t>(w)];
    const auto first = buf.begin() + static_cast<std::ptrdiff_t>(begin);
    if (!std::is_sorted(first, buf.end())) std::sort(first, buf.end());
    rows[i] = Segment{begin, static_cast<uint32_t>(buf.size() - begin),
                      static_cast<uint32_t>(w)};
  }

  std::span<const uint32_t> Row(size_t i) const {
    const Segment& s = rows[i];
    return {ids[s.worker].data() + s.offset, s.length};
  }
};

// The delivery of every star run: the sorted duplicate-free
// union of the sorted duplicate-free `light` and the heavy pairs (none for
// the WCOJ-full star), streamed into shard 0 in one linear pass with no
// materialized copy. Heavy tuples come in order, combo1(i) ++ combo2(j),
// with the light tuples merged in and a tuple with both a light and a heavy
// witness delivered once. Only the token is polled, before every V row
// with pairs and every kPollStride light tuples: a satisfied sink (a full
// page) does not cut the stream, so a recording tap beside it (the result
// cache's) still sees the whole answer, and the run's skip counters stay
// the one sign of a partial stream. Returns true iff a fired token stopped
// the stream early. The group sizes are template arguments so the
// per-tuple copies compile to plain moves.
constexpr size_t kPollStride = 4096;

template <size_t G1, size_t G2>
bool DeliverSorted(const TupleBuffer& light, const StarOperands& op,
                   const HeavyPairs& heavy, ResultSink& sink,
                   const CancelToken* cancel) {
  constexpr size_t k = G1 + G2;
  auto less = [](const Value* a, const Value* b) {
    return std::lexicographical_compare(a, a + k, b, b + k);
  };
  ResultSink::Shard& shard = sink.shard(0);
  ChunkGate gate(/*sink=*/nullptr, cancel);
  const Value* lp = light.flat().data();
  const Value* const lend = lp + light.flat().size();
  size_t light_sent = 0;
  // Delivers the light tuples below `bound` (every one when null); false
  // when a poll stops the stream.
  auto light_below = [&](const Value* bound) {
    for (; lp != lend && (bound == nullptr || less(lp, bound)); lp += k) {
      if (light_sent++ % kPollStride == 0 && gate.Stopped()) return false;
      shard.OnTuple(std::span<const Value>(lp, k));
    }
    return true;
  };
  std::array<Value, k> h;
  for (size_t i = 0; i < heavy.rows.size(); ++i) {
    const std::span<const uint32_t> row = heavy.Row(i);
    if (row.empty()) continue;
    if (gate.Stopped()) return gate.interrupted();
    std::copy_n(op.rows1_flat.data() + i * G1, G1, h.begin());
    for (uint32_t j : row) {
      std::copy_n(op.rows2_flat.data() + size_t{j} * G2, G2, h.begin() + G1);
      if (!light_below(h.data())) return gate.interrupted();
      if (lp != lend && !less(h.data(), lp)) lp += k;  // light copy of h
      shard.OnTuple(h);
    }
  }
  light_below(nullptr);
  return gate.interrupted();
}

bool DeliverSorted(const TupleBuffer& light, const StarOperands& op,
                   const HeavyPairs& heavy, ResultSink& sink,
                   const CancelToken* cancel) {
  switch (light.arity()) {  // 2 <= k <= 8, checked at every entry
    case 2:
      return DeliverSorted<1, 1>(light, op, heavy, sink, cancel);
    case 3:
      return DeliverSorted<2, 1>(light, op, heavy, sink, cancel);
    case 4:
      return DeliverSorted<2, 2>(light, op, heavy, sink, cancel);
    case 5:
      return DeliverSorted<3, 2>(light, op, heavy, sink, cancel);
    case 6:
      return DeliverSorted<3, 3>(light, op, heavy, sink, cancel);
    case 7:
      return DeliverSorted<4, 3>(light, op, heavy, sink, cancel);
    default:
      return DeliverSorted<4, 4>(light, op, heavy, sink, cancel);
  }
}

// The fields every star strategy reports from its operands.
RunRecord ResultFor(const StarOperands& op) {
  RunRecord result;
  result.adjusted_thresholds = op.thresholds;
  result.heavy_rows = op.shape.rows;
  result.heavy_inner = op.shape.inner;
  result.heavy_cols = op.shape.cols;
  return result;
}

// One star evaluation's delivery state, shared by MmStarJoin and
// NonMmStarJoin: the opened sink, the light steps' gate (also polled before
// the heavy part), the light part and the finish.
struct StarRun {
  const StarJoinOptions& options;
  RunRecord* result;
  ResultSink& sink;
  ChunkGate gate;
  uint64_t light_steps = 0;
  bool heavy_interrupted = false;  // a fired token skipped heavy chunks

  StarRun(int threads, const StarJoinOptions& o, ResultSink& s, RunRecord* r)
      : options(o), result(r), sink(s), gate(&s, o.cancel) {
    sink.Open(threads);
  }

  // Steps (1) and (2) under a "light-pass" span: their tuples, unsorted.
  TupleBuffer Light(const std::vector<const IndexedRelation*>& rels,
                    const StarOperands& op, int threads) {
    WallTimer timer;
    TraceRecorder::Scope scope(options.trace, "light-pass",
                               options.trace_parent);
    TupleBuffer light =
        LightSteps(StarContext{rels, op.thresholds, op.heavy_cnt}, threads,
                   &gate, &light_steps);
    scope.Close();
    result->light_seconds = timer.Seconds();
    return light;
  }

  // The one finish under "sink-finish": the sink receives the light union
  // (the only sort left) merged with the in-order heavy pairs.
  void Finish(TupleBuffer light, const StarOperands& op,
              const HeavyPairs& heavy) {
    static_cast<LightRun&>(*result) = gate.Record(light_steps);
    result->interrupted |= heavy_interrupted;
    TraceRecorder::Scope scope(options.trace, "sink-finish",
                               options.trace_parent);
    light.SortUnique();
    result->interrupted |=
        DeliverSorted(light, op, heavy, sink, options.cancel);
    sink.Finish();
  }
};

}  // namespace

TupleBuffer WcojStarJoin(const std::vector<const IndexedRelation*>& rels,
                         int threads) {
  return StarJoinProjectWcoj(rels, nullptr, nullptr, threads);
}

RunRecord WcojFullStarJoin(const std::vector<const IndexedRelation*>& rels,
                           const StarJoinOptions& options, ResultSink& sink) {
  JPMM_CHECK(rels.size() >= 2 && rels.size() <= 8);
  TraceRecorder::Scope scope(options.trace, "wcoj-full", options.trace_parent);
  const TupleBuffer tuples = WcojStarJoin(rels, options.threads);
  scope.Close();
  // The light-only case of the star finish: no heavy pairs.
  RunRecord result;
  sink.Open(1);
  result.interrupted =
      DeliverSorted(tuples, StarOperands{},
                    HeavyPairs(/*threads=*/1, /*heavy_rows=*/0), sink,
                    options.cancel);
  sink.Finish();
  return result;
}

Thresholds ChooseStarThresholds(
    const std::vector<const IndexedRelation*>& rels) {
  JPMM_CHECK(rels.size() >= 2);
  const size_t k = rels.size();
  const size_t g1 = (k + 1) / 2;

  Value ny = 0;
  uint32_t max_xdeg = 1;
  for (const auto* rel : rels) {
    ny = std::max(ny, rel->num_y());
    for (Value a = 0; a < rel->num_x(); ++a) {
      max_xdeg = std::max(max_xdeg, rel->DegX(a));
    }
  }

  double best_cost = -1.0;
  Thresholds best{max_xdeg, max_xdeg};
  for (uint64_t delta = 1; delta <= 2ull * max_xdeg; delta *= 2) {
    // Global heavy-x counts per relation (rows1/rows2 upper bound).
    double hx_prod1 = 1.0, hx_prod2 = 1.0;
    for (size_t i = 0; i < k; ++i) {
      uint64_t heavy = 0;
      for (Value a = 0; a < rels[i]->num_x(); ++a) {
        if (rels[i]->DegX(a) > delta) ++heavy;
      }
      if (i < g1) {
        hx_prod1 *= std::max<double>(1.0, static_cast<double>(heavy));
      } else {
        hx_prod2 *= std::max<double>(1.0, static_cast<double>(heavy));
      }
    }

    double light_cost = 0.0;   // exact step-1/2 enumeration volume
    double e1 = 0.0, e2 = 0.0; // registration volumes (matrix build)
    double cols = 0.0;
    std::vector<double> d(k), hd(k);
    for (Value b = 0; b < ny; ++b) {
      int heavy_cnt = 0;
      double prod_all = 1.0;
      bool any_zero = false;
      for (size_t i = 0; i < k; ++i) {
        d[i] = rels[i]->DegY(b);
        if (d[i] == 0.0) {
          any_zero = true;
          break;
        }
        prod_all *= d[i];
        if (d[i] > static_cast<double>(delta)) ++heavy_cnt;
        // Exact heavy-x count in this adjacency list.
        uint64_t heavy = 0;
        for (Value a : rels[i]->XsOf(b)) {
          if (rels[i]->DegX(a) > delta) ++heavy;
        }
        hd[i] = static_cast<double>(heavy);
      }
      if (any_zero) continue;
      if (heavy_cnt <= 1) {
        light_cost += prod_all;  // step 2 enumerates the full product once
      } else {
        // Step 1-j at this b: one light list times the full others.
        for (size_t j = 0; j < k; ++j) {
          light_cost += (d[j] - hd[j]) * prod_all / d[j];
        }
        double heavy_prod1 = 1.0, heavy_prod2 = 1.0;
        for (size_t i = 0; i < k; ++i) {
          if (i < g1) {
            heavy_prod1 *= hd[i];
          } else {
            heavy_prod2 *= hd[i];
          }
        }
        e1 += heavy_prod1;
        e2 += heavy_prod2;
        if (heavy_prod1 > 0 && heavy_prod2 > 0) cols += 1.0;
      }
    }

    const double rows1 = std::min(e1, hx_prod1);
    const double rows2 = std::min(e2, hx_prod2);
    // Relative operation weights: enumeration/registration ~1 per visited
    // tuple, FMA-vectorized matrix flops ~0.01, product scan ~0.5.
    const double cost = light_cost + e1 + e2 +
                        0.01 * rows1 * std::max(1.0, cols) * rows2 +
                        0.5 * rows1 * rows2;
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best = Thresholds{delta, delta};
    }
  }
  return best;
}

RunRecord MmStarJoin(const std::vector<const IndexedRelation*>& rels,
                     const StarJoinOptions& options, ResultSink& sink) {
  const int threads = std::max(1, options.threads);
  const size_t row_block = std::max<size_t>(1, options.row_block);
  const HeavyOperandKey key =
      OperandKey(options, options.thresholds, row_block);
  const RunOperands operands(options.operand_cache, key, options, [&] {
    return PrepareStarOperands(rels, key);
  });
  const StarOperands& op = operands.fit<StarOperands>();
  RunRecord result = ResultFor(op);

  StarRun run(threads, options, sink, &result);
  TupleBuffer light = run.Light(rels, op, threads);
  HeavyPairs pairs(threads, result.heavy_rows);

  // V * W^T runs on the heavy-product executor, and each nonzero
  // (V row i, W row j) is one output tuple. A row keeps only its W-row
  // ids; the finish turns them into tuples.
  HeavyProduct hp;
  static_cast<ExecContext&>(hp) = options;
  hp.row_block = row_block;
  hp.sink = &sink;
  hp.on_row = [&](int w, uint32_t i, const HeavyRow& row) {
    std::vector<uint32_t>& ids = pairs.ids[static_cast<size_t>(w)];
    const size_t begin = ids.size();
    ids.resize(begin + row.CellBound());
    ids.resize(begin + row.Compact(0, ids.data() + begin, nullptr));
    pairs.Close(w, i, begin);
  };
  operands.RunMmHeavyStep(
      run.gate, std::move(hp), nullptr,
      [&](const HeavyProduct& p) {
        return PrepareHeavyProduct(op.v, op.wt, p);
      },
      &result, &run.heavy_interrupted);

  run.Finish(std::move(light), op, pairs);

  RecordRunMetrics(result, LightUnit::kStarSteps);
  return result;
}

RunRecord NonMmStarJoin(const std::vector<const IndexedRelation*>& rels,
                        const StarJoinOptions& options, ResultSink& sink) {
  const int threads = std::max(1, options.threads);
  const HeavyOperandKey key = UncappedOperandKey(options.thresholds);
  const RunOperands operands(options.operand_cache, key, options, [&] {
    return PrepareStarOperands(rels, key);
  });
  const StarOperands& op = operands.fit<StarOperands>();
  RunRecord result = ResultFor(op);
  operands.RecordCache(&result);

  StarRun run(threads, options, sink, &result);
  TupleBuffer light = run.Light(rels, op, threads);
  HeavyPairs pairs(threads, result.heavy_rows);

  constexpr size_t kComboGrain = 16;
  const bool heavy = result.heavy_rows > 0 && result.heavy_cols > 0;
  if (heavy) {
    result.heavy_blocks_total =
        (result.heavy_rows + kComboGrain - 1) / kComboGrain;
  }
  if (heavy && run.gate.Stopped()) {
    result.heavy_blocks_skipped = result.heavy_blocks_total;
  } else if (heavy) {
    WallTimer heavy_timer;
    TraceRecorder::Scope heavy_scope(options.trace, "heavy",
                                     options.trace_parent);
    // Witness (column) lists per heavy combo, ascending: V's rows, and W's
    // gathered from the rows of W^T in order.
    std::vector<std::vector<Value>> wit2(result.heavy_cols);
    for (Value y = 0; y < op.wt.rows(); ++y) {
      for (uint32_t j : op.wt.Row(y)) wit2[j].push_back(y);
    }
    ChunkGate heavy_gate(&sink, options.cancel);

    // Witness-list lengths vary per combo; dynamic chunks absorb the skew.
    // W rows are visited in id order, so every row's ids ascend.
    ParallelForDynamic(threads, result.heavy_rows, kComboGrain,
                       [&](size_t i0, size_t i1, int worker) {
      if (!heavy_gate.Claim()) return;
      std::vector<uint32_t>& ids = pairs.ids[static_cast<size_t>(worker)];
      for (size_t i = i0; i < i1; ++i) {
        const size_t begin = ids.size();
        for (size_t j = 0; j < result.heavy_cols; ++j) {
          if (IntersectsSorted(op.v.Row(i), wit2[j])) {
            ids.push_back(static_cast<uint32_t>(j));
          }
        }
        pairs.Close(worker, static_cast<uint32_t>(i), begin);
      }
    });
    result.heavy_seconds = heavy_timer.Seconds();
    result.heavy_blocks_executed = heavy_gate.executed();
    result.heavy_blocks_skipped = heavy_gate.skipped();
    run.heavy_interrupted = heavy_gate.interrupted();
  }

  run.Finish(std::move(light), op, pairs);
  RecordRunMetrics(result, LightUnit::kStarSteps);
  return result;
}

}  // namespace jpmm
