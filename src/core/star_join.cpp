#include "core/star_join.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"
#include "common/metrics.h"
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

// Streaming tuple delivery for sink-driven star queries. The star
// decomposition can produce one output tuple from several steps (a tuple
// may have both light and heavy witnesses), so incremental delivery needs
// a global dedup: EmitBatch sort-uniques the batch, streams the tuples
// never seen before into the sink, and folds them into the sorted `seen`
// union. Batches arrive from many workers; the mutex serializes them (the
// per-batch merge is O(|seen| + |batch|), paid only for sinks that can
// finish early — everyone else gets one post-evaluation stream).
struct StarEmitter {
  ResultSink* sink = nullptr;
  bool streaming = false;
  std::mutex mu;
  TupleBuffer seen;

  explicit StarEmitter(uint32_t arity) : seen(arity) {}

  void EmitBatch(TupleBuffer* batch, int worker) {
    if (batch->empty()) return;
    batch->SortUnique();
    const uint32_t k = seen.arity();
    std::lock_guard<std::mutex> lock(mu);
    ResultSink::Shard& shard = sink->shard(worker);
    TupleBuffer merged(k);
    const size_t ns = seen.size();
    const size_t nb = batch->size();
    size_t i = 0, j = 0;
    auto less = [k](std::span<const Value> a, std::span<const Value> b) {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end());
    };
    while (i < ns || j < nb) {
      if (j >= nb) {
        merged.Add(seen.Get(i++));
      } else if (i >= ns) {
        shard.OnTuple(batch->Get(j));
        merged.Add(batch->Get(j++));
      } else if (less(seen.Get(i), batch->Get(j))) {
        merged.Add(seen.Get(i++));
      } else if (less(batch->Get(j), seen.Get(i))) {
        shard.OnTuple(batch->Get(j));
        merged.Add(batch->Get(j++));
      } else {
        merged.Add(seen.Get(i++));
        ++j;  // already delivered
      }
    }
    seen = std::move(merged);
  }
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

struct StarContext {
  const std::vector<const IndexedRelation*>& rels;
  Thresholds t;
  Value ny = 0;                    // y domain bound (max across relations)
  std::vector<uint8_t> heavy_cnt;  // #relations where deg_y(b) > delta1

  StarContext(const std::vector<const IndexedRelation*>& rels_in,
              Thresholds t_in)
      : rels(rels_in), t(t_in) {
    for (const auto* rel : rels) ny = std::max(ny, rel->num_y());
    heavy_cnt.assign(ny, 0);
    for (const auto* rel : rels) {
      for (Value b = 0; b < rel->num_y(); ++b) {
        if (rel->DegY(b) > t.delta1) ++heavy_cnt[b];
      }
    }
  }

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
TupleBuffer LightSteps(const StarContext& ctx, int threads, StarEmitter* em,
                       const CancelToken* cancel, uint64_t* steps_total,
                       uint64_t* steps_executed, uint64_t* steps_skipped,
                       bool* interrupted) {
  const size_t k = ctx.rels.size();
  TupleBuffer out(static_cast<uint32_t>(k));

  bool any_shared_heavy = false;
  for (Value b = 0; b < ctx.ny && !any_shared_heavy; ++b) {
    any_shared_heavy = ctx.heavy_cnt[b] >= 2;
  }
  const uint64_t steps_per_j = any_shared_heavy ? 2 : 1;
  *steps_total = k * steps_per_j;

  auto deliver = [&](TupleBuffer* part) {
    if (em->streaming) {
      em->EmitBatch(part, /*worker=*/0);
    } else {
      out.Append(*part);
    }
  };
  auto cancel_fired = [&]() -> bool {
    if (cancel != nullptr && cancel->Fired()) {
      *interrupted = true;
      return true;
    }
    return false;
  };

  for (size_t j = 0; j < k; ++j) {
    // Cooperative early exit between light steps (a "light bucket" here is
    // one decomposition step): once the sink is satisfied — or the cancel
    // token fires — the remaining steps are skipped and counted.
    if ((em->sink != nullptr && em->sink->done()) || cancel_fired()) {
      *steps_skipped += (k - j) * steps_per_j;
      break;
    }
    if (any_shared_heavy) {
      // Step 1-j: substitute R-j (light xj tuples only), restricted to y
      // values not already fully covered by step 2.
      TupleBuffer part = StarJoinProjectWcoj(
          ctx.rels,
          [&ctx, j](size_t rel, Value a, Value) {
            return rel != j || ctx.XiLight(j, a);
          },
          [&ctx](Value b) { return ctx.heavy_cnt[b] >= 2; }, threads);
      deliver(&part);
      ++*steps_executed;
      // Mid-iteration token poll: a deadline can fire between step 1-j and
      // step 2-j, not just between j iterations.
      if (cancel_fired()) {
        *steps_skipped += (k - j) * steps_per_j - 1;
        break;
      }
    }

    // Step 2-j: substitute R<>j — only y values light in all other
    // relations.
    TupleBuffer part2 = StarJoinProjectWcoj(
        ctx.rels, nullptr,
        [&ctx, j](Value b) {
          if (ctx.heavy_cnt[b] == 0) return j == 0;
          return ctx.LightAllExcept(j, b);
        },
        threads);
    deliver(&part2);
    ++*steps_executed;
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
// Returns the number of (row, col) incidences; fills row_map / rows_flat /
// entries. Aborts early (returns false) if the registration working set
// exceeds max_bytes.
bool RegisterGroup(const StarContext& ctx, const std::vector<size_t>& group,
                   const std::vector<Value>& cols, uint64_t max_bytes,
                   RowMap* row_map, std::vector<Value>* rows_flat,
                   std::vector<std::pair<Value, Value>>* entries) {
  const size_t g = group.size();
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
      auto [it, inserted] = row_map->try_emplace(
          PackComboKey(combo), static_cast<Value>(row_map->size()));
      if (inserted) {
        rows_flat->insert(rows_flat->end(), combo.begin(), combo.end());
      }
      entries->emplace_back(it->second, static_cast<Value>(col));
      // Checked on every incidence, not just combo insertions: the entry
      // list keeps growing even when no new combo appears.
      if (RegistrationBytes(row_map->size(), g, entries->size()) >
          max_bytes) {
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

// Shared columns of the heavy step: y heavy in >= 2 relations and adjacent
// to at least one heavy x value in every relation.
std::vector<Value> HeavyColumns(const StarContext& ctx) {
  std::vector<Value> cols;
  const size_t k = ctx.rels.size();
  for (Value b = 0; b < ctx.ny; ++b) {
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
  std::vector<Value> cols;
  RowMap map1, map2;
  std::vector<Value> rows1_flat, rows2_flat;  // stride g1 / g2
  std::vector<std::pair<Value, Value>> entries1, entries2;  // (row, col)
  bool fits = false;
};

HeavyGroups BuildHeavyGroups(const StarContext& ctx, uint64_t max_bytes) {
  const size_t k = ctx.rels.size();
  const size_t g1 = (k + 1) / 2;
  std::vector<size_t> group1, group2;
  for (size_t i = 0; i < g1; ++i) group1.push_back(i);
  for (size_t i = g1; i < k; ++i) group2.push_back(i);

  HeavyGroups hg;
  hg.cols = HeavyColumns(ctx);
  if (hg.cols.empty()) {
    hg.fits = true;
    return hg;
  }
  hg.fits = RegisterGroup(ctx, group1, hg.cols, max_bytes, &hg.map1,
                          &hg.rows1_flat, &hg.entries1) &&
            RegisterGroup(ctx, group2, hg.cols, max_bytes, &hg.map2,
                          &hg.rows2_flat, &hg.entries2);
  return hg;
}

}  // namespace

TupleBuffer WcojStarJoin(const std::vector<const IndexedRelation*>& rels,
                         int threads) {
  return StarJoinProjectWcoj(rels, nullptr, nullptr, threads);
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

StarJoinResult MmStarJoin(const std::vector<const IndexedRelation*>& rels,
                          const StarJoinOptions& options) {
  JPMM_CHECK(rels.size() >= 2);
  JPMM_CHECK_MSG(rels.size() <= 8, "combo packing supports k <= 8");
  const size_t k = rels.size();
  const size_t g1 = (k + 1) / 2;
  const size_t g2 = k - g1;
  const int threads = std::max(1, options.threads);

  Thresholds t = options.thresholds;
  t.delta1 = std::max<uint64_t>(1, t.delta1);
  t.delta2 = std::max<uint64_t>(1, t.delta2);

  StarJoinResult result;
  result.tuples = TupleBuffer(static_cast<uint32_t>(k));

  // Retry with doubled thresholds until the heavy part fits: the sparse
  // registration must fit, and so must the representations the heavy
  // kernels are gated to (core/heavy_product.h — under kAuto the dense
  // ones are gated off rather than doubling thresholds).
  TraceRecorder* const trace = options.trace;
  const TraceRecorder::SpanId tparent = options.trace_parent;
  TraceRecorder::Scope fit_scope(trace, "threshold-fit", tparent);
  const size_t row_block = std::max<size_t>(1, options.row_block);
  std::unique_ptr<StarContext> ctx;
  HeavyGroups hg;
  HeavyShape shape;
  for (;;) {
    ctx = std::make_unique<StarContext>(rels, t);
    hg = BuildHeavyGroups(*ctx, options.max_matrix_bytes);
    shape = HeavyShape{hg.map1.size(), hg.cols.size(), hg.map2.size(),
                       hg.entries1.size(), hg.entries2.size()};
    if (hg.fits &&
        GateHeavyProduct(shape, options.heavy_path, row_block, threads,
                         options.max_matrix_bytes)
                .bytes <= options.max_matrix_bytes) {
      break;
    }
    t.delta1 *= 2;
    t.delta2 *= 2;
  }
  fit_scope.Close();
  result.adjusted_thresholds = t;
  result.v_rows = shape.rows;
  result.w_rows = shape.cols;
  result.heavy_y = shape.inner;

  ResultSink* sink = options.sink;
  if (sink != nullptr) sink->Open(threads);
  StarEmitter em(static_cast<uint32_t>(k));
  em.sink = sink;
  em.streaming = sink != nullptr && sink->may_finish_early();
  std::atomic<bool> interrupted{false};
  const CancelToken* cancel = options.cancel;
  auto cancel_fired = [&]() -> bool {
    if (cancel != nullptr && cancel->Fired()) {
      interrupted.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  WallTimer light_timer;
  bool light_interrupted = false;
  TraceRecorder::Scope light_scope(trace, "light-pass", tparent);
  TupleBuffer light = LightSteps(
      *ctx, threads, &em, cancel, &result.light_steps_total,
      &result.light_steps_executed, &result.light_steps_skipped,
      &light_interrupted);
  light_scope.Close();
  if (light_interrupted) interrupted.store(true, std::memory_order_relaxed);
  result.tuples.Append(light);
  result.light_seconds = light_timer.Seconds();

  const bool heavy = result.v_rows > 0 && result.w_rows > 0;
  if (heavy && ((sink != nullptr && sink->done()) || cancel_fired())) {
    // Light steps satisfied the sink: account every planned chunk as
    // skipped without building the heavy operands at all.
    static_cast<HeavyRun&>(result) = SkippedHeavyRun(shape, row_block);
  } else if (heavy) {
    WallTimer heavy_timer;
    TraceRecorder::Scope heavy_scope(trace, "heavy", tparent);
    // The CSR operands are just the registered incidences (row offsets +
    // column ids); V * W^T runs on the heavy-product executor, which emits
    // each nonzero (V row i, W row j) as one tuple.
    const TraceRecorder::SpanId csr_span =
        TraceBegin(trace, "csr-build", heavy_scope.id());
    const CsrMatrix v =
        CsrMatrix::FromEntries(result.v_rows, shape.inner, hg.entries1);
    const CsrMatrix wt = CsrMatrix::FromEntries(shape.inner, result.w_rows,
                                                hg.entries2, /*swapped=*/true);
    TraceEnd(trace, csr_span);

    // Streaming sinks get each chunk's tuples as one dedup'd batch; the
    // materializing path appends to the per-worker buffer.
    std::vector<TupleBuffer> partial(static_cast<size_t>(threads),
                                     TupleBuffer(static_cast<uint32_t>(k)));
    std::vector<TupleBuffer> pending(static_cast<size_t>(threads),
                                     TupleBuffer(static_cast<uint32_t>(k)));
    HeavyProduct hp;
    hp.mode = options.heavy_path;
    hp.partition = options.partition;
    hp.row_block = row_block;
    hp.rates = options.sparse_rates;
    hp.grid_cache = options.grid_cache;
    hp.grid_key = t;
    hp.max_bytes = options.max_matrix_bytes;
    hp.threads = threads;
    hp.sink = sink;
    hp.cancel = cancel;
    hp.trace = trace;
    hp.trace_parent = heavy_scope.id();
    hp.on_row = [&](int w, uint32_t i, const HeavyRow& row) {
      const auto wi = static_cast<size_t>(w);
      TupleBuffer& out = em.streaming ? pending[wi] : partial[wi];
      std::array<Value, 8> tuple;  // k <= 8, checked at entry
      const Value* left = hg.rows1_flat.data() + static_cast<size_t>(i) * g1;
      std::copy(left, left + g1, tuple.begin());
      row.ForEach([&](uint32_t j, uint32_t) {
        const Value* right = hg.rows2_flat.data() + static_cast<size_t>(j) * g2;
        std::copy(right, right + g2, tuple.begin() + g1);
        out.Add({tuple.data(), k});
      });
    };
    if (em.streaming) {
      hp.on_chunk_done = [&](int w) {
        TupleBuffer& batch = pending[static_cast<size_t>(w)];
        em.EmitBatch(&batch, w);
        batch = TupleBuffer(static_cast<uint32_t>(k));
      };
    }
    bool heavy_interrupted = false;
    static_cast<HeavyRun&>(result) =
        RunHeavyProduct(v, wt, hp, &heavy_interrupted);
    if (heavy_interrupted) interrupted.store(true, std::memory_order_relaxed);
    for (const auto& p : partial) result.tuples.Append(p);
    result.heavy_seconds = heavy_timer.Seconds();
  }

  result.interrupted = interrupted.load();
  TraceRecorder::Scope finish_scope(trace, "sink-finish", tparent);
  if (em.streaming) {
    // seen is the sorted duplicate-free union of everything delivered.
    result.tuples = std::move(em.seen);
  } else {
    result.tuples.SortUnique();
    if (sink != nullptr) {
      ResultSink::Shard& shard = sink->shard(0);
      for (size_t i = 0; i < result.tuples.size(); ++i) {
        if (sink->done()) break;
        if (cancel_fired()) {
          result.interrupted = true;
          break;
        }
        shard.OnTuple(result.tuples.Get(i));
      }
    }
  }
  if (sink != nullptr) sink->Finish();
  finish_scope.Close();

  RecordHeavyRunMetrics(result);
  if (MetricsEnabled()) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static Counter& steps_executed =
        reg.GetCounter("jpmm_star_light_steps_executed_total");
    static Counter& steps_skipped =
        reg.GetCounter("jpmm_star_light_steps_skipped_total");
    static Histogram& light_ms =
        reg.GetHistogram("jpmm_join_light_pass_ms", DefaultLatencyBoundsMs());
    static Histogram& heavy_ms =
        reg.GetHistogram("jpmm_join_heavy_pass_ms", DefaultLatencyBoundsMs());
    steps_executed.Add(result.light_steps_executed);
    steps_skipped.Add(result.light_steps_skipped);
    light_ms.Record(result.light_seconds * 1e3);
    if (result.heavy_seconds > 0) heavy_ms.Record(result.heavy_seconds * 1e3);
  }
  return result;
}

StarJoinResult NonMmStarJoin(const std::vector<const IndexedRelation*>& rels,
                             const StarJoinOptions& options) {
  JPMM_CHECK(rels.size() >= 2);
  JPMM_CHECK_MSG(rels.size() <= 8, "combo packing supports k <= 8");
  const size_t k = rels.size();
  const size_t g1 = (k + 1) / 2;
  const size_t g2 = k - g1;
  const int threads = std::max(1, options.threads);

  Thresholds t = options.thresholds;
  t.delta1 = std::max<uint64_t>(1, t.delta1);
  t.delta2 = std::max<uint64_t>(1, t.delta2);

  StarJoinResult result;
  result.tuples = TupleBuffer(static_cast<uint32_t>(k));
  StarContext ctx(rels, t);
  // No dense matrices here, so no byte cap: pass "unlimited".
  HeavyGroups hg =
      BuildHeavyGroups(ctx, std::numeric_limits<uint64_t>::max());
  result.adjusted_thresholds = t;
  result.v_rows = hg.map1.size();
  result.w_rows = hg.map2.size();
  result.heavy_y = hg.cols.size();

  ResultSink* sink = options.sink;
  if (sink != nullptr) sink->Open(threads);
  StarEmitter em(static_cast<uint32_t>(k));
  em.sink = sink;
  em.streaming = sink != nullptr && sink->may_finish_early();
  std::atomic<uint64_t> blocks_executed{0};
  std::atomic<uint64_t> blocks_skipped{0};
  std::atomic<bool> interrupted{false};
  const CancelToken* cancel = options.cancel;
  auto cancel_fired = [&]() -> bool {
    if (cancel != nullptr && cancel->Fired()) {
      interrupted.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  TraceRecorder* const trace = options.trace;
  const TraceRecorder::SpanId tparent = options.trace_parent;
  WallTimer light_timer;
  bool light_interrupted = false;
  TraceRecorder::Scope light_scope(trace, "light-pass", tparent);
  TupleBuffer light = LightSteps(
      ctx, threads, &em, cancel, &result.light_steps_total,
      &result.light_steps_executed, &result.light_steps_skipped,
      &light_interrupted);
  light_scope.Close();
  if (light_interrupted) interrupted.store(true, std::memory_order_relaxed);
  result.tuples.Append(light);
  result.light_seconds = light_timer.Seconds();

  constexpr size_t kComboGrain = 16;
  if (result.v_rows > 0 && result.w_rows > 0 &&
      ((sink != nullptr && sink->done()) || cancel_fired())) {
    result.heavy_blocks_total =
        (result.v_rows + kComboGrain - 1) / kComboGrain;
    blocks_skipped.store(result.heavy_blocks_total);
  } else if (result.v_rows > 0 && result.w_rows > 0) {
    WallTimer heavy_timer;
    TraceRecorder::Scope heavy_scope(trace, "heavy", tparent);
    // Witness (column) lists per heavy combo, ascending because entries are
    // produced in ascending column order.
    std::vector<std::vector<Value>> wit1(result.v_rows), wit2(result.w_rows);
    for (const auto& [row, col] : hg.entries1) wit1[row].push_back(col);
    for (const auto& [row, col] : hg.entries2) wit2[row].push_back(col);

    result.heavy_blocks_total =
        (result.v_rows + kComboGrain - 1) / kComboGrain;
    std::vector<TupleBuffer> partial(static_cast<size_t>(threads),
                                     TupleBuffer(static_cast<uint32_t>(k)));
    // Witness-list lengths vary per combo; dynamic chunks absorb the skew.
    ParallelForDynamic(threads, result.v_rows, kComboGrain,
                       [&](size_t i0, size_t i1, int w) {
      if ((sink != nullptr && sink->done()) || cancel_fired()) {
        blocks_skipped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      blocks_executed.fetch_add(1, std::memory_order_relaxed);
      std::vector<Value> tuple(k);
      TupleBuffer block_out(static_cast<uint32_t>(k));
      TupleBuffer& out =
          em.streaming ? block_out : partial[static_cast<size_t>(w)];
      for (size_t i = i0; i < i1; ++i) {
        const Value* left = hg.rows1_flat.data() + i * g1;
        for (size_t j = 0; j < result.w_rows; ++j) {
          if (IntersectsSorted(wit1[i], wit2[j])) {
            std::copy(left, left + g1, tuple.begin());
            const Value* right = hg.rows2_flat.data() + j * g2;
            std::copy(right, right + g2, tuple.begin() + g1);
            out.Add(tuple);
          }
        }
      }
      if (em.streaming) em.EmitBatch(&block_out, w);
    });
    for (const auto& p : partial) result.tuples.Append(p);
    result.heavy_seconds = heavy_timer.Seconds();
  }

  result.heavy_blocks_executed = blocks_executed.load();
  result.heavy_blocks_skipped = blocks_skipped.load();
  result.interrupted = interrupted.load();
  TraceRecorder::Scope finish_scope(trace, "sink-finish", tparent);
  if (em.streaming) {
    result.tuples = std::move(em.seen);
  } else {
    result.tuples.SortUnique();
    if (sink != nullptr) {
      ResultSink::Shard& shard = sink->shard(0);
      for (size_t i = 0; i < result.tuples.size(); ++i) {
        if (sink->done()) break;
        if (cancel_fired()) {
          result.interrupted = true;
          break;
        }
        shard.OnTuple(result.tuples.Get(i));
      }
    }
  }
  if (sink != nullptr) sink->Finish();
  return result;
}

}  // namespace jpmm
