// Internal machinery shared by the MM and combinatorial (Non-MM) two-path
// joins: the witness-class decomposition of Algorithm 1's light part.
//
// For an output pair (a, c), every witness b falls in exactly one class:
//   class L1: (a,b) in R-           (a light, or b light)
//   class L2: (a,b) in R+, (c,b) in S-   => b heavy, c light
//   class H : (a,b) in R+, (c,b) in S+   => a, b, c all heavy
// AccumulateLight() visits classes L1 and L2 for one head value a; class H
// is the caller's heavy strategy (matrix product or pairwise intersection).
// Because the classes partition witnesses, summing contributions gives exact
// witness counts with no cross-part dedup.
//
// PairEmitter is the one per-worker emission path of the MM, Non-MM and
// WCOJ executors: it counts a head's witnesses and delivers its qualifying
// pairs to the worker's shard in spans.

#ifndef JPMM_CORE_TWO_PATH_INTERNAL_H_
#define JPMM_CORE_TWO_PATH_INTERNAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/stamp_set.h"
#include "common/types.h"
#include "core/density_partition.h"
#include "core/result_sink.h"
#include "storage/index.h"

namespace jpmm {
struct HeavyRow;
}  // namespace jpmm

namespace jpmm::internal {

/// One worker's witness counter and output buffer. Per head value a:
/// BeginHead(), Add() every witness's z value, then EmitTouched() — or,
/// for a head with a heavy row, EmitHeavyHead(). Results leave as one
/// OnPairs / OnCountedPairs span per kFlushAt results and at every Flush();
/// executors flush at the end of each chunk, so all of a chunk's results
/// reach the sink before the next ChunkGate::Claim polls done() and before
/// sink.Finish(). Workers' emitters sit on cache lines of their own.
class alignas(64) PairEmitter {
 public:
  static constexpr size_t kFlushAt = 4096;

  void BeginHead() {
    counter_.NewEpoch();
    touched_.clear();
  }
  /// Adds cnt witnesses to z value c of the current head.
  void Add(Value c, uint32_t cnt) {
    if (counter_.Add(c, cnt) == 0) touched_.push_back(c);
  }
  uint32_t Get(Value c) const { return counter_.Get(c); }

  /// Emits (a, c) for every touched c with at least min_count witnesses.
  void EmitTouched(Value a, bool count_witnesses, uint32_t min_count) {
    EmitTouched(a, count_witnesses, min_count, [](Value) { return 1; });
  }

  /// EmitTouched, where side(c) says how to emit a qualifying c: 0 drops
  /// it, 1 emits (a, c), 2 emits (a, c) and (c, a) from the one count (the
  /// self join's mirror: its witness counts are symmetric).
  template <typename Side>
  void EmitTouched(Value a, bool count_witnesses, uint32_t min_count,
                   Side side) {
    for (Value c : touched_) {
      const uint32_t cnt = counter_.Get(c);
      if (cnt < min_count) continue;
      const int n = side(c);
      if (n == 0) continue;
      if (count_witnesses) {
        Push(&counted_, &n_counted_, CountedPair{a, c, cnt});
        if (n == 2) Push(&counted_, &n_counted_, CountedPair{c, a, cnt});
      } else {
        Push(&pairs_, &n_pairs_, OutPair{a, c});
        if (n == 2) Push(&pairs_, &n_pairs_, OutPair{c, a});
      }
    }
  }

  /// Emits all pairs of head value a, whose light witnesses Add() has
  /// counted and whose all-heavy witness counts are `row`: cell col of the
  /// row counts z value part.heavy_z()[col]. The row's nonzero cells are
  /// compacted in bulk and written straight into the span buffer; the light
  /// witnesses of a z the row emits fold into its pair, and the light-only
  /// z's leave through EmitTouched. A symmetric row (the self join,
  /// M2 = M1^T) emits by position, since witness counts are symmetric:
  /// a z positioned before a, nothing (z's own row emits the pair); a
  /// itself, (a, a) once; after, (a, z) and (z, a) from the one count. A z
  /// with no column has no row and is emitted as (a, z).
  void EmitHeavyHead(Value a, const HeavyRow& row, const TwoPathPartition& part,
                     bool count_witnesses, uint32_t min_count);

  /// Delivers the buffered results as one span.
  void Flush() {
    if (n_pairs_ > 0) shard_->OnPairs({pairs_.data(), n_pairs_});
    if (n_counted_ > 0) shard_->OnCountedPairs({counted_.data(), n_counted_});
    n_pairs_ = 0;
    n_counted_ = 0;
  }

 private:
  template <typename T>
  void Push(std::vector<T>* buf, size_t* n, const T& v) {
    (*buf)[(*n)++] = v;
    if (*n == kFlushAt) Flush();
  }
  // Writes `cells` results in bulk: write(k, out) stores up to `per` of
  // them for cell k at out and returns how many it kept.
  template <typename T, typename Write>
  void WriteCells(std::vector<T>* buf, size_t* n, size_t cells, size_t per,
                  Write write);
  // Writes the results of the `cells` compacted cells of head a's row.
  template <typename T>
  void WriteRow(std::vector<T>* buf, size_t* n, Value a, const HeavyRow& row,
                size_t cells, const Value* z_of, uint32_t min_count);

  friend class PairEmitters;
  StampCounter counter_;
  std::vector<Value> touched_;
  ResultSink::Shard* shard_ = nullptr;
  // Span buffers of kFlushAt slots, the first n_pairs_ / n_counted_ live.
  std::vector<OutPair> pairs_;
  std::vector<CountedPair> counted_;
  size_t n_pairs_ = 0;
  size_t n_counted_ = 0;
  // A heavy row's compacted cells: columns and counts.
  std::vector<uint32_t> cell_cols_;
  std::vector<uint32_t> cell_counts_;
};

/// The emitters of one run into an opened sink, one per worker; each binds
/// its worker's shard and sizes its counter to the z domain on first use.
class PairEmitters {
 public:
  PairEmitters(ResultSink& sink, int workers, size_t num_z)
      : sink_(sink), num_z_(num_z), emitters_(static_cast<size_t>(workers)) {}

  PairEmitter& operator[](int w) {
    PairEmitter& em = emitters_[static_cast<size_t>(w)];
    if (em.shard_ == nullptr) {
      em.shard_ = &sink_.shard(w);
      em.counter_.ResizeUniverse(num_z_);
      em.pairs_.resize(PairEmitter::kFlushAt);
      em.counted_.resize(PairEmitter::kFlushAt);
    }
    return em;
  }

 private:
  ResultSink& sink_;
  const size_t num_z_;
  std::vector<PairEmitter> emitters_;
};

/// Precomputed light-part context for one (R, S, thresholds) triple.
struct TwoPathContext {
  TwoPathContext(const IndexedRelation& r_in, const IndexedRelation& s_in,
                 Thresholds t);

  const IndexedRelation& r;
  const IndexedRelation& s;
  TwoPathPartition part;

  // CSR over y values: for each b with deg_S(b) > Delta1 and deg_R(b) > 0,
  // the light-z neighbours {c in S[b] : deg_S(c) <= Delta2} (class L2).
  // lightz_offsets is indexed by b directly (size ny + 1; zero-width spans
  // for light or absent b).
  std::vector<uint64_t> lightz_offsets;
  std::vector<Value> lightz_values;

  std::span<const Value> LightZOf(Value b) const {
    return {lightz_values.data() + lightz_offsets[b],
            static_cast<size_t>(lightz_offsets[b + 1] - lightz_offsets[b])};
  }

  /// Adds the class L1 + L2 witnesses of head value a to em's current
  /// head.
  void AccumulateLight(Value a, PairEmitter* em) const;

  /// Number of class L1+L2 witnesses of head value a (cost instrumentation).
  uint64_t LightWitnessCount(Value a) const;

  /// Resident bytes of the partition and the light-z lists.
  uint64_t Bytes() const {
    return part.Bytes() + sizeof(uint64_t) * lightz_offsets.size() +
           sizeof(Value) * lightz_values.size();
  }
};

}  // namespace jpmm::internal

#endif  // JPMM_CORE_TWO_PATH_INTERNAL_H_
