// ResultSink — push-based result delivery for every jpmm query family.
//
// The paper's algorithms are output-sensitive, so the API should be too:
// limit, count-only, and top-k consumers must not pay for materializing
// every output pair. A ResultSink inverts the old "return a vector"
// contract into push-based delivery:
//
//   - The executor calls Open(workers) once, then each worker w emits
//     through shard(w) — shards are single-owner, so parallel emission
//     needs no locks — and finally the executor calls Finish() once on the
//     coordinating thread.
//   - done() is a cooperative early-exit signal, polled by the emit loops
//     at bucket/block granularity: once a PageSink has its page, the
//     remaining light chunks and heavy product blocks are skipped (the
//     skip counts surface through the result structs and
//     `jpmm_cli --explain`).
//   - Delivery order is unspecified (it follows dynamic chunk claiming);
//     the pair SET at a given option set is deterministic for sinks that
//     accept everything. Executors apply min_count filtering BEFORE the
//     sink, so a sink only ever sees qualifying results.
//
// Ships four consumers: VectorSink (materialize everything),
// CountOnlySink, PageSink (offset + limit pagination; PageSink(0, k) is the
// limit), and OrderedBySink (ranked delivery per Deep, Hu & Koutris 2022;
// OrderedBySink(kCountDescending, k) is the top-k by witness count), plus
// FanoutSink and RecordingSink for the service. Custom sinks implement the
// same contract; see docs/api.md.

#ifndef JPMM_CORE_RESULT_SINK_H_
#define JPMM_CORE_RESULT_SINK_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"

namespace jpmm {

/// Push-based consumer of query results. See the file header for the
/// threading contract (Open / shard(w) / Finish, plus done() from any
/// thread).
class ResultSink {
 public:
  /// Per-worker emission handle. shard(w) is touched only by worker w
  /// between Open() and Finish(), so implementations need no locking in
  /// the On* methods unless they share state across shards on purpose.
  class Shard {
   public:
    virtual ~Shard() = default;
    /// One plain output pair (count_witnesses off).
    virtual void OnPair(const OutPair& p) = 0;
    /// One counted output pair (count_witnesses on). The count is the
    /// exact witness count and is already >= the query's min_count.
    virtual void OnCountedPair(const CountedPair& p) = 0;
    /// One k-ary star tuple (star queries only; duplicate-free).
    virtual void OnTuple(std::span<const Value> tuple) { (void)tuple; }
    /// Block-granular bulk delivery; default loops the scalar hooks.
    virtual void OnPairs(std::span<const OutPair> ps);
    virtual void OnCountedPairs(std::span<const CountedPair> ps);
  };

  virtual ~ResultSink() = default;

  /// Called once by the executor before any emission. num_shards is the
  /// worker count; shard(w) must be valid for w in [0, num_shards).
  /// Reopening resets the sink for a fresh execution.
  virtual void Open(int num_shards) = 0;

  /// Worker w's emission handle. Valid between Open() and Finish().
  virtual Shard& shard(int w) = 0;

  /// Cooperative early exit: when true, executors skip remaining work at
  /// the next bucket/block boundary. Must be callable from any thread.
  virtual bool done() const { return false; }

  /// True when done() can become true before the query completes (e.g.
  /// PageSink). Executors whose emission is not naturally streaming
  /// (the star join needs global tuple dedup) only pay the incremental
  /// delivery overhead when this is set.
  virtual bool may_finish_early() const { return false; }

  /// False for sinks whose shards do not consume OnTuple (pair-only
  /// consumers like OrderedBySink). QueryEngine rejects star queries
  /// into such a sink instead of silently delivering nothing.
  virtual bool supports_tuples() const { return true; }

  /// Called once after all parallel emission finished; merge point.
  virtual void Finish() {}
};

/// A materialized result stream: plain pairs, counted pairs, or star tuples
/// (flattened with stride tuple_arity). One execution fills one of the
/// three. The value type of every sink that keeps results and of the result
/// cache's entries.
struct Results {
  std::vector<OutPair> pairs;
  std::vector<CountedPair> counted;
  std::vector<Value> tuple_data;
  uint32_t tuple_arity = 0;

  size_t size() const {
    if (!pairs.empty()) return pairs.size();
    if (!counted.empty()) return counted.size();
    return tuple_arity == 0 ? 0 : tuple_data.size() / tuple_arity;
  }
  /// Payload bytes (what the result cache charges for an entry).
  uint64_t bytes() const {
    return pairs.size() * sizeof(OutPair) +
           counted.size() * sizeof(CountedPair) +
           tuple_data.size() * sizeof(Value);
  }
  void AddTuple(std::span<const Value> tuple) {
    tuple_arity = static_cast<uint32_t>(tuple.size());
    tuple_data.insert(tuple_data.end(), tuple.begin(), tuple.end());
  }
  /// Appends `parts` in order, reserving once (the shard merge).
  void Append(std::span<Results* const> parts);
};

/// Base of the sinks that keep results: every shard collects what its
/// sink's admission rule grants into its own Results, and Finish() merges
/// them in shard order. Closed: its only subclasses are the three below,
/// whose Open() supplies the admission rule (defined in result_sink.cpp).
/// A custom sink derives from ResultSink.
class MaterializingSink : public ResultSink {
 public:
  Shard& shard(int w) override;
  void Finish() override;

  /// The kept results, merged in shard order. Valid after Finish();
  /// movable out.
  Results& results() { return results_; }
  const Results& results() const { return results_; }
  std::vector<OutPair>& pairs() { return results_.pairs; }
  const std::vector<OutPair>& pairs() const { return results_.pairs; }
  std::vector<CountedPair>& counted() { return results_.counted; }
  const std::vector<CountedPair>& counted() const { return results_.counted; }
  /// Star tuples, flattened with stride tuple_arity(); empty for pairs.
  const std::vector<Value>& tuple_data() const { return results_.tuple_data; }
  uint32_t tuple_arity() const { return results_.tuple_arity; }
  size_t size() const { return results_.size(); }

 private:
  friend class VectorSink;
  friend class PageSink;
  friend class RecordingSink;
  MaterializingSink() = default;

  /// Clears results() and opens num_shards shards under `admit`, which
  /// maps a delivery of n results totalling `bytes` to the [first, last)
  /// part of it to keep.
  template <typename Admit>
  void OpenShards(int num_shards, Admit admit);

  struct CollectShard : Shard {
    Results out;
  };
  template <typename Admit>
  struct AdmitShard;
  std::vector<std::unique_ptr<CollectShard>> shards_;
  Results results_;
};

/// Keeps every result. Bulk deliveries are appended whole.
class VectorSink : public MaterializingSink {
 public:
  void Open(int num_shards) override;
};

/// Counts results without storing them.
class CountOnlySink : public ResultSink {
 public:
  CountOnlySink();
  ~CountOnlySink() override;

  void Open(int num_shards) override;
  Shard& shard(int w) override;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  struct CountShard;
  std::vector<std::unique_ptr<CountShard>> shards_;
  std::atomic<uint64_t> count_{0};
};

/// One result page: skips the first `offset` results to arrive, keeps the
/// next `limit`, then reports done() — the early exit fires as soon as the
/// page is full, so deep heavy blocks after the page boundary are skipped.
/// PageSink(0, k) is the limit-k consumer. WHICH results fill the page
/// follows the (nondeterministic) emission order; the counts are
/// deterministic:
///   size()    == min(limit, |OUT| - min(offset, |OUT|))
///   skipped() == min(offset, |OUT|)   (exact skip accounting)
/// Each delivery reserves its result slots with one shared fetch_add, so
/// the skip count and page boundary are exact across any number of shards.
class PageSink : public MaterializingSink {
 public:
  PageSink(uint64_t offset, uint64_t limit);

  void Open(int num_shards) override;
  bool done() const override {
    return accepted_.load(std::memory_order_relaxed) >= end_;
  }
  bool may_finish_early() const override { return true; }

  uint64_t offset() const { return offset_; }
  uint64_t limit() const { return end_ - offset_; }
  /// Results skipped to reach the page: exactly min(offset, |OUT|).
  /// Valid after Finish().
  uint64_t skipped() const {
    return std::min(accepted_.load(std::memory_order_relaxed), offset_);
  }

 private:
  const uint64_t offset_;
  const uint64_t end_;  // offset + limit, saturated
  std::atomic<uint64_t> accepted_{0};
};

/// Ranking for OrderedBySink.
enum class ResultOrder {
  kXzAscending,      // (x, z) lexicographic, the enumeration order
  kCountDescending,  // witness count desc, ties (x, z) asc: the top-k order
};

const char* ResultOrderName(ResultOrder o);

/// Ranked streaming delivery (ranked enumeration a la Deep, Hu & Koutris
/// 2022): results arrive in an unspecified order, each shard keeps a
/// sorted-on-demand run (bounded to `limit` by a min-heap when a limit is
/// set, so memory is O(shards * limit) instead of O(|OUT|)), and Finish()
/// merges the runs with a bounded cursor-per-shard merge, delivering the
/// output in rank order — to the on_result callback as a stream, and into
/// ranked() materialized. The order is a strict total order, so the result
/// equals sorting the full output and (with a limit) truncating — the
/// full-sort oracle the tests compare against — at every thread count.
/// Never reports done() before the end: every result must be seen to rank.
/// Plain pairs rank with implicit weight 1. Pair-only (no star tuples).
class OrderedBySink : public ResultSink {
 public:
  static constexpr uint64_t kNoLimit = ~uint64_t{0};

  explicit OrderedBySink(ResultOrder order, uint64_t limit = kNoLimit);
  ~OrderedBySink() override;

  void Open(int num_shards) override;
  Shard& shard(int w) override;
  bool supports_tuples() const override { return false; }
  void Finish() override;

  /// Streaming consumer, invoked in rank order during Finish(); set before
  /// Execute. The materialized ranked() vector is filled either way.
  void set_on_result(std::function<void(const CountedPair&)> fn) {
    on_result_ = std::move(fn);
  }

  ResultOrder order() const { return order_; }
  uint64_t limit() const { return limit_; }
  /// The ranked output (counted; plain pairs carry count 1), best first.
  const std::vector<CountedPair>& ranked() const { return ranked_; }

 private:
  struct OrderedShard;
  const ResultOrder order_;
  const uint64_t limit_;
  std::function<void(const CountedPair&)> on_result_;
  std::vector<std::unique_ptr<OrderedShard>> shards_;
  std::vector<CountedPair> ranked_;
};

// perfbench still names LimitSink and TopKByCountSink; the next benchmark
// revision moves it onto PageSink(0, k) and OrderedBySink(kCountDescending,
// k) and deletes both names.
struct LimitSink : PageSink {
  explicit LimitSink(uint64_t k) : PageSink(0, k) {}
};
struct TopKByCountSink : OrderedBySink {
  explicit TopKByCountSink(size_t k)
      : OrderedBySink(ResultOrder::kCountDescending, k) {}
  const std::vector<CountedPair>& top() const { return ranked(); }
};

/// Fans one execution's result stream out to N independent client sinks —
/// the delivery half of QueryService's multi-query batching: a batch leader
/// runs the single product pass into a FanoutSink and every coalesced
/// client's sink receives the same stream with its own done()/limit/page
/// semantics intact.
///
///   - Targets vote: each On* call forwards to every target whose done() is
///     still false (one relaxed load per target, checked per call — the
///     same granularity the executors poll at), so a PageSink target stops
///     receiving after its k results while the others keep streaming.
///   - done() is the conjunction over targets: the shared execution
///     early-exits only when EVERY client is satisfied — a single follower
///     finishing early never cancels the leader's pass.
///   - Taps are non-voting observers (the result-cache RecordingSink):
///     they receive every result unconditionally and are ignored by done().
///
/// Add targets/taps before Open(); the pointers must outlive the execution
/// (the batcher guarantees this by holding followers until delivery ends).
class FanoutSink : public ResultSink {
 public:
  FanoutSink();
  ~FanoutSink() override;

  /// A voting client sink (one per coalesced request).
  void AddTarget(ResultSink* sink);
  /// A non-voting observer; receives everything, never blocks early exit.
  void AddTap(ResultSink* sink);

  void Open(int num_shards) override;
  Shard& shard(int w) override;
  /// True iff ALL targets report done() (vacuously false with no targets).
  bool done() const override;
  /// The shared pass may finish early only if every target allows it.
  bool may_finish_early() const override;
  /// Tuples are deliverable only if every target AND tap consumes them.
  bool supports_tuples() const override;
  void Finish() override;

  size_t num_targets() const { return targets_.size(); }
  /// Total results delivered across all targets (bulk spans count each
  /// element once per receiving target). Feeds jpmm_batch_fanout_*.
  uint64_t results_forwarded() const {
    return forwarded_.load(std::memory_order_relaxed);
  }

 private:
  struct FanShard;
  std::vector<ResultSink*> targets_;
  std::vector<ResultSink*> taps_;
  std::vector<std::unique_ptr<FanShard>> shards_;
  std::atomic<uint64_t> forwarded_{0};
};

/// Bounded materializer used as a FanoutSink tap: captures the complete
/// result stream of one execution so QueryService can insert it into the
/// versioned result cache. A shared byte budget (one relaxed fetch_add per
/// delivery) stops capture at `max_bytes` and latches overflowed() — an
/// oversized result is simply not cached, it never fails the query.
class RecordingSink : public MaterializingSink {
 public:
  explicit RecordingSink(uint64_t max_bytes);

  void Open(int num_shards) override;

  /// True once the stream exceeded max_bytes; the capture is incomplete
  /// and must not be cached.
  bool overflowed() const {
    return overflowed_.load(std::memory_order_relaxed);
  }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  const uint64_t max_bytes_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<bool> overflowed_{false};
};

}  // namespace jpmm

#endif  // JPMM_CORE_RESULT_SINK_H_
