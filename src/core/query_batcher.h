// QueryBatcher + ResultCache — multi-query coalescing for QueryService.
//
// The paper's premise is that the heavy product pass dominates evaluation;
// under concurrency the biggest remaining multiplicative win is therefore
// not running it N times. Two layers, both keyed by
// (catalog version at Prepare, spec fingerprint):
//
//   - QueryBatcher coalesces IN-FLIGHT identical requests: the first
//     arrival opens a batch group and becomes its leader, holds a short
//     batch window so concurrent identical requests can join, then runs
//     the single execution into a FanoutSink that streams the one result
//     set into every member's sink — each with independent done()/limit/
//     page semantics (a follower finishing early never cancels the shared
//     pass; when every follower detaches the leader degrades to a plain
//     solo run). A leader whose token fires during the window hands
//     leadership to a live follower instead of stranding the group.
//   - ResultCache serves REPEAT requests without executing at all: a
//     bytes-capped LRU of complete result payloads, replayed into the
//     caller's sink. Version-keyed probes make staleness structurally
//     impossible: a Put/Drop bumps Catalog::version(), every later
//     Prepare records the new version, and a probe only matches an entry
//     created at exactly the probing query's prepared_version.
//
// The coalescing key deliberately excludes execution knobs (threads,
// kernels, thresholds, strategy overrides): the result SET is invariant
// across all of them — the differential fuzzer's core guarantee — so
// requests differing only in HOW share one pass safely. The plan is itself
// a deterministic function of (catalog version, spec), so the plan
// signature is folded into the key implicitly.
//
// Thread-safety: both classes are fully internally synchronized; every
// method may be called from any number of request threads.

#ifndef JPMM_CORE_QUERY_BATCHER_H_
#define JPMM_CORE_QUERY_BATCHER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/cancel_token.h"
#include "core/query_engine.h"
#include "core/result_sink.h"
#include "core/trace.h"

namespace jpmm {

/// Coalescing / cache key: the consistent catalog cut a PreparedQuery was
/// prepared on + the WHAT-fields of its spec.
struct BatchKey {
  uint64_t catalog_version = 0;
  uint64_t spec_fingerprint = 0;

  bool operator==(const BatchKey& o) const {
    return catalog_version == o.catalog_version &&
           spec_fingerprint == o.spec_fingerprint;
  }
};

struct BatchKeyHash {
  size_t operator()(const BatchKey& k) const;
};

/// Coalesces concurrent identical requests onto one execution. Owned by
/// QueryService; mechanism only — admission control, degradation, outcome
/// accounting, and the cache live in the service, which passes the whole
/// admitted-execution path in as the `run` callback.
class QueryBatcher {
 public:
  struct Options {
    /// How long a group's leader waits for followers before executing.
    int64_t window_ms = 2;
  };

  /// How this request was served (drives the service's accounting).
  enum class Role : uint8_t {
    kLeader,    // ran the execution (group_size 1 == degraded to solo)
    kFollower,  // received the leader's fan-out (or its terminal status)
    kDetached,  // token fired before the group closed; nothing executed
  };

  struct Result {
    Role role = Role::kLeader;
    QueryStatus status;
    /// Client sinks served by the shared execution (leader included).
    uint32_t group_size = 1;
  };

  /// The admitted-execution path: runs ONE pass into the given sink
  /// (which may be a FanoutSink over many client sinks) and fills stats.
  using RunFn = std::function<QueryStatus(ResultSink&, ExecStats*)>;

  explicit QueryBatcher(Options options);

  /// Serves one request. Exactly one member of each group invokes `run`;
  /// the others wait for delivery ("batch-wait" span either way) and
  /// return with the leader's status + a copy of its stats (batch_*
  /// flags set per role). `tap`, when non-null, is attached to the fan-out
  /// as a non-voting observer IF this request ends up running — the
  /// service's result-cache recorder.
  ///
  /// Lifetime contract: a member's sink/token/tap must stay valid until
  /// Execute returns — trivially true since they live in the caller's
  /// frame. A follower whose token fires after its group closed can no
  /// longer detach (the fan-out may already reference its sink) and is
  /// held until delivery completes; its full results make that benign.
  Result Execute(const BatchKey& key, ResultSink* sink, ResultSink* tap,
                 const CancelToken* token, const RunFn& run, ExecStats* stats,
                 TraceRecorder* trace, int32_t trace_parent);

  /// Groups whose execution actually ran (leaders + promoted followers).
  uint64_t groups_run() const {
    return groups_run_.load(std::memory_order_relaxed);
  }

 private:
  struct Group;

  Result RunAsLeader(const std::shared_ptr<Group>& g,
                     const std::vector<ResultSink*>& targets, ResultSink* tap,
                     const RunFn& run, ExecStats* stats);

  const Options options_;
  std::mutex mu_;  // guards open_ only; per-group state has its own mutex
  std::unordered_map<BatchKey, std::shared_ptr<Group>, BatchKeyHash> open_;
  std::atomic<uint64_t> groups_run_{0};
};

/// Bytes-capped LRU of complete result payloads, keyed by
/// (catalog version, spec fingerprint). Entries are immutable shared_ptrs:
/// a probe copies the pointer under the lock and replays outside it, so a
/// big replay never blocks concurrent probes. Only COMPLETE runs are
/// inserted (no interruption, no skipped work, no recorder overflow) —
/// a cached entry always replays the full result set and the caller's
/// sink applies its own limit/page semantics, exactly as live execution
/// would.
class ResultCache {
 public:
  struct Options {
    uint64_t max_bytes = 64ull << 20;
    /// Results larger than this are never inserted (one entry must not
    /// evict the whole cache).
    uint64_t max_entry_bytes = 8ull << 20;
  };

  explicit ResultCache(Options options);

  struct Entry {
    Results results;
    /// kTriangle delivers through stats (ExecStats::triangles), not the sink;
    /// replay then copies stats and leaves the sink untouched, matching
    /// live execution.
    bool deliver_payload = true;
    /// The original run's ExecStats (trace_spans cleared). A hit copies
    /// these so the client still sees what the cached run did.
    ExecStats stats;
    uint64_t bytes = 0;
  };

  /// Probes for (version, fingerprint); on a hit replays the payload into
  /// `sink` under a "fanout-emit" span (honouring sink.done() at chunk
  /// granularity) and fills *stats from the entry. Returns false on miss —
  /// including when the entry carries star tuples the sink cannot consume.
  bool Replay(const BatchKey& key, ResultSink& sink, ExecStats* stats,
              TraceRecorder* trace, int32_t trace_parent);

  /// Inserts a complete result. Oversized entries are dropped; the LRU
  /// tail is evicted until the byte cap holds.
  void Insert(const BatchKey& key, Entry entry);

  /// Lazy invalidation sweep: drops every entry whose catalog version
  /// differs from `current_version`. Old-version entries were never
  /// servable to new Prepares (version-keyed probes), so this is purely a
  /// memory release; in-flight old-version queries simply miss and
  /// re-execute. Cheap no-op when the version has not moved since the
  /// last sweep.
  void InvalidateStale(uint64_t current_version);

  uint64_t bytes() const;
  size_t entries() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<BatchKey>::iterator lru_it;
  };

  void EvictToFitLocked();

  const Options options_;
  mutable std::mutex mu_;
  std::unordered_map<BatchKey, Slot, BatchKeyHash> map_;
  std::list<BatchKey> lru_;  // front = most recent
  uint64_t bytes_ = 0;
  uint64_t last_seen_version_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace jpmm

#endif  // JPMM_CORE_QUERY_BATCHER_H_
