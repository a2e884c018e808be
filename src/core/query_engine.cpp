#include "core/query_engine.h"

#include <algorithm>
#include <functional>
#include <mutex>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "core/optimizer.h"
#include "core/star_join.h"

namespace jpmm {
namespace {

// Process-wide engine metrics (see docs/observability.md). Resolved once;
// the registry returns stable references.
struct EngineMetrics {
  Counter& prepares = MetricsRegistry::Global().GetCounter(
      "jpmm_engine_prepare_total");
  Counter& executes = MetricsRegistry::Global().GetCounter(
      "jpmm_engine_execute_total");
  Counter& plan_hits = MetricsRegistry::Global().GetCounter(
      "jpmm_engine_plan_cache_hits_total");
  Counter& plan_misses = MetricsRegistry::Global().GetCounter(
      "jpmm_engine_plan_cache_misses_total");
  Histogram& execute_ms = MetricsRegistry::Global().GetHistogram(
      "jpmm_engine_execute_ms", DefaultLatencyBoundsMs());
  static EngineMetrics& Get() {
    static EngineMetrics m;
    return m;
  }
};

// ---- SCJ / SSJ adapter sink ---------------------------------------------
//
// Both set joins are filters over the counted two-path self join (§4), so
// the engine runs them as exactly that: the inner pipeline streams counted
// pairs into an adapter, a per-query transform forwards the qualifying
// ones to the user sink, and done() flows back through the adapter — a
// satisfied limit stops the underlying join mid-block.

class FilteredAdapterSink : public ResultSink {
 public:
  /// transform receives every counted pair of the inner join together
  /// with the user shard to (maybe) deliver into. Shared across shards,
  /// so it must be stateless or internally synchronized.
  using Transform = std::function<void(const CountedPair&, Shard*)>;

  FilteredAdapterSink(Transform transform, ResultSink* user)
      : transform_(std::move(transform)), user_(user) {}

  class AdapterShard : public Shard {
   public:
    AdapterShard(const Transform* transform, Shard* out)
        : transform_(transform), out_(out) {}
    void OnPair(const OutPair&) override {}  // inner join always counts
    void OnCountedPair(const CountedPair& p) override {
      (*transform_)(p, out_);
    }

   private:
    const Transform* transform_;
    Shard* out_;
  };

  void Open(int num_shards) override {
    user_->Open(num_shards);
    shards_.clear();
    for (int i = 0; i < num_shards; ++i) {
      shards_.push_back(
          std::make_unique<AdapterShard>(&transform_, &user_->shard(i)));
    }
  }
  Shard& shard(int w) override { return *shards_[static_cast<size_t>(w)]; }
  bool done() const override { return user_->done(); }
  bool may_finish_early() const override { return user_->may_finish_early(); }
  void Finish() override {
    shards_.clear();
    user_->Finish();
  }

 private:
  const Transform transform_;
  ResultSink* user_;
  std::vector<std::unique_ptr<AdapterShard>> shards_;
};

// Containment: count == |set(x)| means set x is contained in set z.
FilteredAdapterSink::Transform ScjTransform(const SetFamily* fam) {
  return [fam](const CountedPair& p, ResultSink::Shard* out) {
    if (p.x != p.z && p.count == fam->SetSize(p.x)) {
      out->OnPair(OutPair{p.x, p.z});
    }
  };
}

// Similarity: the inner join already applied min_count = c; keep each
// unordered pair once (x < z) and drop self pairs.
FilteredAdapterSink::Transform SsjTransform(bool ordered) {
  return [ordered](const CountedPair& p, ResultSink::Shard* out) {
    if (p.x >= p.z) return;
    if (ordered) {
      out->OnCountedPair(p);
    } else {
      out->OnPair(OutPair{p.x, p.z});
    }
  };
}

// Stable per-process hash of the spec's WHAT-fields — the coalescing /
// result-cache key component (see PreparedQuery::spec_fingerprint). HOW
// knobs (threads, kernels, thresholds) are excluded on purpose: the result
// set is invariant across them.
uint64_t SpecFingerprint(const QuerySpec& spec) {
  size_t h = 0x9e3779b97f4a7c15ull;  // arbitrary non-zero seed
  HashCombine(&h, static_cast<uint64_t>(spec.kind));
  HashCombine(&h, spec.relations.size());
  for (const std::string& name : spec.relations) {
    HashCombine(&h, std::hash<std::string>{}(name));
  }
  HashCombine(&h, static_cast<uint64_t>(spec.strategy));
  HashCombine(&h, spec.count_witnesses ? 1 : 0);
  HashCombine(&h, spec.min_count);
  HashCombine(&h, spec.ssj_c);
  HashCombine(&h, spec.ssj_ordered ? 1 : 0);
  return Mix64(h);
}

InterruptReason MapInterruptReason(CancelToken::Reason r) {
  switch (r) {
    case CancelToken::Reason::kDeadline:
      return InterruptReason::kDeadline;
    case CancelToken::Reason::kCancelled:
      return InterruptReason::kCancelled;
    case CancelToken::Reason::kNone:
      break;
  }
  return InterruptReason::kNone;
}

// Sets interrupt_reason from the token that truncated the run; only
// meaningful once stats->interrupted is set.
void FillInterruptReason(const CancelToken* token, ExecStats* stats) {
  if (stats == nullptr || !stats->interrupted) return;
  stats->interrupt_reason = token != nullptr
                                ? MapInterruptReason(token->reason())
                                : InterruptReason::kCancelled;
  if (stats->interrupt_reason == InterruptReason::kNone) {
    // The token un-latched is impossible once a poll observed it fired;
    // defensive default.
    stats->interrupt_reason = InterruptReason::kCancelled;
  }
}

// One single-flight PlanState slot: the stored value when `usable` accepts
// it (*hit = true), else make()'s, stored under the write lock. Racers that
// block on that lock find the winner's value and report hits, so exactly
// one of them misses.
template <class T, class Usable, class Make>
T SingleFlight(std::shared_mutex& mu, std::optional<T>& slot, Usable usable,
               Make make, bool* hit) {
  {
    std::shared_lock<std::shared_mutex> rl(mu);
    *hit = slot && usable(*slot);
    if (*hit) return *slot;
  }
  std::unique_lock<std::shared_mutex> wl(mu);
  *hit = slot && usable(*slot);
  if (!*hit) slot = make();
  return *slot;
}

}  // namespace

const char* StatusCodeName(StatusCode c) {
  switch (c) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid-argument";
    case StatusCode::kNotFound:
      return "not-found";
    case StatusCode::kOverloaded:
      return "overloaded";
    case StatusCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kInternal:
      return "internal";
  }
  return "?";
}

const char* InterruptReasonName(InterruptReason r) {
  switch (r) {
    case InterruptReason::kNone:
      return "none";
    case InterruptReason::kCancelled:
      return "cancelled";
    case InterruptReason::kDeadline:
      return "deadline";
  }
  return "?";
}

const char* DegradeReasonName(DegradeReason r) {
  switch (r) {
    case DegradeReason::kNone:
      return "none";
    case DegradeReason::kMemoryCap:
      return "memory-cap";
    case DegradeReason::kAdmissionPressure:
      return "admission-pressure";
  }
  return "?";
}

const char* QueryKindName(QueryKind k) {
  switch (k) {
    case QueryKind::kTwoPath:
      return "twopath";
    case QueryKind::kStar:
      return "star";
    case QueryKind::kTriangle:
      return "triangle";
    case QueryKind::kScj:
      return "scj";
    case QueryKind::kSsj:
      return "ssj";
  }
  return "?";
}

PreparedQuery::PreparedQuery() = default;
PreparedQuery::~PreparedQuery() = default;
PreparedQuery::PreparedQuery(PreparedQuery&&) noexcept = default;
PreparedQuery& PreparedQuery::operator=(PreparedQuery&&) noexcept = default;

bool PreparedQuery::has_plan() const {
  if (state_ == nullptr) return false;
  std::shared_lock<std::shared_mutex> lock(state_->mu);
  return state_->plan.has_value();
}

PlanChoice PreparedQuery::plan() const {
  if (state_ == nullptr) return PlanChoice{};
  std::shared_lock<std::shared_mutex> lock(state_->mu);
  return state_->plan ? state_->plan->plan : PlanChoice{};
}

uint64_t PreparedQuery::executions() const {
  return state_ == nullptr
             ? 0
             : state_->executions.load(std::memory_order_relaxed);
}

QueryStatus QueryEngine::AddRelation(const std::string& name,
                                     BinaryRelation rel) {
  catalog_.Put(name, std::move(rel));
  return QueryStatus::Ok();
}

QueryStatus QueryEngine::DropRelation(const std::string& name) {
  if (!catalog_.Drop(name)) {
    return QueryStatus::NotFound("unknown relation '" + name +
                                 "' (not in the catalog)");
  }
  return QueryStatus::Ok();
}

QueryStatus QueryEngine::Prepare(const QuerySpec& spec, PreparedQuery* out) {
  if (out == nullptr) return QueryStatus::Error("null PreparedQuery output");

  // ---- Structural validation: everything here is a returned error, not
  // an abort.
  size_t want_min = 1, want_max = 1;
  switch (spec.kind) {
    case QueryKind::kTwoPath:
      want_min = 1;
      want_max = 2;
      break;
    case QueryKind::kStar:
      want_min = 2;
      want_max = 8;
      break;
    default:
      break;
  }
  if (spec.relations.size() < want_min || spec.relations.size() > want_max) {
    return QueryStatus::Error(
        std::string(QueryKindName(spec.kind)) + " query takes " +
        std::to_string(want_min) +
        (want_max == want_min ? "" : ".." + std::to_string(want_max)) +
        " relation name(s), got " + std::to_string(spec.relations.size()));
  }
  if (spec.min_count < 1) return QueryStatus::Error("min_count must be >= 1");
  if (spec.min_count > 1 && !spec.count_witnesses) {
    return QueryStatus::Error(
        "min_count > 1 requires count_witnesses (witness counts are what "
        "the threshold filters on)");
  }
  if (spec.kind == QueryKind::kSsj && spec.ssj_c < 1) {
    return QueryStatus::Error("ssj_c must be >= 1");
  }
  if (spec.kind == QueryKind::kStar &&
      (spec.count_witnesses || spec.min_count > 1)) {
    return QueryStatus::Error(
        "count_witnesses / min_count are not supported for star queries");
  }

  // ---- Resolve + snapshot: indexes (built once, memoized per catalog
  // entry) and operand statistics (the expensive part of planning). ALL
  // names are pinned under one catalog lock hold (Catalog::SnapshotAll),
  // so a multi-relation query sees a consistent cut — a concurrent Put
  // landing between two names can no longer produce a mixed-version view,
  // and the recorded version identifies the cut for the service layer's
  // batching / result-cache coalescing key.
  PreparedQuery q;
  q.spec_ = spec;
  {
    std::string missing;
    if (!catalog_.SnapshotAll(spec.relations, &q.rels_, &q.prepared_version_,
                              &missing)) {
      return QueryStatus::NotFound("unknown relation '" + missing +
                                   "' (not in the catalog)");
    }
  }
  q.fingerprint_ = SpecFingerprint(spec);
  switch (spec.kind) {
    case QueryKind::kTwoPath: {
      const IndexedRelation* r = q.rels_[0].get();
      const IndexedRelation* s =
          q.rels_.size() > 1 ? q.rels_[1].get() : q.rels_[0].get();
      q.stats_ = std::make_unique<TwoPathStats>(*r, *s);
      break;
    }
    case QueryKind::kScj:
    case QueryKind::kSsj: {
      q.family_ = std::make_unique<SetFamily>(*q.rels_[0]);
      q.stats_ = std::make_unique<TwoPathStats>(*q.rels_[0], *q.rels_[0]);
      break;
    }
    default:
      break;
  }
  q.state_ = std::make_unique<PreparedQuery::PlanState>();
  *out = std::move(q);
  if (MetricsEnabled()) EngineMetrics::Get().prepares.Add();
  return QueryStatus::Ok();
}

QueryStatus QueryEngine::Execute(PreparedQuery& query, ResultSink& sink,
                                 const ExecOptions& opts, ExecStats* stats) {
  if (query.rels_.empty() || query.state_ == nullptr) {
    return QueryStatus::Error("PreparedQuery is empty (Prepare it first)");
  }
  if (stats != nullptr) *stats = ExecStats{};  // no cross-execution leakage
  WallTimer timer;
  const QuerySpec& spec = query.spec_;
  PreparedQuery::PlanState& ps = *query.state_;

  // The spec's rules were checked at Prepare; the execution options'
  // are checked here.
  if (opts.threads < 1) {
    return QueryStatus::Error("threads must be >= 1 (got " +
                              std::to_string(opts.threads) + ")");
  }
  // Repeat-execution flag for the paths with no cached plan to win or
  // lose (triangle, star with explicit thresholds). Loaded before the
  // increment; paths that DO plan derive their hit/miss from the plan
  // lock instead, so racing first executions report exactly one miss.
  const bool executed_before =
      ps.executions.load(std::memory_order_relaxed) > 0;

  // Root span of this execution's stage tree: everything downstream hangs
  // under it (the recorder belongs to this call, like the sink).
  TraceRecorder::Scope exec_scope(opts.trace, "execute", opts.trace_parent);
  const TraceRecorder::SpanId exec_id = exec_scope.id();
  bool plan_hit = false;
  // Each case leaves its strategy's record here, and the token whose fired
  // reason explains an interrupted run.
  RunRecord run;
  const CancelToken* stop_token = opts.cancel;
  CancelToken tri_cancel;

  switch (spec.kind) {
    case QueryKind::kTwoPath:
    case QueryKind::kScj:
    case QueryKind::kSsj: {
      const IndexedRelation* r = query.rels_[0].get();
      const IndexedRelation* s =
          query.rels_.size() > 1 ? query.rels_[1].get() : query.rels_[0].get();

      // Plan cache: the optimizer's choice depends on the worker count
      // (parallel efficiency is part of the cost model), so a thread-count
      // change re-plans; anything else is a cache hit.
      bool cache_hit = false;
      PlanChoice plan;
      {
        TraceRecorder::Scope plan_scope(opts.trace, "plan", exec_id);
        plan = SingleFlight(
                   ps.mu, ps.plan,
                   [&](const PreparedQuery::Planned& p) {
                     return p.threads == opts.threads;
                   },
                   [&] {
                     OptimizerOptions oo;
                     oo.threads = opts.threads;
                     return PreparedQuery::Planned{
                         opts.threads,
                         ChooseTwoPathPlan(*r, *s, *query.stats_, oo)};
                   },
                   &cache_hit)
                   .plan;
        plan_scope.Close(cache_hit ? "cache-hit" : "cache-miss");
      }
      plan_hit = cache_hit;

      const Strategy strategy = opts.strategy_override.value_or(spec.strategy);
      MmJoinOptions mo;
      static_cast<ExecContext&>(mo) = opts;
      mo.trace_parent = exec_id;
      mo.thresholds = opts.thresholds;
      mo.operand_cache = &ps.operands;
      if (spec.kind == QueryKind::kTwoPath) {
        mo.count_witnesses = spec.count_witnesses;
        mo.min_count = spec.min_count;
      } else {
        mo.count_witnesses = true;  // both set joins filter on counts
        mo.min_count = spec.kind == QueryKind::kSsj ? spec.ssj_c : 1;
      }
      // The combinatorial strategy balances its own thresholds; derive
      // them once from the cached stats instead of rebuilding stats.
      if (strategy == Strategy::kNonMmJoin && mo.thresholds.delta1 == 0 &&
          mo.thresholds.delta2 == 0) {
        bool hit = false;
        mo.thresholds = SingleFlight(
            ps.mu, ps.nonmm_thresholds, [](const Thresholds&) { return true; },
            [&] { return ChooseNonMmThresholds(*r, *s, *query.stats_); }, &hit);
      }

      std::unique_ptr<FilteredAdapterSink> adapter;
      if (spec.kind == QueryKind::kScj) {
        adapter = std::make_unique<FilteredAdapterSink>(
            ScjTransform(query.family_.get()), &sink);
      } else if (spec.kind == QueryKind::kSsj) {
        adapter = std::make_unique<FilteredAdapterSink>(
            SsjTransform(spec.ssj_ordered), &sink);
      }

      run = RunTwoPath(*r, *s, plan, strategy, mo, adapter ? *adapter : sink);
      if (stats != nullptr) {
        stats->executed = ResolveStrategy(strategy, plan);
        stats->plan = plan;
        stats->plan_cache_hit = cache_hit;
      }
      break;
    }
    case QueryKind::kStar: {
      if (!sink.supports_tuples()) {
        return QueryStatus::Error(
            "this sink does not consume star tuples (supports_tuples() is "
            "false) — use VectorSink / PageSink / CountOnlySink or a "
            "custom sink overriding OnTuple");
      }
      std::vector<const IndexedRelation*> rels;
      rels.reserve(query.rels_.size());
      for (const auto& sp : query.rels_) rels.push_back(sp.get());

      // The thresholds sweep is the star query's "plan"; cache it
      // (single-flight, like the two-path plan) so repeated executions go
      // straight to evaluation.
      const bool explicit_thresholds =
          opts.thresholds.delta1 != 0 || opts.thresholds.delta2 != 0;
      Thresholds star_thresholds{0, 0};
      bool star_cache_hit = explicit_thresholds ? executed_before : false;
      if (!explicit_thresholds) {
        TraceRecorder::Scope plan_scope(opts.trace, "plan", exec_id);
        star_thresholds = SingleFlight(
            ps.mu, ps.star_thresholds, [](const Thresholds&) { return true; },
            [&] { return ChooseStarThresholds(rels); }, &star_cache_hit);
        plan_scope.Close(star_cache_hit ? "cache-hit" : "cache-miss");
      }
      plan_hit = star_cache_hit;
      const Strategy star_strategy =
          opts.strategy_override.value_or(spec.strategy);
      StarJoinOptions so;
      static_cast<ExecContext&>(so) = opts;
      so.trace_parent = exec_id;
      so.operand_cache = &ps.operands;
      so.thresholds = explicit_thresholds ? opts.thresholds : star_thresholds;
      // The WCOJ-full reference evaluates first and then streams (no early
      // production exit on that path).
      auto* star_join = star_strategy == Strategy::kWcojFull ? WcojFullStarJoin
                        : star_strategy == Strategy::kNonMmJoin ? NonMmStarJoin
                                                                : MmStarJoin;
      run = star_join(rels, so, sink);
      if (stats != nullptr) {
        stats->executed = star_strategy == Strategy::kAuto
                              ? Strategy::kMmJoin
                              : star_strategy;
        stats->plan_cache_hit = star_cache_hit;
      }
      break;
    }
    case QueryKind::kTriangle: {
      // A count query: the result is ExecStats::triangles, not a pair
      // stream. The sink still cancels the count when its done() flips (the
      // historical contract), via a local token that also chains the
      // caller's deadline/cancel token without mutating it.
      tri_cancel.WatchSink(&sink);
      if (opts.cancel != nullptr) tri_cancel.Chain(opts.cancel);
      TriangleCountOptions to;
      static_cast<ExecContext&>(to) = opts;
      to.cancel = &tri_cancel;
      to.trace_parent = exec_id;
      plan_hit = executed_before;
      run = CountTrianglesMm(*query.rels_[0], to);
      stop_token = &tri_cancel;
      if (stats != nullptr) stats->plan_cache_hit = executed_before;
      break;
    }
  }
  if (stats != nullptr) {
    static_cast<RunRecord&>(*stats) = std::move(run);
    FillInterruptReason(stop_token, stats);
  }

  ps.executions.fetch_add(1, std::memory_order_relaxed);
  // Close the root before copying so the returned tree is fully closed
  // (the AllClosed invariant holds on the copy too).
  exec_scope.Close();
  if (opts.trace != nullptr && stats != nullptr) {
    stats->trace_spans = opts.trace->spans();
  }
  const double seconds = timer.Seconds();
  if (stats != nullptr) stats->seconds = seconds;
  if (MetricsEnabled()) {
    EngineMetrics& em = EngineMetrics::Get();
    em.executes.Add();
    (plan_hit ? em.plan_hits : em.plan_misses).Add();
    em.execute_ms.Record(seconds * 1e3);
  }
  return QueryStatus::Ok();
}

QueryStatus QueryEngine::Run(const QuerySpec& spec, ResultSink& sink,
                             const ExecOptions& opts, ExecStats* stats) {
  PreparedQuery q;
  QueryStatus st = Prepare(spec, &q);
  if (!st.ok()) return st;
  return Execute(q, sink, opts, stats);
}

}  // namespace jpmm
