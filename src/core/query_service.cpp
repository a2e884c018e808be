#include "core/query_service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/timer.h"
#include "core/trace.h"

namespace jpmm {
namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::min();

// Process-wide service metrics, incremented alongside the per-service
// atomics (the atomics stay: stats() is per-service, the registry is
// process-wide and exportable).
struct ServiceMetrics {
  Counter& admitted = MetricsRegistry::Global().GetCounter(
      "jpmm_service_admitted_total");
  Counter& completed = MetricsRegistry::Global().GetCounter(
      "jpmm_service_completed_total");
  Counter& shed =
      MetricsRegistry::Global().GetCounter("jpmm_service_shed_total");
  Counter& queue_timeouts = MetricsRegistry::Global().GetCounter(
      "jpmm_service_queue_timeouts_total");
  Counter& deadline_exceeded = MetricsRegistry::Global().GetCounter(
      "jpmm_service_deadline_exceeded_total");
  Counter& cancelled = MetricsRegistry::Global().GetCounter(
      "jpmm_service_cancelled_total");
  Counter& degraded = MetricsRegistry::Global().GetCounter(
      "jpmm_service_degraded_total");
  Counter& internal_errors = MetricsRegistry::Global().GetCounter(
      "jpmm_service_internal_errors_total");
  Counter& retries = MetricsRegistry::Global().GetCounter(
      "jpmm_service_retries_total");
  Gauge& inflight =
      MetricsRegistry::Global().GetGauge("jpmm_service_inflight");
  Gauge& queued = MetricsRegistry::Global().GetGauge("jpmm_service_queued");
  Histogram& queue_wait_ms = MetricsRegistry::Global().GetHistogram(
      "jpmm_service_queue_wait_ms", DefaultLatencyBoundsMs());
  static ServiceMetrics& Get() {
    static ServiceMetrics m;
    return m;
  }
};

// Queue-wait poll slice: a token can fire from sources that do not notify
// the service's condition variable (explicit RequestCancel, a chained
// parent), so waiters re-check it at least this often.
constexpr std::chrono::milliseconds kQueuePollSlice{5};

QueryStatus TokenStatus(const CancelToken* token, const char* where) {
  if (token != nullptr && token->reason() == CancelToken::Reason::kDeadline) {
    return QueryStatus::DeadlineExceeded(std::string("deadline expired ") +
                                         where);
  }
  return QueryStatus::Cancelled(std::string("cancelled ") + where);
}

}  // namespace

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kInteractive:
      return "interactive";
    case QueryClass::kBatch:
      return "batch";
  }
  return "?";
}

QueryService::QueryService(QueryEngine* engine, QueryServiceOptions options)
    : engine_(engine), options_(options) {
  if (options_.enable_batching) {
    QueryBatcher::Options bo;
    bo.window_ms = std::max<int64_t>(0, options_.batch_window_ms);
    batcher_ = std::make_unique<QueryBatcher>(bo);
  }
  if (options_.enable_result_cache) {
    ResultCache::Options co;
    co.max_bytes = options_.result_cache_bytes;
    co.max_entry_bytes = options_.result_cache_max_entry_bytes;
    cache_ = std::make_unique<ResultCache>(co);
  }
}

QueryStatus QueryService::Admit(const ServiceRequest& req,
                                const CancelToken* token,
                                size_t* waiters_at_admit) {
  const size_t cls = static_cast<size_t>(req.query_class) & 1;
  const size_t class_cap =
      std::min(options_.max_queued_per_class, options_.queue_depth);
  std::unique_lock<std::mutex> lk(mu_);

  // Fast path: nobody waiting and a slot is free — FIFO order is trivially
  // preserved, skip the ticket machinery.
  if (queue_.empty() && inflight_ < options_.max_inflight) {
    ++inflight_;
    ServiceMetrics::Get().inflight.Add();
    *waiters_at_admit = 0;
    return QueryStatus::Ok();
  }

  if (queue_.size() >= options_.queue_depth ||
      queued_per_class_[cls] >= class_cap) {
    const uint64_t depth = queue_.size();
    lk.unlock();
    shed_.fetch_add(1, std::memory_order_release);
    ServiceMetrics::Get().shed.Add();
    // Hint scales with the backlog: a deeper queue needs a longer backoff
    // before a retry has any chance of finding a slot.
    const int64_t retry_after = static_cast<int64_t>(5 * (depth + 1));
    return QueryStatus::Overloaded(
        "admission queue full (" + std::to_string(depth) + " waiting, cap " +
            std::to_string(options_.queue_depth) + ", class " +
            QueryClassName(req.query_class) + " cap " +
            std::to_string(class_cap) + ") — retry after backoff",
        depth, retry_after);
  }

  const uint64_t ticket = next_ticket_++;
  queue_.push_back(ticket);
  ++queued_per_class_[cls];
  ServiceMetrics::Get().queued.Add();
  uint64_t depth = queue_.size();
  uint64_t prev = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > prev && !max_queue_depth_.compare_exchange_weak(
                             prev, depth, std::memory_order_relaxed)) {
  }

  const auto my_turn = [&] {
    return !queue_.empty() && queue_.front() == ticket &&
           inflight_ < options_.max_inflight;
  };
  while (!my_turn()) {
    if (token != nullptr && token->Fired()) {
      // Abandon the ticket so the requests behind it keep their FIFO slot.
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (*it == ticket) {
          queue_.erase(it);
          break;
        }
      }
      --queued_per_class_[cls];
      lk.unlock();
      cv_.notify_all();  // our departure may make the new head admittable
      queue_timeouts_.fetch_add(1, std::memory_order_release);
      ServiceMetrics::Get().queued.Sub();
      ServiceMetrics::Get().queue_timeouts.Add();
      return TokenStatus(token,
                         "while queued for admission (nothing executed)");
    }
    if (token == nullptr) {
      cv_.wait(lk);
    } else {
      auto wake = std::chrono::steady_clock::now() + kQueuePollSlice;
      const auto dl = token->deadline();
      if (dl != kNoDeadline) wake = std::min(wake, dl);
      cv_.wait_until(lk, wake);
    }
  }
  queue_.pop_front();
  --queued_per_class_[cls];
  *waiters_at_admit = queue_.size();
  ++inflight_;
  ServiceMetrics::Get().queued.Sub();
  ServiceMetrics::Get().inflight.Add();
  lk.unlock();
  // More than one slot can free at once; the new head may be admittable
  // right now.
  cv_.notify_all();
  return QueryStatus::Ok();
}

void QueryService::ReleaseSlot() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    --inflight_;
  }
  ServiceMetrics::Get().inflight.Sub();
  cv_.notify_all();
}

QueryStatus QueryService::Execute(PreparedQuery& query, ResultSink& sink,
                                  const ServiceRequest& req, ExecStats* stats) {
  ExecStats local_stats;
  ExecStats* out = stats != nullptr ? stats : &local_stats;
  *out = ExecStats{};

  // Compose the effective token: the deadline_ms convenience chains on top
  // of the caller's token (either alone works too). The deadline clock
  // starts here, so queue wait counts against it.
  CancelToken deadline_token;
  const CancelToken* token = req.exec.cancel;
  if (req.deadline_ms > 0) {
    deadline_token.SetDeadlineAfter(req.deadline_ms);
    if (token != nullptr) deadline_token.Chain(token);
    token = &deadline_token;
  }

  // Root span of this request's stage tree. The engine's "execute" span
  // nests under it, so a service-level trace shows queue wait alongside
  // the execution stages.
  TraceRecorder::Scope request_scope(req.exec.trace, "request",
                                     req.exec.trace_parent);
  const TraceRecorder::SpanId request_id = request_scope.id();

  // Every exit path — shed, queued-deadline, cache hit, batch delivery,
  // completion — closes the root and hands the (fully closed) span tree
  // back through ExecStats.
  auto finish_trace = [&] {
    request_scope.Close();
    if (req.exec.trace != nullptr) out->trace_spans = req.exec.trace->spans();
  };

  const BatchKey key{query.prepared_version(), query.spec_fingerprint()};

  // ---- Result cache probe -----------------------------------------------
  // Before paying for admission: a hit replays the complete cached payload
  // into the caller's sink (its limit/page semantics apply as usual) and
  // never executes. Version-keyed probes cannot return stale data; the
  // sweep below just releases memory held by entries from older catalog
  // versions.
  if (cache_ != nullptr && !(token != nullptr && token->Fired())) {
    TraceRecorder::SpanId probe_span =
        TraceBegin(req.exec.trace, "cache-probe", request_id);
    cache_->InvalidateStale(engine_->catalog().version());
    const bool hit =
        cache_->Replay(key, sink, out, req.exec.trace, probe_span);
    TraceEnd(req.exec.trace, probe_span, hit ? "hit" : "miss");
    if (hit) {
      admitted_.fetch_add(1, std::memory_order_relaxed);
      ServiceMetrics::Get().admitted.Add();
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_release);
      ServiceMetrics::Get().completed.Add();
      finish_trace();
      return QueryStatus::Ok();
    }
  }

  // ---- Batching ---------------------------------------------------------
  // A star query into a pair-only sink fails validation in the engine; keep
  // such requests out of groups so one incapable sink cannot fail a whole
  // group (FanoutSink::supports_tuples is the conjunction over members).
  const bool batchable = batcher_ != nullptr &&
                         (query.spec().kind != QueryKind::kStar ||
                          sink.supports_tuples());
  // The cache tap records the complete post-filter stream of a leader/solo
  // run for insertion (bounded; an overflow just skips the insert).
  std::unique_ptr<RecordingSink> tap;
  if (cache_ != nullptr) {
    tap = std::make_unique<RecordingSink>(options_.result_cache_max_entry_bytes);
  }

  QueryStatus st;
  if (batchable) {
    const QueryBatcher::RunFn run = [&](ResultSink& run_sink,
                                        ExecStats* run_stats) {
      return RunAdmitted(query, run_sink, req, token, request_id, run_stats);
    };
    const QueryBatcher::Result r = batcher_->Execute(
        key, &sink, tap.get(), token, run, out, req.exec.trace, request_id);
    if (r.role == QueryBatcher::Role::kFollower) {
      batch_followers_.fetch_add(1, std::memory_order_relaxed);
      CountFollowerOutcome(r.status);
      finish_trace();
      return r.status;
    }
    if (r.role == QueryBatcher::Role::kDetached) {
      queue_timeouts_.fetch_add(1, std::memory_order_release);
      ServiceMetrics::Get().queue_timeouts.Add();
      finish_trace();
      return TokenStatus(token,
                         "while waiting in the batch window (nothing "
                         "executed)");
    }
    if (r.group_size > 1) {
      batch_leaders_.fetch_add(1, std::memory_order_relaxed);
    }
    st = r.status;
  } else if (tap != nullptr) {
    FanoutSink fan;
    fan.AddTarget(&sink);
    fan.AddTap(tap.get());
    st = RunAdmitted(query, fan, req, token, request_id, out);
  } else {
    st = RunAdmitted(query, sink, req, token, request_id, out);
  }
  MaybeCacheResult(key, query.spec().kind, tap.get(), st, *out);
  finish_trace();
  return st;
}

QueryStatus QueryService::RunAdmitted(PreparedQuery& query, ResultSink& sink,
                                      const ServiceRequest& req,
                                      const CancelToken* token,
                                      int32_t request_id, ExecStats* out) {
  size_t waiters_at_admit = 0;
  WallTimer queue_timer;
  QueryStatus admit;
  {
    TraceRecorder::Scope wait_scope(req.exec.trace, "queue-wait", request_id);
    admit = Admit(req, token, &waiters_at_admit);
  }
  if (MetricsEnabled()) {
    ServiceMetrics::Get().queue_wait_ms.Record(queue_timer.Seconds() * 1e3);
  }
  if (!admit.ok()) return admit;
  struct SlotGuard {
    QueryService* s;
    ~SlotGuard() { s->ReleaseSlot(); }
  } guard{this};
  admitted_.fetch_add(1, std::memory_order_relaxed);
  ServiceMetrics::Get().admitted.Add();

  // The token may have fired between the admission wake-up and here; bail
  // before doing any work so the "nothing executed" contract holds.
  if (token != nullptr && token->Fired()) {
    if (token->reason() == CancelToken::Reason::kDeadline) {
      deadline_exceeded_.fetch_add(1, std::memory_order_release);
      ServiceMetrics::Get().deadline_exceeded.Add();
    } else {
      cancelled_.fetch_add(1, std::memory_order_release);
      ServiceMetrics::Get().cancelled.Add();
    }
    return TokenStatus(token, "before execution started (nothing executed)");
  }

  // ---- Graceful degradation ---------------------------------------------
  // Budget split: every in-flight query gets an even share of the heavy-
  // part memory budget. When the share falls below the MM floor, or the
  // admission queue is backed up, an MM-family query re-plans onto the
  // combinatorial strategy instead of thrashing (or being shed).
  ExecOptions eo = req.exec;
  eo.cancel = token;
  int inflight_now;
  {
    std::lock_guard<std::mutex> lk(mu_);
    inflight_now = inflight_;
  }
  const uint64_t share =
      options_.memory_budget_bytes / static_cast<uint64_t>(std::max(
                                         1, inflight_now));
  eo.max_matrix_bytes = std::min(eo.max_matrix_bytes, share);

  const QuerySpec& spec = query.spec();
  const Strategy effective = eo.strategy_override.value_or(spec.strategy);
  const bool mm_family =
      spec.kind == QueryKind::kTriangle
          ? eo.heavy_path != HeavyPathMode::kForceCsrCsr
          : (effective == Strategy::kAuto || effective == Strategy::kMmJoin);
  DegradeReason degrade = DegradeReason::kNone;
  if (mm_family) {
    if (options_.degrade_queue_threshold > 0 &&
        waiters_at_admit >= options_.degrade_queue_threshold) {
      degrade = DegradeReason::kAdmissionPressure;
    } else if (share < options_.min_mm_bytes) {
      degrade = DegradeReason::kMemoryCap;
    }
  }
  if (degrade != DegradeReason::kNone) {
    if (spec.kind == QueryKind::kTriangle) {
      eo.heavy_path = HeavyPathMode::kForceCsrCsr;
    } else {
      eo.strategy_override = Strategy::kNonMmJoin;
    }
    degraded_.fetch_add(1, std::memory_order_release);
    ServiceMetrics::Get().degraded.Add();
  }
  // Nest the engine's stage tree under this request's root span.
  eo.trace = req.exec.trace;
  eo.trace_parent = request_id;

  QueryStatus st;
  try {
    st = engine_->Execute(query, sink, eo, out);
  } catch (const std::exception& e) {
    internal_errors_.fetch_add(1, std::memory_order_release);
    ServiceMetrics::Get().internal_errors.Add();
    return QueryStatus::Internal(std::string("execution failed: ") + e.what());
  }
  // Execute resets *out, so the degradation record lands afterwards. (The
  // caller closes the request root span and re-copies the span tree, so
  // the returned tree is fully closed — the AllClosed invariant.)
  out->degraded = degrade != DegradeReason::kNone;
  out->degrade_reason = degrade;
  if (!st.ok()) return st;
  if (out->interrupted) {
    if (out->interrupt_reason == InterruptReason::kDeadline) {
      deadline_exceeded_.fetch_add(1, std::memory_order_release);
      ServiceMetrics::Get().deadline_exceeded.Add();
      return QueryStatus::DeadlineExceeded(
          "deadline fired mid-execution; delivered results are an exact "
          "prefix of the full answer (see ExecStats skip counters)");
    }
    cancelled_.fetch_add(1, std::memory_order_release);
    ServiceMetrics::Get().cancelled.Add();
    return QueryStatus::Cancelled(
        "cancelled mid-execution; delivered results are an exact prefix of "
        "the full answer (see ExecStats skip counters)");
  }
  completed_.fetch_add(1, std::memory_order_release);
  ServiceMetrics::Get().completed.Add();
  return QueryStatus::Ok();
}

void QueryService::CountFollowerOutcome(const QueryStatus& st) {
  // A follower shares its leader's execution but is still one served
  // request; mirror the per-request counters so stats() stays meaningful
  // under batching. Ordering matches the leader path — admitted (relaxed)
  // strictly before the outcome (release) — so the documented snapshot
  // invariant holds for followers too. A shed group (leader hit a full
  // queue) counts only shed: nothing was admitted for anyone.
  if (st.code() == StatusCode::kOverloaded) {
    shed_.fetch_add(1, std::memory_order_release);
    ServiceMetrics::Get().shed.Add();
    return;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  ServiceMetrics::Get().admitted.Add();
  switch (st.code()) {
    case StatusCode::kOk:
      completed_.fetch_add(1, std::memory_order_release);
      ServiceMetrics::Get().completed.Add();
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_release);
      ServiceMetrics::Get().deadline_exceeded.Add();
      break;
    case StatusCode::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_release);
      ServiceMetrics::Get().cancelled.Add();
      break;
    case StatusCode::kInternal:
      internal_errors_.fetch_add(1, std::memory_order_release);
      ServiceMetrics::Get().internal_errors.Add();
      break;
    default:
      // Validation errors surface per-request without an outcome counter,
      // exactly as on the unbatched path.
      break;
  }
}

void QueryService::MaybeCacheResult(const BatchKey& key, QueryKind kind,
                                    RecordingSink* tap, const QueryStatus& st,
                                    const ExecStats& stats) {
  if (cache_ == nullptr || tap == nullptr) return;
  // Only COMPLETE runs are cacheable: nothing truncated the execution
  // (deadline/cancel), no work was short-circuited by an early-exiting
  // sink (a limit-driven run records only a prefix), and the tap captured
  // the whole stream.
  if (!st.ok() || stats.interrupted || stats.heavy_blocks_skipped != 0 ||
      stats.light_chunks_skipped != 0 || tap->overflowed()) {
    return;
  }
  ResultCache::Entry entry;
  entry.results = std::move(tap->results());
  // Triangle queries deliver through stats (ExecStats::triangles), not the
  // sink; a replayed hit likewise only copies stats.
  entry.deliver_payload = kind != QueryKind::kTriangle;
  entry.stats = stats;
  cache_->Insert(key, std::move(entry));
}

QueryStatus QueryService::Run(const QuerySpec& spec, ResultSink& sink,
                              const ServiceRequest& req, ExecStats* stats) {
  PreparedQuery q;
  QueryStatus st;
  try {
    st = engine_->Prepare(spec, &q);
  } catch (const std::exception& e) {
    internal_errors_.fetch_add(1, std::memory_order_relaxed);
    return QueryStatus::Internal(std::string("prepare failed: ") + e.what());
  }
  if (!st.ok()) return st;
  return Execute(q, sink, req, stats);
}

std::string ServiceStats::ToString() const {
  std::string s;
  s.reserve(160);
  auto field = [&s](const char* name, uint64_t v) {
    if (!s.empty()) s += ' ';
    s += name;
    s += '=';
    s += std::to_string(v);
  };
  field("admitted", admitted);
  field("completed", completed);
  field("shed", shed);
  field("queue_timeouts", queue_timeouts);
  field("deadline_exceeded", deadline_exceeded);
  field("cancelled", cancelled);
  field("degraded", degraded);
  field("internal_errors", internal_errors);
  field("max_queue_depth", max_queue_depth);
  field("batch_leaders", batch_leaders);
  field("batch_followers", batch_followers);
  field("cache_hits", cache_hits);
  return s;
}

ServiceStats QueryService::stats() const {
  // One acquire pass over the outcome counters FIRST: each outcome
  // increment is a release that happened after its request's admitted_
  // increment, so reading outcomes before admitted_ guarantees
  //   admitted >= completed + deadline_exceeded + cancelled +
  //   internal_errors
  // in every snapshot (see the ServiceStats doc comment).
  ServiceStats s;
  s.completed = completed_.load(std::memory_order_acquire);
  s.shed = shed_.load(std::memory_order_acquire);
  s.queue_timeouts = queue_timeouts_.load(std::memory_order_acquire);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_acquire);
  s.cancelled = cancelled_.load(std::memory_order_acquire);
  s.degraded = degraded_.load(std::memory_order_acquire);
  s.internal_errors = internal_errors_.load(std::memory_order_acquire);
  s.admitted = admitted_.load(std::memory_order_acquire);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.batch_leaders = batch_leaders_.load(std::memory_order_relaxed);
  s.batch_followers = batch_followers_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  return s;
}

MetricsSnapshot QueryService::MetricsSnapshot() const {
  return MetricsRegistry::Global().Snapshot();
}

int QueryService::inflight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return inflight_;
}

size_t QueryService::queued() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

QueryStatus RetryWithBackoff(const std::function<QueryStatus()>& attempt,
                             const RetryOptions& options,
                             const CancelToken* cancel) {
  Rng rng(options.seed != 0 ? options.seed : 1);
  const int attempts = std::max(1, options.max_attempts);
  double backoff = static_cast<double>(std::max<int64_t>(1, options.base_ms));
  QueryStatus st = QueryStatus::Ok();
  for (int a = 0; a < attempts; ++a) {
    if (cancel != nullptr && cancel->Fired()) {
      return TokenStatus(cancel, "before the retry attempt");
    }
    if (a > 0) ServiceMetrics::Get().retries.Add();
    st = attempt();
    if (st.code() != StatusCode::kOverloaded) return st;
    if (a + 1 >= attempts) break;
    // Jittered exponential backoff, floored at the service's retry-after
    // hint: uniform in [b/2, b].
    int64_t b = std::max<int64_t>(static_cast<int64_t>(backoff),
                                  st.retry_after_ms());
    b = std::min(std::max<int64_t>(1, b), std::max<int64_t>(1, options.max_ms));
    const int64_t lo = b / 2;
    const int64_t sleep_ms =
        lo + static_cast<int64_t>(rng.NextBounded(
                 static_cast<uint64_t>(b - lo + 1)));
    const auto wake = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(sleep_ms);
    while (std::chrono::steady_clock::now() < wake) {
      if (cancel != nullptr && cancel->Fired()) {
        return TokenStatus(cancel, "while backing off between retries");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    backoff = std::min(static_cast<double>(options.max_ms),
                       backoff * std::max(1.0, options.multiplier));
  }
  return st;
}

}  // namespace jpmm
