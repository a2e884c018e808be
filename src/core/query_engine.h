// QueryEngine — the service-facing facade over the whole library.
//
// One engine object owns a Catalog of named relations and evaluates
// QuerySpecs (two-path | star | triangle | scj | ssj) against it:
//
//   QueryEngine engine;
//   engine.AddRelation("follows", std::move(rel));
//
//   QuerySpec spec;
//   spec.kind = QueryKind::kTwoPath;
//   spec.relations = {"follows"};
//
//   PreparedQuery q;
//   QueryStatus st = engine.Prepare(spec, &q);     // structured errors
//   if (!st.ok()) { ...; }
//
//   PageSink sink(0, 10);                          // the first 10 results
//   ExecOptions exec;
//   exec.threads = 8;
//   ExecStats stats;
//   st = engine.Execute(q, sink, exec, &stats);
//
// Prepare resolves and caches the operand indexes and degree statistics;
// the first Execute runs the cost-based optimizer and caches the
// PlanChoice inside the PreparedQuery, so repeated executions skip
// optimization entirely (stats.plan_cache_hit says which happened).
// Results are pushed into a ResultSink — limit / page / count-only /
// top-k / ordered consumers never pay for full materialization, and the
// sink's done() signal short-circuits the remaining light buckets and
// heavy product blocks (the skip counts land in ExecStats).
//
// Errors (unknown relation names, invalid option combinations) come back
// as QueryStatus values instead of aborting — the abort-on-misuse checks
// remain only on the low-level algorithm entry points.
//
// ---- Thread-safety contract (the multi-client serving mode) -------------
//
// One engine may be hit by many client threads at once:
//
//   - Catalog writers (AddRelation / DropRelation / catalog().Put) and
//     readers (Prepare / Execute) may run concurrently. The catalog is
//     reader-writer locked and entries are copy-on-write snapshots.
//   - A PreparedQuery SNAPSHOTS its relations at Prepare time: replacing
//     or dropping a catalog name mid-flight never tears an in-flight
//     Execute — it keeps evaluating against the data it was prepared on.
//     Re-Prepare to pick up replaced data.
//   - Execute on one shared PreparedQuery is safe from any number of
//     threads. The first executions racing to plan are single-flight: one
//     thread runs the optimizer (and reports plan_cache_hit = false), the
//     others block briefly and reuse the winner's plan.
//   - Each concurrent Execute needs its own ResultSink and ExecStats;
//     sinks are per-call state, not engine state.
//   - Moving a PreparedQuery or the engine while other threads use it is
//     a caller bug (as for any C++ object).

#ifndef JPMM_CORE_QUERY_ENGINE_H_
#define JPMM_CORE_QUERY_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/cancel_token.h"
#include "core/join_project.h"
#include "core/result_sink.h"
#include "core/star_join.h"
#include "core/trace.h"
#include "core/triangle.h"
#include "storage/catalog.h"
#include "storage/set_family.h"
#include "storage/stats.h"

namespace jpmm {

/// Machine-readable outcome classes for QueryStatus. kOk is success;
/// kOverloaded / kDeadlineExceeded / kCancelled are the service-layer
/// robustness outcomes (retryable or caller-initiated, not bugs); the rest
/// are caller or internal errors.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,   // bad spec / option combination
  kNotFound,          // unknown relation name
  kOverloaded,        // admission queue full; retry after a backoff
  kDeadlineExceeded,  // the per-query deadline fired mid-execution
  kCancelled,         // the caller's CancelToken fired mid-execution
  kInternal,          // unexpected execution failure (e.g. injected fault)
};

const char* StatusCodeName(StatusCode c);

/// Structured success-or-error result of an engine call. Carries a code
/// for dispatch plus a human-readable message; kOverloaded additionally
/// carries the observed queue depth and a retry-after hint for backoff.
class QueryStatus {
 public:
  static QueryStatus Ok() { return QueryStatus(); }
  static QueryStatus InvalidArgument(std::string message) {
    return Make(StatusCode::kInvalidArgument, std::move(message));
  }
  static QueryStatus NotFound(std::string message) {
    return Make(StatusCode::kNotFound, std::move(message));
  }
  static QueryStatus Overloaded(std::string message, uint64_t queue_depth,
                                int64_t retry_after_ms) {
    QueryStatus s = Make(StatusCode::kOverloaded, std::move(message));
    s.queue_depth_ = queue_depth;
    s.retry_after_ms_ = retry_after_ms;
    return s;
  }
  static QueryStatus DeadlineExceeded(std::string message) {
    return Make(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static QueryStatus Cancelled(std::string message) {
    return Make(StatusCode::kCancelled, std::move(message));
  }
  static QueryStatus Internal(std::string message) {
    return Make(StatusCode::kInternal, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  /// kOverloaded only: admission queue depth at rejection time.
  uint64_t queue_depth() const { return queue_depth_; }
  /// kOverloaded only: suggested wait before retrying, in milliseconds.
  int64_t retry_after_ms() const { return retry_after_ms_; }

 private:
  static QueryStatus Make(StatusCode code, std::string message) {
    QueryStatus s;
    s.code_ = code;
    s.message_ = std::move(message);
    return s;
  }

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  uint64_t queue_depth_ = 0;
  int64_t retry_after_ms_ = 0;
};

enum class QueryKind {
  kTwoPath,   // pi_{x,z}(R(x,y) JOIN S(z,y))
  kStar,      // pi_{x1..xk}(R1(x1,y) JOIN ... JOIN Rk(xk,y))
  kTriangle,  // triangle count of a symmetric edge relation
  kScj,       // set containment join over one set family
  kSsj,       // set similarity join over one set family
};

const char* QueryKindName(QueryKind k);

/// A declarative query over named catalog relations.
struct QuerySpec {
  QueryKind kind = QueryKind::kTwoPath;
  /// Catalog names. kTwoPath: one (self join) or two; kStar: 2..8 (repeat
  /// a name for the self star); kTriangle/kScj/kSsj: exactly one.
  std::vector<std::string> relations;
  /// Evaluation strategy; kAuto defers to the cost-based optimizer.
  Strategy strategy = Strategy::kAuto;
  /// Two-path: deliver CountedPair witness counts instead of plain pairs.
  bool count_witnesses = false;
  /// Two-path: keep only pairs with >= min_count witnesses (requires
  /// count_witnesses when > 1).
  uint32_t min_count = 1;
  /// SSJ: overlap threshold c >= 1.
  uint32_t ssj_c = 2;
  /// SSJ: deliver overlaps as counted pairs (otherwise plain pairs).
  bool ssj_ordered = false;
};

/// Per-execution knobs (everything about HOW, nothing about WHAT): the
/// execution context (core/exec_context.h) plus two engine-level knobs.
/// A fired `cancel` token truncates the run: Execute still returns Ok (the
/// partial results already delivered are exact), with stats->interrupted
/// set and the reason recorded; the QueryService layer maps interruption
/// onto kDeadlineExceeded / kCancelled statuses. With `trace` set, Execute
/// opens an "execute" root span under `trace_parent` and records the stage
/// tree (plan, light-pass chunks, heavy per-block kernels, sink finish)
/// into the recorder; a copy of the spans also lands in
/// ExecStats::trace_spans. The recorder is per-execution state, like the
/// sink — do not share one across concurrent Execute calls you want to
/// tell apart.
struct ExecOptions : ExecContext {
  /// Explicit thresholds; {0, 0} lets the cached plan decide.
  Thresholds thresholds{0, 0};
  /// When set, overrides the spec's strategy for this execution only —
  /// the degradation hook (QueryService re-plans an MM query onto
  /// kNonMmJoin under memory/admission pressure without touching the
  /// shared PreparedQuery).
  std::optional<Strategy> strategy_override;
};

/// Why an execution was cut short (ExecStats::interrupt_reason).
enum class InterruptReason : uint8_t {
  kNone = 0,
  kCancelled,  // explicit CancelToken::RequestCancel (or watched sink)
  kDeadline,   // the token's deadline fired
};

/// Why an execution was re-planned onto a cheaper strategy
/// (ExecStats::degrade_reason).
enum class DegradeReason : uint8_t {
  kNone = 0,
  kMemoryCap,          // per-query memory share below the MM floor
  kAdmissionPressure,  // admission queue backed up past the threshold
};

const char* InterruptReasonName(InterruptReason r);
const char* DegradeReasonName(DegradeReason r);

/// Execution record: what ran, what the plan was, and what early exit
/// saved. The strategy's own record comes whole (RunRecord,
/// core/heavy_product.h): the thresholds as run, the heavy operand shape,
/// the light/heavy seconds, the triangle count and its split, the heavy
/// product's HeavyRun (operand nnz, per-block kernel choices, density-grid
/// partitioning, heavy block accounting) and the light part's LightRun
/// (chunk-granular for the pair strategies and the triangle count,
/// step-granular for stars; `interrupted` for every strategy). Counters
/// that do not apply to a query kind stay zero. When interrupted, the
/// results delivered before the interruption are exact; the run is partial.
struct ExecStats : RunRecord {
  Strategy executed = Strategy::kMmJoin;
  PlanChoice plan;              // two-path family only
  bool plan_cache_hit = false;  // true: optimization was skipped
  double seconds = 0.0;

  InterruptReason interrupt_reason = InterruptReason::kNone;

  /// True iff the service layer re-planned this execution onto a cheaper
  /// strategy instead of rejecting it (graceful degradation); `executed`
  /// holds the strategy that actually ran.
  bool degraded = false;
  DegradeReason degrade_reason = DegradeReason::kNone;

  /// --- Multi-query batching / result cache (QueryService layer; the
  /// engine itself never sets these) -----------------------------------
  /// True iff this request shared one execution with concurrent identical
  /// requests: the leader ran the single pass into a FanoutSink, followers
  /// received the same stream in their own sinks.
  bool batched = false;
  bool batch_leader = false;    // this request ran the shared pass
  bool batch_follower = false;  // this request received the fan-out
  uint32_t batch_group_size = 0;  // client sinks served by the shared pass
  /// True iff the result was replayed from the service's versioned result
  /// cache without executing; the counters above describe the cached run,
  /// `seconds` the replay.
  bool result_cache_hit = false;

  /// Copy of the span tree recorded during this execution, when
  /// ExecOptions::trace was set (empty otherwise) — embedders get the
  /// trace without holding the recorder. Indices are recorder-relative:
  /// TraceSpan::parent refers to positions in the recorder's full vector,
  /// which equals this vector when the recorder was fresh for this call.
  std::vector<TraceSpan> trace_spans;
};

/// A resolved, reusable query: operand indexes and degree statistics are
/// cached at Prepare time, the optimizer's PlanChoice after the first
/// Execute. Snapshot semantics: a PreparedQuery pins the catalog entries
/// it was prepared on — a later Put/Drop of those names does not affect
/// it; re-Prepare to query replaced data. Execute may be called on one
/// PreparedQuery from many threads concurrently (the plan cache is
/// single-flight); move/destruction must still be externally quiesced.
class PreparedQuery {
 public:
  PreparedQuery();
  ~PreparedQuery();
  PreparedQuery(PreparedQuery&&) noexcept;
  PreparedQuery& operator=(PreparedQuery&&) noexcept;

  const QuerySpec& spec() const { return spec_; }
  /// True once a plan has been cached (after the first Execute).
  bool has_plan() const;
  /// A copy of the cached plan, taken under the plan-cache lock (a
  /// reference would outlive the lock and race concurrent re-planning).
  /// Meaningful only when has_plan(); ExecStats::plan is the
  /// per-execution record.
  PlanChoice plan() const;
  /// Executions served by this prepared query so far.
  uint64_t executions() const;

  /// Catalog::version() at Prepare time — identifies the consistent
  /// multi-relation cut this query's snapshots came from (SnapshotAll).
  /// The batching / result-cache coalescing key is (prepared_version,
  /// spec_fingerprint).
  uint64_t prepared_version() const { return prepared_version_; }
  /// Stable hash of every WHAT-field of the spec (kind, relation names,
  /// strategy, count_witnesses, min_count, ssj knobs). Execution knobs are
  /// deliberately excluded: the result SET is invariant across strategies,
  /// kernels, and thread counts (the differential fuzzer's core property),
  /// so requests differing only in HOW coalesce safely.
  uint64_t spec_fingerprint() const { return fingerprint_; }

 private:
  friend class QueryEngine;

  // A two-path plan and the thread count it was made for (a thread-count
  // change re-plans).
  struct Planned {
    int threads = 0;
    PlanChoice plan;
  };

  // Mutable per-query cache, shared by concurrent Execute calls. Lives
  // behind a unique_ptr so PreparedQuery stays movable. The plan and the
  // thresholds are single-flight under `mu`.
  struct PlanState {
    mutable std::shared_mutex mu;
    std::optional<Planned> plan;
    std::optional<Thresholds> nonmm_thresholds;
    std::optional<Thresholds> star_thresholds;
    std::atomic<uint64_t> executions{0};
    /// The heavy operands (core/heavy_product.h): the threshold fit, the
    /// two-path's M1 / M2 or the star's V / W^T, and their prepared
    /// product. The snapshots are immutable, so what one execution built
    /// serves every later one with the same key. One slot: a prepared
    /// query has one kind.
    HeavyOperandCache operands;
  };

  QuerySpec spec_;
  uint64_t prepared_version_ = 0;
  uint64_t fingerprint_ = 0;
  /// Catalog snapshots: shared ownership keeps the relations alive and
  /// immutable for this query's lifetime (see Catalog::IndexSnapshot).
  std::vector<std::shared_ptr<const IndexedRelation>> rels_;
  std::unique_ptr<TwoPathStats> stats_;  // two-path family
  std::unique_ptr<SetFamily> family_;    // scj / ssj view
  std::unique_ptr<PlanState> state_;
};

/// The facade. Owns the catalog; queries snapshot from it (see
/// PreparedQuery). Safe for concurrent multi-client use — see the
/// thread-safety contract in the file header.
class QueryEngine {
 public:
  QueryEngine() = default;
  explicit QueryEngine(Catalog catalog) : catalog_(std::move(catalog)) {}

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Registers (or replaces) a relation; finalizes it if needed. In-flight
  /// queries on a replaced name keep their snapshot. Never fails (the
  /// status is for signature symmetry with DropRelation).
  QueryStatus AddRelation(const std::string& name, BinaryRelation rel);

  /// Unregisters a relation. Errors if the name is unknown. In-flight
  /// queries keep their snapshot; new Prepares see the drop.
  QueryStatus DropRelation(const std::string& name);

  /// Validates the spec (unknown relation names, bad option combinations
  /// come back as errors), resolves + snapshots indexes and operand stats.
  QueryStatus Prepare(const QuerySpec& spec, PreparedQuery* out);

  /// Executes a prepared query, streaming results into `sink`. The first
  /// execution runs the optimizer and caches the plan; later executions
  /// reuse it (stats->plan_cache_hit). `stats` may be null. Safe to call
  /// concurrently on one shared PreparedQuery (each call needs its own
  /// sink and stats).
  QueryStatus Execute(PreparedQuery& query, ResultSink& sink,
                      const ExecOptions& opts = {},
                      ExecStats* stats = nullptr);

  /// Prepare + Execute in one shot (no plan reuse across calls).
  QueryStatus Run(const QuerySpec& spec, ResultSink& sink,
                  const ExecOptions& opts = {}, ExecStats* stats = nullptr);

 private:
  Catalog catalog_;
};

}  // namespace jpmm

#endif  // JPMM_CORE_QUERY_ENGINE_H_
