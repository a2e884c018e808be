// perfbench — one benchmark run of one workload (see WORKLOADS.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Generates the workload's relations from the seed, loads them into a
// QueryEngine (and a QueryService for service-mix), warms up, then runs the
// workload's queries in a closed loop for S seconds, checking every answer
// against a WCOJ oracle computed once per run at one thread. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics (tracing off);
// --trace 1 alternates traced and untraced operations and reports the
// per-layer metrics. End-to-end metrics are CPU times (see ReportEndToEnd);
// run.py takes the median of several such processes.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/optimizer.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "core/result_sink.h"
#include "core/star_join.h"
#include "core/trace.h"
#include "datagen/presets.h"
#include "layers.h"
#include "matrix/calibration.h"
#include "matrix/cost_model.h"
#include "oracle.h"

namespace perfbench {
namespace {

using jpmm::ExecOptions;
using jpmm::ExecStats;
using jpmm::PreparedQuery;
using jpmm::QueryEngine;
using jpmm::QueryKind;
using jpmm::QuerySpec;
using jpmm::QueryStatus;
using jpmm::TraceRecorder;
using Clock = std::chrono::steady_clock;

// Worker threads of the three engine workloads: one process, one client,
// four threads in total (the pool's workers plus the calling thread).
constexpr int kEngineThreads = 4;
// service-mix clients, one busy thread each. How many requests batch
// together depends on their arrival timing; two clients keep that share,
// and its noise, small.
constexpr int kServiceClients = 2;
// Every kWriteEvery-th service-mix operation replaces `protein`.
constexpr uint64_t kWriteEvery = 200;
constexpr size_t kTopK = 100;
constexpr uint64_t kLimit = 10;
constexpr uint64_t kPageOffset = 1000;
constexpr uint64_t kPageLimit = 100;
// The ledger rule: spans must attribute this share of the execute roots.
constexpr double kMinSpanCoverage = 0.95;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU time in ms on `clock`: CLOCK_PROCESS_CPUTIME_ID (every thread) or
// CLOCK_THREAD_CPUTIME_ID (the calling thread).
double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// Distinct, seed-derived generator seeds per relation.
uint64_t DataSeed(uint64_t seed, uint64_t tag) {
  uint64_t v = seed * 0x9e3779b97f4a7c15ull + tag * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 31)) * 0x94d049bb133111ebull;
  return v ^ (v >> 29);
}

// Peak resident set of this process (ru_maxrss is in KiB on Linux).
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

void PrintJson(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const double v = std::isfinite(r.metrics[i].value) ? r.metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(), v,
                r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void Require(const QueryStatus& st, const char* what) {
  if (!st.ok()) {
    throw std::runtime_error(std::string(what) + ": " + st.message());
  }
}

// ---- Set-up ---------------------------------------------------------------

// Set-up is timed in process CPU time, like the operations (see
// ReportEndToEnd).
class SetupTimer {
 public:
  double Seconds() const {
    return (CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0_) / 1e3;
  }

 private:
  double cpu0_ = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
};

// The parts of setup_s, each timed around the public call into its layer.
struct SetupTimes {
  double generate_s = 0.0;
  double index_build_s = 0.0;
  double calibration_s = 0.0;
  std::vector<double> prepare_ms;
  double warmup_s = 0.0;

  double Total() const {
    double prepare = 0.0;
    for (double ms : prepare_ms) prepare += ms / 1e3;
    return generate_s + index_build_s + calibration_s + prepare + warmup_s;
  }
};

// The preset instances every seed relabels: the repository's default preset
// seed, and the next one for service-mix's second `protein` version.
constexpr uint64_t kInstanceSeed = 42;

// A seed-chosen relabeling of one fixed preset instance: random permutations
// of the x and of the y values. Every seed gets the same sizes, degree
// distributions and answer size, so runs compare the program and not the
// luck of the draw; the seed moves ids, and with them the row order, block
// composition and memory layout the program works on.
jpmm::BinaryRelation Generate(jpmm::DatasetPreset p, double scale,
                              uint64_t instance, uint64_t seed,
                              SetupTimes* setup) {
  const SetupTimer timer;
  const jpmm::BinaryRelation base = jpmm::MakePreset(p, scale, instance);
  std::mt19937_64 rng(seed);
  auto permutation = [&rng](jpmm::Value n) {
    std::vector<jpmm::Value> perm(n);
    for (jpmm::Value i = 0; i < n; ++i) perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), rng);
    return perm;
  };
  const std::vector<jpmm::Value> px = permutation(base.num_x());
  const std::vector<jpmm::Value> py = permutation(base.num_y());
  std::vector<jpmm::Tuple> tuples;
  tuples.reserve(base.size());
  for (const jpmm::Tuple& t : base.tuples()) {
    tuples.push_back({px[t.x], py[t.y]});
  }
  jpmm::BinaryRelation rel(std::move(tuples));
  rel.Finalize();
  setup->generate_s += timer.Seconds();
  return rel;
}

void Load(QueryEngine* engine, const std::string& name,
          jpmm::BinaryRelation rel, SetupTimes* setup) {
  const SetupTimer timer;
  engine->AddRelation(name, std::move(rel));
  // Build the index now, so Prepare times only the statistics.
  engine->catalog().IndexSnapshot(name);
  setup->index_build_s += timer.Seconds();
}

// The optimizer and the block dispatcher measure kernel rates on first use,
// once per process; time that from outside.
double Calibrate() {
  const SetupTimer timer;
  jpmm::MatMulCalibration::Default();
  jpmm::SparseKernelRates::Default();
  return timer.Seconds();
}

PreparedQuery Prepare(QueryEngine* engine, const QuerySpec& spec,
                      std::vector<double>* prepare_ms) {
  PreparedQuery q;
  const SetupTimer timer;
  Require(engine->Prepare(spec, &q), "prepare");
  prepare_ms->push_back(timer.Seconds() * 1e3);
  return q;
}

// ---- Per-operation records --------------------------------------------------

// Achieved kernel work of the traced operations, against the time their
// block spans took and the time the calibrated rates predict for it. A
// block span covers the kernel and the block's own emit scan or gather,
// which the dispatcher's cost formula also prices.
struct RateTally {
  double dense_flops = 0.0;
  double dense_s = 0.0;
  double csr_dense_ops = 0.0;
  double csr_dense_s = 0.0;
  double csr_dense_model_s = 0.0;

  void Merge(const RateTally& o) {
    dense_flops += o.dense_flops;
    dense_s += o.dense_s;
    csr_dense_ops += o.csr_dense_ops;
    csr_dense_s += o.csr_dense_s;
    csr_dense_model_s += o.csr_dense_model_s;
  }
};

// One untraced operation of the timed loop.
struct OpRecord {
  double cpu_ms;     // CPU time it used (see ReportEndToEnd)
  uint64_t results;  // pairs or tuples delivered
  bool p50;          // counts toward cpu_p50_ms
};

struct OpLog {
  std::vector<OpRecord> ops;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  // Untraced latencies per service operation type ("limit", "write", ...).
  std::map<std::string, std::vector<double>> by_type;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t results = 0;
  // Executions that ran (not replayed from the result cache or received
  // as a batch follower): early-exit and partition accounting.
  uint64_t blocks_total = 0;
  uint64_t blocks_skipped = 0;
  uint64_t partition_scheduled = 0;
  uint64_t partition_pruned = 0;
  uint64_t plan_hits = 0;
  uint64_t plans_checked = 0;
  double execute_ms = 0.0;
  double covered_ms = 0.0;
  std::vector<double> prepare_ms;
  std::vector<double> plan_miss_ms;
  std::map<std::string, uint64_t> plans;  // plan record -> executions
  Samples layers;
  RateTally rates;

  void Merge(const OpLog& o) {
    ops.insert(ops.end(), o.ops.begin(), o.ops.end());
    untraced_ms.insert(untraced_ms.end(), o.untraced_ms.begin(),
                       o.untraced_ms.end());
    traced_ms.insert(traced_ms.end(), o.traced_ms.begin(), o.traced_ms.end());
    for (const auto& [type, v] : o.by_type) {
      by_type[type].insert(by_type[type].end(), v.begin(), v.end());
    }
    attempted += o.attempted;
    failed += o.failed;
    results += o.results;
    blocks_total += o.blocks_total;
    blocks_skipped += o.blocks_skipped;
    partition_scheduled += o.partition_scheduled;
    partition_pruned += o.partition_pruned;
    plan_hits += o.plan_hits;
    plans_checked += o.plans_checked;
    execute_ms += o.execute_ms;
    covered_ms += o.covered_ms;
    prepare_ms.insert(prepare_ms.end(), o.prepare_ms.begin(),
                      o.prepare_ms.end());
    plan_miss_ms.insert(plan_miss_ms.end(), o.plan_miss_ms.begin(),
                        o.plan_miss_ms.end());
    for (const auto& [k, n] : o.plans) plans[k] += n;
    layers.Merge(o.layers);
    rates.Merge(o.rates);
  }
};

std::string ThresholdsRecord(const jpmm::Thresholds& t) {
  return "d1=" + std::to_string(t.delta1) + " d2=" + std::to_string(t.delta2);
}

// The plan an execution ran: strategy, thresholds, kernel mix and the
// density-grid signature. `thresholds`, when set, are the ones it ran with
// where ExecStats' two-path plan does not hold them: the star sweep's
// choice, or thresholds pinned in ExecOptions.
std::string PlanRecord(const ExecStats& st, const std::string& thresholds) {
  std::string s = std::string("strategy=") + jpmm::StrategyName(st.executed);
  if (!thresholds.empty()) {
    s += " " + thresholds;
  } else if (st.executed == jpmm::Strategy::kMmJoin) {
    s += " " + ThresholdsRecord(st.plan.thresholds);
  }
  if (st.executed == jpmm::Strategy::kMmJoin) {
    s += " kernels=dense:" + std::to_string(st.kernel_counts.dense) +
         ",csr-dense:" + std::to_string(st.kernel_counts.csr_dense) +
         ",csr-csr:" + std::to_string(st.kernel_counts.csr_csr) +
         " grid=" + st.partition_signature;
  }
  return s;
}

// FNV-1a over the distinct plan records: one number that changes when any
// plan does.
double PlanSignature(const std::map<std::string, uint64_t>& plans) {
  uint32_t h = 2166136261u;
  for (const auto& entry : plans) {
    for (char c : entry.first) h = (h ^ static_cast<uint8_t>(c)) * 16777619u;
    h = (h ^ '\n') * 16777619u;
  }
  return static_cast<double>(h);
}

// Per-layer samples of one traced operation. `complete`: the operation ran
// every heavy block itself (no early exit, cache replay or batch fan-out),
// so its block record and stage spans describe one whole execution.
void RecordTraced(const ExecStats& st, bool star, bool complete, OpLog* log) {
  const SpanSummary s = Summarize(st.trace_spans);
  log->execute_ms += s.execute_ms;
  log->covered_ms += s.covered_ms;
  log->plan_miss_ms.insert(log->plan_miss_ms.end(), s.plan_miss_ms.begin(),
                           s.plan_miss_ms.end());
  Samples& L = log->layers;
  L.Add("matrix.pack_ms", s.Ms("pack"));
  L.Add("matrix.dense_block_ms", s.Ms("block:dense"));
  L.Add("matrix.csr_dense_block_ms", s.Ms("block:csr-dense"));
  L.Add("matrix.csr_csr_block_ms", s.Ms("block:csr-csr"));
  // Executed blocks per kernel: one span each (a density-grid cell that
  // spans several row chunks runs once per chunk).
  L.Add("matrix.dense_blocks", static_cast<double>(s.Count("block:dense")));
  L.Add("matrix.csr_dense_blocks",
        static_cast<double>(s.Count("block:csr-dense")));
  L.Add("matrix.csr_csr_blocks", static_cast<double>(s.Count("block:csr-csr")));
  L.Add("optimizer.threshold_fit_ms", s.Ms("threshold-fit"));
  L.Add("partition.remap_ms", s.Ms("degree-remap"));
  L.Add("join.wcoj_ms", s.Ms("wcoj-full"));
  if (star) {
    L.Add("star.light_ms", s.Ms("light-pass"));
    L.Add("star.heavy_ms", s.Ms("heavy"));
    L.Add("star.sink_finish_ms", s.Ms("sink-finish"));
  } else {
    L.Add("mm_join.light_pass_ms", s.Ms("light-pass"));
    L.Add("mm_join.heavy_ms", s.Ms("heavy"));
    L.Add("mm_join.csr_build_ms", s.Ms("csr-build"));
    L.Add("mm_join.emit_ms", s.Ms("emit-inverse-remap"));
    L.Add("sink.finish_ms", s.Ms("sink-finish"));
  }

  if (!complete) return;

  // Cost model, predicted against measured (two-path MMJoin plans).
  if (!star && st.executed == jpmm::Strategy::kMmJoin) {
    const double est_light = st.plan.est_light_seconds * 1e3;
    const double est_heavy = st.plan.est_heavy_seconds * 1e3;
    L.Add("optimizer.est_light_ms", est_light);
    L.Add("optimizer.est_heavy_ms", est_heavy);
    if (est_light > 0 && s.Ms("light-pass") > 0) {
      L.Add("optimizer.light_model_error_log2",
            std::log2(s.Ms("light-pass") / est_light));
    }
    if (est_heavy > 0 && s.Ms("heavy") > 0) {
      L.Add("optimizer.heavy_model_error_log2",
            std::log2(s.Ms("heavy") / est_heavy));
    }
  }

  // Kernel work from the per-block record (two-path only: the star record
  // in ExecStats carries kernel counts but no block shapes).
  const jpmm::SparseKernelRates& rates = jpmm::SparseKernelRates::Default();
  for (const jpmm::BlockKernelChoice& b : st.block_choices) {
    const double rows = b.row_end - b.row_begin;
    const double cols = b.col_end - b.col_begin;
    if (rows <= 0 || b.density <= 0) continue;
    const double inner = std::round(static_cast<double>(b.nnz) /
                                    (b.density * rows));
    if (b.kernel == jpmm::ProductKernel::kDenseGemm) {
      log->rates.dense_flops += 2.0 * rows * inner * cols;
    } else if (b.kernel == jpmm::ProductKernel::kCsrDense) {
      const double ops = jpmm::SparseProductOps(
          b.nnz, static_cast<uint64_t>(rows), static_cast<uint64_t>(cols));
      log->rates.csr_dense_ops += ops;
      log->rates.csr_dense_model_s += ops / rates.CsrDenseRate(b.density);
    }
  }
  if (!st.block_choices.empty()) {
    log->rates.dense_s += s.Ms("block:dense") / 1e3;
    log->rates.csr_dense_s += s.Ms("block:csr-dense") / 1e3;
  }
}

// Accounting shared by every operation that actually executed.
void RecordExecution(const ExecStats& st, OpLog* log) {
  log->blocks_total += st.heavy_blocks_total;
  log->blocks_skipped += st.heavy_blocks_skipped;
  log->partition_scheduled += st.partition_blocks_scheduled;
  log->partition_pruned += st.partition_blocks_pruned;
  ++log->plans_checked;
  if (st.plan_cache_hit) ++log->plan_hits;
}

// ---- Reporting ----------------------------------------------------------------

void PrintSummary(const Options& opt, const OpLog& log, double wall_s,
                  double tail_pct, const SetupTimes& setup) {
  const std::vector<double>& lat = log.untraced_ms;
  std::printf("workload %s seed %llu: %llu operations in %.3f s, failed %llu "
              "(failed_ratio %.6f)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(log.attempted), wall_s,
              static_cast<unsigned long long>(log.failed),
              Ratio(static_cast<double>(log.failed),
                    static_cast<double>(log.attempted)));
  std::printf("latency p50 %.3f ms, p%.0f %.3f ms over %zu untraced samples "
              "(p10 %.3f, p25 %.3f, p75 %.3f)\n",
              Percentile(lat, 50), tail_pct, Percentile(lat, tail_pct),
              lat.size(), Percentile(lat, 10), Percentile(lat, 25),
              Percentile(lat, 75));
  double prepare_s = 0.0;
  for (double ms : setup.prepare_ms) prepare_s += ms / 1e3;
  std::printf("setup %.3f s: generate %.3f + index %.3f + calibration %.3f + "
              "prepare %.3f + warm-up %.3f\n",
              setup.Total(), setup.generate_s, setup.index_build_s,
              setup.calibration_s, prepare_s, setup.warmup_s);
  for (const auto& [type, v] : log.by_type) {
    std::printf("latency %s: p50 %.3f ms, p90 %.3f ms over %zu samples\n",
                type.c_str(), Percentile(v, 50), Percentile(v, 90), v.size());
  }
  for (const auto& [plan, n] : log.plans) {
    std::printf("plan: %s x%llu\n", plan.c_str(),
                static_cast<unsigned long long>(n));
  }
}

// Every end-to-end metric but setup_s and peak_rss_mb is CPU time: the
// host is shared, and the hypervisor takes 5-16% of its time from a vCPU in
// spells that last minutes, which moved wall-clock latency of the same
// code by up to 58% between runs. CPU time leaves that out.
void ReportEndToEnd(const std::vector<OpRecord>& ops, double tail_pct,
                    const SetupTimes& setup, RunResult* r) {
  std::vector<double> cpu_ms;
  std::vector<double> p50_cpu_ms;
  double cpu_s = 0.0;
  uint64_t results = 0;
  for (const OpRecord& op : ops) {
    cpu_ms.push_back(op.cpu_ms);
    if (op.p50) p50_cpu_ms.push_back(op.cpu_ms);
    cpu_s += op.cpu_ms / 1e3;
    results += op.results;
  }
  std::printf("cpu p50 %.3f ms over %zu samples, p%.0f %.3f ms over %zu "
              "samples, %.3f cpu-s in all\n",
              Percentile(p50_cpu_ms, 50), p50_cpu_ms.size(), tail_pct,
              Percentile(cpu_ms, tail_pct), cpu_ms.size(), cpu_s);
  r->Add("cpu_p50_ms", Percentile(p50_cpu_ms, 50), "ms");
  r->Add("cpu_tail_ms", Percentile(cpu_ms, tail_pct), "ms");
  r->Add("queries_per_cpu_s", Ratio(static_cast<double>(ops.size()), cpu_s),
         "1/cpu_s");
  r->Add("results_per_cpu_s", Ratio(static_cast<double>(results), cpu_s),
         "1/cpu_s");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
  r->Add("setup_s", setup.Total(), "s");
}

// Per-layer metrics shared by every workload. Layers a workload bypasses
// report 0.
void AddPerLayer(const OpLog& log, const SetupTimes& setup,
                 const RegistryDelta& delta,
                 const jpmm::ServiceStats& service, RunResult* r) {
  const Samples& L = log.layers;
  std::vector<double> prepare_ms = setup.prepare_ms;
  prepare_ms.insert(prepare_ms.end(), log.prepare_ms.begin(),
                    log.prepare_ms.end());
  const double ops = static_cast<double>(std::max<uint64_t>(1, log.attempted));

  r->Add("datagen.generate_s", setup.generate_s, "s");
  r->Add("storage.index_build_s", setup.index_build_s, "s");
  r->Add("storage.prepare_ms", Median(prepare_ms), "ms");
  r->Add("storage.reprepares", static_cast<double>(log.prepare_ms.size()),
         "count");
  r->Add("matrix.calibration_s", setup.calibration_s, "s");
  r->Add("optimizer.plan_ms", Median(log.plan_miss_ms), "ms");

  for (const char* name :
       {"matrix.pack_ms", "matrix.dense_block_ms", "matrix.csr_dense_block_ms",
        "matrix.csr_csr_block_ms"}) {
    r->Add(name, L.MedianOf(name), "ms");
  }
  for (const char* name : {"matrix.dense_blocks", "matrix.csr_dense_blocks",
                           "matrix.csr_csr_blocks"}) {
    r->Add(name, L.MedianOf(name), "count");
  }
  const jpmm::SparseKernelRates& rates = jpmm::SparseKernelRates::Default();
  r->Add("matrix.dense_gflops",
         Ratio(log.rates.dense_flops, log.rates.dense_s) / 1e9, "GFLOP/s");
  r->Add("matrix.dense_gflops_calibrated", rates.dense_flops_per_sec / 1e9,
         "GFLOP/s");
  r->Add("matrix.csr_dense_nnz_ops_per_s",
         Ratio(log.rates.csr_dense_ops, log.rates.csr_dense_s), "1/s");
  r->Add("matrix.csr_dense_nnz_ops_per_s_calibrated",
         Ratio(log.rates.csr_dense_ops, log.rates.csr_dense_model_s), "1/s");

  for (const char* name : {"mm_join.light_pass_ms", "mm_join.heavy_ms",
                           "mm_join.csr_build_ms", "mm_join.emit_ms",
                           "optimizer.threshold_fit_ms", "partition.remap_ms",
                           "star.light_ms", "star.heavy_ms",
                           "star.sink_finish_ms", "join.wcoj_ms",
                           "sink.finish_ms", "optimizer.est_light_ms",
                           "optimizer.est_heavy_ms"}) {
    r->Add(name, L.MedianOf(name), "ms");
  }
  r->Add("optimizer.light_model_error_log2",
         L.MedianOf("optimizer.light_model_error_log2"), "log2");
  r->Add("optimizer.heavy_model_error_log2",
         L.MedianOf("optimizer.heavy_model_error_log2"), "log2");
  r->Add("optimizer.plan_cache_hit_ratio",
         Ratio(static_cast<double>(log.plan_hits),
               static_cast<double>(log.plans_checked)),
         "ratio");
  r->Add("optimizer.plan_signature", PlanSignature(log.plans), "id");
  r->Add("optimizer.distinct_plans", static_cast<double>(log.plans.size()),
         "count");

  const double grid_hits = static_cast<double>(
      delta.Counter("jpmm_partition_grid_cache_hits_total"));
  const double grid_builds = static_cast<double>(
      delta.Counter("jpmm_partition_grids_built_total"));
  r->Add("partition.grid_cache_hit_ratio",
         Ratio(grid_hits, grid_hits + grid_builds), "ratio");
  r->Add("partition.blocks_pruned_ratio",
         Ratio(static_cast<double>(log.partition_pruned),
               static_cast<double>(log.partition_pruned +
                                   log.partition_scheduled)),
         "ratio");

  r->Add("pool.tasks",
         static_cast<double>(delta.Counter("jpmm_pool_tasks_total")) / ops,
         "count");
  r->Add("pool.dispatch_wait_us", delta.HistMean("jpmm_pool_dispatch_us"),
         "us");

  r->Add("sink.heavy_blocks_skipped_ratio",
         Ratio(static_cast<double>(log.blocks_skipped),
               static_cast<double>(log.blocks_total)),
         "ratio");

  r->Add("service.queue_wait_ms", delta.HistMean("jpmm_service_queue_wait_ms"),
         "ms");
  r->Add("service.shed", static_cast<double>(service.shed), "count");
  r->Add("service.degraded", static_cast<double>(service.degraded), "count");
  r->Add("service.internal_errors",
         static_cast<double>(service.internal_errors), "count");

  const double leaders =
      static_cast<double>(delta.Counter("jpmm_batch_leader_executions_total"));
  const double followers =
      static_cast<double>(delta.Counter("jpmm_batch_follower_joins_total"));
  r->Add("batcher.window_wait_ms", delta.HistMean("jpmm_batch_window_wait_ms"),
         "ms");
  r->Add("batcher.share_factor", Ratio(leaders + followers, leaders), "ratio");

  const double hits = static_cast<double>(delta.Counter("jpmm_cache_hits_total"));
  const double misses =
      static_cast<double>(delta.Counter("jpmm_cache_misses_total"));
  r->Add("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  r->Add("cache.invalidations",
         static_cast<double>(delta.Counter("jpmm_cache_invalidations_total")),
         "count");
  r->Add("cache.evictions",
         static_cast<double>(delta.Counter("jpmm_cache_evictions_total")),
         "count");

  const double coverage = Ratio(log.covered_ms, log.execute_ms);
  const double untraced_p50 = Percentile(log.untraced_ms, 50);
  const double traced_p50 = Percentile(log.traced_ms, 50);
  r->Add("bench.span_coverage", coverage, "ratio");
  r->Add("bench.trace_overhead_pct",
         untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0.0,
         "%");
  r->Add("bench.traced_ops", static_cast<double>(log.traced_ms.size()),
         "count");
}

// Coverage guard of the traced run: a gap under the execute roots means a
// stage without a span.
void CheckCoverage(const OpLog& log, RunResult* r) {
  if (log.execute_ms <= 0) return;
  const double coverage = log.covered_ms / log.execute_ms;
  std::printf("span coverage %.2f%% of %.1f ms under execute roots\n",
              coverage * 100.0, log.execute_ms);
  if (coverage < kMinSpanCoverage) {
    std::printf("FAIL: spans cover less than %.0f%% of the execute roots\n",
                kMinSpanCoverage * 100.0);
    r->correct = false;
  }
}

void PrintCostModel(const OpLog& log) {
  const Samples& L = log.layers;
  if (L.CountOf("optimizer.est_heavy_ms") == 0) return;
  std::printf("cost model: est_light %.3f ms vs light-pass %.3f ms (log2 %.2f); "
              "est_heavy %.3f ms vs heavy %.3f ms (log2 %.2f)\n",
              L.MedianOf("optimizer.est_light_ms"),
              L.MedianOf("mm_join.light_pass_ms"),
              L.MedianOf("optimizer.light_model_error_log2"),
              L.MedianOf("optimizer.est_heavy_ms"),
              L.MedianOf("mm_join.heavy_ms"),
              L.MedianOf("optimizer.heavy_model_error_log2"));
  const jpmm::SparseKernelRates& rates = jpmm::SparseKernelRates::Default();
  std::printf("kernel rates: dense %.2f GFLOP/s achieved vs %.2f calibrated; "
              "csr-dense %.3g nnz-ops/s achieved vs %.3g calibrated\n",
              Ratio(log.rates.dense_flops, log.rates.dense_s) / 1e9,
              rates.dense_flops_per_sec / 1e9,
              Ratio(log.rates.csr_dense_ops, log.rates.csr_dense_s),
              Ratio(log.rates.csr_dense_ops, log.rates.csr_dense_model_s));
}

// ---- Engine workloads: one client, threads = 4 ------------------------------

struct EngineWorkload {
  const char* name;
  jpmm::DatasetPreset preset;
  double scale;
  QueryKind kind;
  // cpu_tail_ms: the highest percentile with ten samples beyond it in a
  // process's share of the run (about 140 two-path queries, 40 stars).
  double tail_pct;
};

constexpr EngineWorkload kEngineWorkloads[] = {
    {"twopath-mm", jpmm::DatasetPreset::kProtein, 1.5, QueryKind::kTwoPath, 90},
    {"star-mm", jpmm::DatasetPreset::kImage, 0.1, QueryKind::kStar, 75},
    {"twopath-wcoj", jpmm::DatasetPreset::kDblp, 0.5, QueryKind::kTwoPath, 90},
};
constexpr int kStarArity = 3;
static_assert(kStarArity == 3, "ComputeStarOracle enumerates 3-way stars");

RunResult RunEngine(const EngineWorkload& w, const Options& opt) {
  RunResult result;
  SetupTimes setup;
  const bool star = w.kind == QueryKind::kStar;

  jpmm::BinaryRelation rel =
      Generate(w.preset, w.scale, kInstanceSeed, DataSeed(opt.seed, 1), &setup);
  std::optional<jpmm::BinaryRelation> oracle_rel = rel;
  QueryEngine engine;
  Load(&engine, "r", std::move(rel), &setup);
  setup.calibration_s = Calibrate();
  QuerySpec spec;
  spec.kind = w.kind;
  spec.relations = star ? std::vector<std::string>(kStarArity, "r")
                        : std::vector<std::string>{"r"};
  PreparedQuery q = Prepare(&engine, spec, &setup.prepare_ms);

  ExecOptions eo;
  eo.threads = kEngineThreads;
  TraceRecorder warm_trace;
  if (opt.trace) eo.trace = &warm_trace;
  DigestSink warm_sink;
  ExecStats warm_stats;
  const SetupTimer warm_timer;
  Require(engine.Execute(q, warm_sink, eo, &warm_stats), "warm-up");
  setup.warmup_s = warm_timer.Seconds();

  // Oracle: outside setup_s, on the benchmark's own index of the data.
  const jpmm::IndexedRelation oracle_index(*oracle_rel);
  oracle_rel.reset();
  std::string star_thresholds;
  Digest expect;
  if (star) {
    expect = ComputeStarOracle(oracle_index);
    const std::vector<const jpmm::IndexedRelation*> rels(kStarArity,
                                                         &oracle_index);
    star_thresholds = ThresholdsRecord(jpmm::ChooseStarThresholds(rels));
  } else {
    expect = ComputeTwoPathOracle(oracle_index, 0).plain;
  }
  if (!(warm_sink.digest() == expect)) {
    std::printf("FAIL: warm-up answer differs from the oracle\n");
    result.correct = false;
  }

  OpLog log;
  if (opt.trace) log.plan_miss_ms = Summarize(warm_stats.trace_spans).plan_miss_ms;
  const jpmm::MetricsSnapshot before = jpmm::MetricsRegistry::Global().Snapshot();
  const auto start = Clock::now();
  for (uint64_t i = 0; Since(start) < opt.seconds; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    TraceRecorder rec;
    ExecOptions o;
    o.threads = kEngineThreads;
    if (traced) o.trace = &rec;
    DigestSink sink;
    ExecStats st;
    const auto t0 = Clock::now();
    const double cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
    const QueryStatus status = engine.Execute(q, sink, o, &st);
    const double cpu_ms = CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    const double ms = Since(t0) * 1e3;
    const Digest got = sink.digest();
    ++log.attempted;
    log.results += got.count;
    (traced ? log.traced_ms : log.untraced_ms).push_back(ms);
    if (!traced) log.ops.push_back({cpu_ms, got.count, true});
    if (!status.ok() || st.interrupted || !(got == expect)) ++log.failed;
    RecordExecution(st, &log);
    ++log.plans[PlanRecord(st, star_thresholds)];
    if (traced) RecordTraced(st, star, /*complete=*/true, &log);
  }
  const double wall_s = Since(start);
  const RegistryDelta delta(before, jpmm::MetricsRegistry::Global().Snapshot());

  result.attempted = log.attempted;
  result.failed = log.failed;
  PrintSummary(opt, log, wall_s, w.tail_pct, setup);
  if (opt.trace) {
    PrintCostModel(log);
    CheckCoverage(log, &result);
    AddPerLayer(log, setup, delta, jpmm::ServiceStats{}, &result);
  } else {
    ReportEndToEnd(log.ops, w.tail_pct, setup, &result);
  }
  return result;
}

// ---- service-mix: two clients sharing one QueryService --------------------

struct ServiceSpec {
  const char* name;
  const char* relation;
  bool counted;
  size_t popularity;  // Zipf: 12 / rank
  jpmm::Strategy strategy;
};

// The specs pin their plans: the strategy the optimizer picks for each
// relation, and for MMJoin the thresholds it picks at one thread, on the
// uniform block plan with dense GEMM. Left to the optimizer, the plan
// follows the kernel calibration each process measures, and on a shared
// host the plan, and with it the time of a full protein count, changed
// between processes by up to 30%. This workload measures the serving
// layers; twopath-mm measures the planner.
constexpr ServiceSpec kServiceSpecs[] = {
    {"protein", "protein", false, 12, jpmm::Strategy::kMmJoin},
    {"protein+counts", "protein", true, 6, jpmm::Strategy::kMmJoin},
    {"dblp", "dblp", false, 4, jpmm::Strategy::kWcojFull},
    {"dblp+counts", "dblp", true, 3, jpmm::Strategy::kWcojFull},
};
constexpr size_t kNumSpecs = std::size(kServiceSpecs);
constexpr jpmm::Thresholds kServiceThresholds{11, 9};

QuerySpec ServiceQuery(const ServiceSpec& def) {
  QuerySpec spec;
  spec.relations = {def.relation};
  spec.count_witnesses = def.counted;
  spec.strategy = def.strategy;
  return spec;
}

ExecOptions ServiceExec(const ServiceSpec& def) {
  ExecOptions o;
  o.threads = 1;
  if (def.strategy == jpmm::Strategy::kMmJoin) {
    o.thresholds = kServiceThresholds;
    o.partition = jpmm::PartitionMode::kOff;
    o.heavy_path = jpmm::HeavyPathMode::kForceDense;
  }
  return o;
}

enum class RequestType { kLimit, kPage, kTopK, kCount };
constexpr const char* kTypeNames[] = {"limit", "page", "top-k", "count"};

// Draws with fixed proportions: each pass deals every card once, in a
// seeded random order. A run of a few thousand requests then holds the
// request mix exactly, instead of moving the CPU per request by the luck
// of a few dozen full counts.
class Deck {
 public:
  void Add(size_t card, size_t copies) {
    cards_.insert(cards_.end(), copies, card);
  }
  size_t Draw(std::mt19937_64& rng) {
    if (next_ == 0) std::shuffle(cards_.begin(), cards_.end(), rng);
    const size_t card = cards_[next_];
    next_ = (next_ + 1) % cards_.size();
    return card;
  }

 private:
  std::vector<size_t> cards_;
  size_t next_ = 0;
};

// 60% limit-10, 20% page, 10% top-k, 10% count.
Deck TypeDeck() {
  Deck d;
  d.Add(static_cast<size_t>(RequestType::kLimit), 6);
  d.Add(static_cast<size_t>(RequestType::kPage), 2);
  d.Add(static_cast<size_t>(RequestType::kTopK), 1);
  d.Add(static_cast<size_t>(RequestType::kCount), 1);
  return d;
}

// Specs by popularity; top-k ranks by witness count, so its deck holds the
// counted specs only.
Deck SpecDeck(bool counted_only) {
  Deck d;
  for (size_t s = 0; s < kNumSpecs; ++s) {
    if (!counted_only || kServiceSpecs[s].counted) {
      d.Add(s, kServiceSpecs[s].popularity);
    }
  }
  return d;
}

// Which `protein` version (0 or 1) a catalog version holds.
class VersionLog {
 public:
  void Record(uint64_t catalog_version, int id) {
    std::lock_guard<std::mutex> lock(mu_);
    writes_.emplace_back(catalog_version, id);
  }
  int IdAt(uint64_t catalog_version) const {
    std::lock_guard<std::mutex> lock(mu_);
    int id = 0;
    for (const auto& [v, i] : writes_) {
      if (v <= catalog_version) id = i;
    }
    return id;
  }
  std::mutex& writer_mutex() { return writer_mu_; }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<uint64_t, int>> writes_;  // guarded by mu_
  std::mutex writer_mu_;  // serializes writers
};

struct ServiceOracle {
  const jpmm::IndexedRelation* index = nullptr;
  TwoPathOracle answers;
};

bool Member(const jpmm::IndexedRelation& idx, const jpmm::OutPair& p) {
  return Witnesses(idx, p.x, p.z) > 0;
}
bool Member(const jpmm::IndexedRelation& idx, const jpmm::CountedPair& p) {
  return p.count > 0 && Witnesses(idx, p.x, p.z) == p.count;
}

template <typename Sink>
bool MembersOk(const Sink& sink, const jpmm::IndexedRelation& idx) {
  for (const auto& p : sink.pairs()) {
    if (!Member(idx, p)) return false;
  }
  for (const auto& p : sink.counted()) {
    if (!Member(idx, p)) return false;
  }
  return true;
}

struct ServiceRun {
  QueryEngine* engine;
  jpmm::QueryService* service;
  const jpmm::BinaryRelation* protein[2];
  ServiceOracle oracle[3];  // protein v0, protein v1, dblp
  VersionLog versions;
  std::atomic<uint64_t> next_op{0};
  // The first operation number not run: set when the time is up, to the
  // end of the current write cycle, so every process measures whole cycles.
  std::atomic<uint64_t> stop_at{UINT64_MAX};
  Clock::time_point start;
  double seconds = 0.0;
  bool trace = false;
};

void ServiceClient(ServiceRun* run, uint64_t seed, int client, OpLog* log) {
  std::mt19937_64 rng(DataSeed(seed, 100 + static_cast<uint64_t>(client)));
  Deck types = TypeDeck();
  Deck specs = SpecDeck(false);
  Deck counted_specs = SpecDeck(true);
  PreparedQuery prepared[kNumSpecs];
  bool have[kNumSpecs] = {};
  int protein_id[kNumSpecs] = {};
  for (uint64_t i = 0;; ++i) {
    if (Since(run->start) >= run->seconds) {
      const uint64_t end =
          (run->next_op.load() / kWriteEvery + 1) * kWriteEvery;
      uint64_t unset = UINT64_MAX;
      run->stop_at.compare_exchange_strong(unset, end);
    }
    const uint64_t n = run->next_op.fetch_add(1);
    if (n >= run->stop_at.load()) break;
    const bool traced = run->trace && i % 2 == 1;
    auto t0 = Clock::now();
    const double cpu0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
    ++log->attempted;

    if (n % kWriteEvery == 0) {
      // Replace `protein` with its other version: bumps the catalog
      // version, so clients re-Prepare and cached results go stale. Each
      // cycle of kWriteEvery operations starts with one.
      std::lock_guard<std::mutex> lock(run->versions.writer_mutex());
      const int next = 1 - run->versions.IdAt(run->engine->catalog().version());
      const QueryStatus st =
          run->engine->AddRelation("protein", *run->protein[next]);
      run->versions.Record(run->engine->catalog().version(), next);
      if (!st.ok()) ++log->failed;
      const double ms = Since(t0) * 1e3;
      (traced ? log->traced_ms : log->untraced_ms).push_back(ms);
      if (!traced) {
        log->by_type["write"].push_back(ms);
        log->ops.push_back({CpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu0, 0, false});
      }
      continue;
    }

    const auto type = static_cast<RequestType>(types.Draw(rng));
    Deck& deck = type == RequestType::kTopK ? counted_specs : specs;
    const size_t s = deck.Draw(rng);
    const ServiceSpec& def = kServiceSpecs[s];
    if (!have[s] ||
        prepared[s].prepared_version() != run->engine->catalog().version()) {
      const double p0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
      const QueryStatus st =
          run->engine->Prepare(ServiceQuery(def), &prepared[s]);
      log->prepare_ms.push_back(CpuMs(CLOCK_THREAD_CPUTIME_ID) - p0);
      if (!st.ok()) {
        ++log->failed;
        continue;
      }
      have[s] = true;
      protein_id[s] = run->versions.IdAt(prepared[s].prepared_version());
    }
    const ServiceOracle& oracle =
        run->oracle[std::strcmp(def.relation, "dblp") == 0 ? 2 : protein_id[s]];
    const TwoPathOracle& ans = oracle.answers;
    const uint64_t total = ans.plain.count;

    TraceRecorder rec;
    jpmm::ServiceRequest req;
    req.exec = ServiceExec(def);
    if (traced) req.exec.trace = &rec;
    ExecStats st;
    QueryStatus status;
    bool ok = false;
    uint64_t delivered = 0;
    switch (type) {
      case RequestType::kLimit: {
        jpmm::LimitSink sink(kLimit);
        status = run->service->Execute(prepared[s], sink, req, &st);
        delivered = sink.size();
        ok = delivered == std::min(kLimit, total) &&
             MembersOk(sink, *oracle.index);
        break;
      }
      case RequestType::kPage: {
        jpmm::PageSink sink(kPageOffset, kPageLimit);
        status = run->service->Execute(prepared[s], sink, req, &st);
        delivered = sink.size();
        const uint64_t skipped = std::min(kPageOffset, total);
        ok = delivered == std::min(kPageLimit, total - skipped) &&
             sink.skipped() == skipped && MembersOk(sink, *oracle.index);
        break;
      }
      case RequestType::kTopK: {
        jpmm::TopKByCountSink sink(kTopK);
        status = run->service->Execute(prepared[s], sink, req, &st);
        delivered = sink.top().size();
        ok = sink.top() == ans.top;
        break;
      }
      case RequestType::kCount: {
        DigestSink sink;
        status = run->service->Execute(prepared[s], sink, req, &st);
        const Digest got = sink.digest();
        delivered = got.count;
        ok = got == (def.counted ? ans.counted : ans.plain);
        break;
      }
    }
    const double ms = Since(t0) * 1e3;
    (traced ? log->traced_ms : log->untraced_ms).push_back(ms);
    if (!traced) {
      log->by_type[kTypeNames[static_cast<int>(type)]].push_back(ms);
      log->ops.push_back({CpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu0, delivered,
                          type == RequestType::kLimit});
    }
    log->results += delivered;
    if (!status.ok() || st.interrupted || !ok) ++log->failed;

    const bool executed = !st.result_cache_hit && !st.batch_follower;
    if (executed) RecordExecution(st, log);
    const bool complete =
        type == RequestType::kTopK || type == RequestType::kCount;
    if (executed && complete) {
      ++log->plans[std::string(def.name) + "@v" +
                   std::to_string(std::strcmp(def.relation, "dblp") == 0
                                      ? 0
                                      : protein_id[s]) +
                   " " +
                   PlanRecord(st, def.strategy == jpmm::Strategy::kMmJoin
                                      ? ThresholdsRecord(kServiceThresholds)
                                      : "")];
    }
    if (traced) {
      RecordTraced(st, /*star=*/false,
                   executed && complete && st.heavy_blocks_skipped == 0, log);
    }
  }
}

RunResult RunServiceMix(const Options& opt) {
  RunResult result;
  SetupTimes setup;
  const jpmm::BinaryRelation protein0 =
      Generate(jpmm::DatasetPreset::kProtein, 1.5, kInstanceSeed,
               DataSeed(opt.seed, 1), &setup);
  const jpmm::BinaryRelation protein1 =
      Generate(jpmm::DatasetPreset::kProtein, 1.5, kInstanceSeed + 1,
               DataSeed(opt.seed, 2), &setup);
  jpmm::BinaryRelation dblp =
      Generate(jpmm::DatasetPreset::kDblp, 0.5, kInstanceSeed,
               DataSeed(opt.seed, 3), &setup);
  std::optional<jpmm::BinaryRelation> dblp_copy = dblp;
  jpmm::BinaryRelation protein_load = protein0;

  QueryEngine engine;
  Load(&engine, "protein", std::move(protein_load), &setup);
  Load(&engine, "dblp", std::move(dblp), &setup);
  setup.calibration_s = Calibrate();

  jpmm::QueryServiceOptions so;
  so.max_inflight = kServiceClients;
  so.enable_batching = true;
  so.enable_result_cache = true;
  // Room for every spec's complete answer at one catalog version (~90 MB).
  so.result_cache_bytes = 128ull << 20;
  so.result_cache_max_entry_bytes = 64ull << 20;
  jpmm::QueryService service(&engine, so);

  // Warm-up: one full count of every spec (plans, grids, cache entries).
  std::vector<PreparedQuery> warm(kNumSpecs);
  for (size_t s = 0; s < kNumSpecs; ++s) {
    warm[s] = Prepare(&engine, ServiceQuery(kServiceSpecs[s]),
                      &setup.prepare_ms);
  }
  const SetupTimer warm_timer;
  for (size_t s = 0; s < kNumSpecs; ++s) {
    DigestSink sink;
    jpmm::ServiceRequest req;
    req.exec = ServiceExec(kServiceSpecs[s]);
    Require(service.Execute(warm[s], sink, req, nullptr), "warm-up");
  }
  setup.warmup_s = warm_timer.Seconds();

  // Oracle for both protein versions and dblp, outside setup_s.
  const jpmm::IndexedRelation idx0(protein0);
  const jpmm::IndexedRelation idx1(protein1);
  const jpmm::IndexedRelation idx_dblp(*dblp_copy);
  dblp_copy.reset();
  ServiceRun run;
  run.engine = &engine;
  run.service = &service;
  run.protein[0] = &protein0;
  run.protein[1] = &protein1;
  const jpmm::IndexedRelation* indexes[3] = {&idx0, &idx1, &idx_dblp};
  for (int i = 0; i < 3; ++i) {
    run.oracle[i].index = indexes[i];
    run.oracle[i].answers = ComputeTwoPathOracle(*indexes[i], kTopK);
  }
  run.seconds = opt.seconds;
  run.trace = opt.trace;

  std::vector<OpLog> logs(kServiceClients);
  const jpmm::ServiceStats stats_before = service.stats();
  const jpmm::MetricsSnapshot before = jpmm::MetricsRegistry::Global().Snapshot();
  run.start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kServiceClients; ++c) {
      clients.emplace_back(ServiceClient, &run, opt.seed, c, &logs[c]);
    }
    for (std::thread& t : clients) t.join();
  }
  const double wall_s = Since(run.start);
  const RegistryDelta delta(before, jpmm::MetricsRegistry::Global().Snapshot());
  const jpmm::ServiceStats stats_after = service.stats();
  jpmm::ServiceStats service_delta;
  service_delta.shed = stats_after.shed - stats_before.shed;
  service_delta.degraded = stats_after.degraded - stats_before.degraded;
  service_delta.internal_errors =
      stats_after.internal_errors - stats_before.internal_errors;

  OpLog log;
  for (const OpLog& l : logs) log.Merge(l);
  result.attempted = log.attempted;
  result.failed = log.failed;
  PrintSummary(opt, log, wall_s, 99, setup);
  std::printf("service: %s\n", stats_after.ToString().c_str());
  if (opt.trace) {
    PrintCostModel(log);
    CheckCoverage(log, &result);
    AddPerLayer(log, setup, delta, service_delta, &result);
  } else {
    // cpu_p50_ms is over limit-10 requests: the median of all
    // operations sits on the edge between limit-10 cache hits (about half
    // of all operations) and page cache hits, so it jumps with small
    // shifts of the hit share; the median of the majority request type
    // does not.
    ReportEndToEnd(log.ops, 99, setup, &result);
  }
  return result;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = std::stoull(next());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (a == "--trace") {
      opt.trace = next() != "0";
    } else {
      throw std::runtime_error("unknown argument " + a);
    }
  }
  RunResult r;
  bool known = false;
  for (const EngineWorkload& w : kEngineWorkloads) {
    if (opt.workload == w.name) {
      r = RunEngine(w, opt);
      known = true;
    }
  }
  if (opt.workload == "service-mix") {
    r = RunServiceMix(opt);
    known = true;
  }
  if (!known) throw std::runtime_error("unknown workload " + opt.workload);
  PrintJson(r);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
