// jpmm_cli — command-line front end for the library.
//
// Usage:
//   jpmm_cli <command> [options]
//
// Commands:
//   stats      print Table-2 style characteristics of a dataset
//   twopath    evaluate pi_{x,z}(R JOIN R)
//   star       evaluate the k-relation star self join
//   ssj        set similarity join
//   scj        set containment join
//   bsi        batched boolean set intersection
//   triangles  triangle counting (extension)
//
// Dataset options (every command):
//   --preset NAME     dblp|roadnet|jokes|words|protein|image
//   --scale S         preset scale factor (default 1.0)
//   --input FILE      edge list file instead of a preset
//   --seed N          generator seed (default 42)
//
// Command options:
//   --strategy S      auto|mm|nonmm|wcoj      (twopath, star)
//   --counts          produce witness counts  (twopath)
//   --min-count C     keep pairs with >= C witnesses (twopath)
//   --limit N         stop after N results (PageSink early exit) (twopath)
//   --offset N        with --limit: return page [N, N+limit) (PageSink —
//                     done() fires once the page is full) (twopath)
//   --order-by O      xz|count: ranked delivery (OrderedBySink; `count`
//                     implies --counts; --limit keeps the best N, so
//                     `--order-by count --limit N` is the top-N by
//                     witness count; prints all N, or the first 5
//                     without --limit) (twopath)
//   --count-only      count results without materializing (twopath)
//   --repeat N        execute the prepared query N times (plan-cache
//                     demo; --explain reports the plan cache's and the
//                     operand memo's hit/miss per run) (twopath)
//   --clients N       concurrent driver: N client threads hammer the one
//                     shared engine + prepared query, each running
//                     --repeat executions with its own sink; prints
//                     aggregate throughput (twopath)
//   --deadline-ms D   per-query deadline: the run is truncated (exact
//                     partial results) once D ms elapse, queue wait
//                     included; routes through QueryService (twopath)
//   --max-inflight N  QueryService admission width: at most N concurrent
//                     executions (requires --clients > 1) (twopath)
//   --queue-depth N   QueryService admission queue bound; arrivals beyond
//                     it are shed with `overloaded` (requires
//                     --clients > 1) (twopath)
//   --retry           retry shed (`overloaded`) executions with jittered
//                     exponential backoff honouring the service's
//                     retry-after hint (requires --clients > 1) (twopath)
//   --batch-window-ms W
//                     enable multi-query batching: concurrent identical
//                     requests coalescing within W ms share one execution
//                     whose results fan out to every client (routes through
//                     QueryService; the --clients drill reports the batch
//                     rate) (twopath)
//   --result-cache-mb M
//                     enable the versioned result cache with an M MB
//                     budget: repeat requests replay a cached complete
//                     result without executing; 0 disables (twopath)
//   --no-batching     route through QueryService with batching and the
//                     result cache explicitly off — the A/B baseline for
//                     the flags above, with which it conflicts (twopath)
//   --k K             star arity (default 3)  (star)
//   --algo A          mm|sizeaware|sizeaware++ (ssj)
//                     mm|pretti|limit|pie      (scj)
//   --c C             SSJ overlap threshold (default 2)
//   --ordered         ordered SSJ
//   --batch N         BSI batch size (default 1000)
//   --rate B          BSI arrival rate per second (default 1000)
//   --threads N       worker threads (default 1)
//   --explain         print per-product-block kernel choices (dense / CSR),
//                     measured heavy-part density, plan-cache hit/miss,
//                     blocks skipped by early exit (twopath, star) and a
//                     WCOJ-full self join's mirror (twopath)
//   --heavy-path P    auto|dense|csr-dense|csr-csr kernel override
//                     (twopath, star, triangles)
//   --partition P     auto|off|force: density-adaptive heavy-product
//                     decomposition (degree-remapped block grid); auto
//                     engages it when it prices cheaper, force whenever a
//                     heavy product exists. --explain prints the block
//                     grid + its signature (twopath, star)
//   --trace           record + print the per-query stage span tree
//                     (core/trace.h): queue wait, plan, light chunks,
//                     per-heavy-block kernels, sink finish, with ms and
//                     %-of-wall per stage (twopath, star, triangles)
//   --metrics[=FILE]  after the command, dump the process-wide metrics
//                     registry in Prometheus text format to stdout (or
//                     FILE) (every command)
//   --isa I           portable|avx2|avx512: force the SIMD kernel dispatch
//                     level (common/cpu_features.h). Rejected when the host
//                     does not support I; without the flag the JPMM_ISA env
//                     var, then CPUID detection, decide. --explain reports
//                     the active level (every command)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bsi/bsi.h"
#include "bsi/latency_sim.h"
#include "bsi/workload.h"
#include "common/cpu_features.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "core/trace.h"
#include "core/join_project.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "core/result_sink.h"
#include "datagen/generators.h"
#include "datagen/presets.h"
#include "scj/limit_plus.h"
#include "scj/piejoin.h"
#include "scj/pretti.h"
#include "ssj/size_aware.h"
#include "ssj/size_aware_pp.h"
#include "storage/loader.h"
#include "storage/set_family.h"
#include "storage/stats.h"

using namespace jpmm;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  bool Has(const std::string& key) const { return options.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = options.find(key);
    return it == options.end() ? def : it->second;
  }
  double GetD(const std::string& key, double def) const {
    return Has(key) ? std::atof(Get(key).c_str()) : def;
  }
  long GetI(const std::string& key, long def) const {
    return Has(key) ? std::atol(Get(key).c_str()) : def;
  }
};

std::optional<Args> Parse(int argc, char** argv) {
  // Every option some command reads (see the usage header); a typo or a
  // removed flag fails instead of being silently ignored.
  static const std::set<std::string> kOptions = {
      "algo", "batch", "batch-window-ms", "c", "clients", "communities",
      "community-size", "count-only", "counts", "deadline-ms", "explain",
      "heavy-path", "input", "isa", "k", "limit", "max-inflight", "metrics",
      "min-count", "no-batching", "offset", "order-by", "ordered", "p",
      "partition", "preset", "queue-depth", "rate", "repeat",
      "result-cache-mb", "retry", "scale", "seed", "strategy", "threads",
      "trace"};
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", key.c_str());
      return std::nullopt;
    }
    key = key.substr(2);
    // --key=value form (e.g. --metrics=FILE).
    const size_t eq = key.find('=');
    const std::string name = key.substr(0, eq);
    if (kOptions.count(name) == 0) {
      std::fprintf(stderr, "unknown option '--%s'\n", name.c_str());
      return std::nullopt;
    }
    if (eq != std::string::npos) {
      args.options[name] = key.substr(eq + 1);
      continue;
    }
    // Flags without values.
    if (key == "counts" || key == "ordered" || key == "explain" ||
        key == "count-only" || key == "retry" || key == "metrics" ||
        key == "trace" || key == "no-batching") {
      args.options[key] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for --%s\n", key.c_str());
      return std::nullopt;
    }
    args.options[key] = argv[++i];
  }
  return args;
}

std::optional<BinaryRelation> LoadDataset(const Args& args) {
  if (args.Has("input")) {
    std::string error;
    auto rel = LoadEdgeList(args.Get("input"), &error);
    if (!rel.has_value()) {
      std::fprintf(stderr, "load failed: %s\n", error.c_str());
      return std::nullopt;
    }
    return rel;
  }
  const std::string preset = args.Get("preset", "jokes");
  const double scale = args.GetD("scale", 1.0);
  const auto seed = static_cast<uint64_t>(args.GetI("seed", 42));
  for (DatasetPreset p : AllPresets()) {
    std::string name = PresetName(p);
    for (auto& ch : name) ch = static_cast<char>(std::tolower(ch));
    if (name == preset) return MakePreset(p, scale, seed);
  }
  std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
  return std::nullopt;
}

Strategy ParseStrategy(const std::string& s) {
  if (s == "mm") return Strategy::kMmJoin;
  if (s == "nonmm") return Strategy::kNonMmJoin;
  if (s == "wcoj") return Strategy::kWcojFull;
  return Strategy::kAuto;
}

HeavyPathMode ParseHeavyPath(const std::string& s) {
  if (s == "dense") return HeavyPathMode::kForceDense;
  if (s == "csr-dense") return HeavyPathMode::kForceCsrDense;
  if (s == "csr-csr") return HeavyPathMode::kForceCsrCsr;
  return HeavyPathMode::kAuto;
}

PartitionMode ParsePartitionMode(const std::string& s) {
  if (s == "off") return PartitionMode::kOff;
  if (s == "force") return PartitionMode::kForce;
  return PartitionMode::kAuto;
}

// --isa: install the kernel-dispatch override before any kernel (or
// calibration) runs. Unlike the JPMM_ISA env var — which clamps silently so
// a fleet-wide setting degrades safely — a bad CLI value is loud.
int ApplyIsaFlag(const Args& args) {
  if (!args.Has("isa")) return 0;
  const std::string v = args.Get("isa");
  KernelIsa isa;
  if (!ParseKernelIsa(v, &isa)) {
    std::fprintf(stderr,
                 "unknown --isa '%s' (expected portable|avx2|avx512)\n",
                 v.c_str());
    return 2;
  }
  if (!IsaSupported(isa)) {
    std::fprintf(stderr, "error: --isa %s unsupported on this host (best: %s)\n",
                 v.c_str(), KernelIsaName(DetectBestIsa()));
    return 2;
  }
  SetKernelIsaOverride(isa);
  return 0;
}

// --explain: the dispatch level every SIMD kernel call selects on.
void PrintIsaLine() {
  std::printf("jpmm_isa: %s (detected %s)\n", KernelIsaName(ActiveIsa()),
              KernelIsaName(DetectBestIsa()));
}

// --explain: the heavy product's record — the density-adaptive
// partitioning decision (the signature, "RxC/sK/pJ" or "off"/"uniform", is
// stable across re-executions of the same query + options) and the
// per-block dispatch record.
void PrintHeavyRun(const HeavyRun& run) {
  if (run.partition_used) {
    std::printf("partition: density grid %llu x %llu bands, blocks "
                "scheduled=%llu pruned=%llu (signature %s)\n",
                static_cast<unsigned long long>(run.partition_row_bands),
                static_cast<unsigned long long>(run.partition_col_bands),
                static_cast<unsigned long long>(run.partition_blocks_scheduled),
                static_cast<unsigned long long>(run.partition_blocks_pruned),
                run.partition_signature.c_str());
  } else {
    std::printf("partition: %s\n", run.partition_signature.c_str());
  }
  const HeavyKernelCounts& counts = run.kernel_counts;
  std::printf("heavy part: nnz=%llu density=%.3g blocks: dense=%llu "
              "csr-dense=%llu csr-csr=%llu\n",
              static_cast<unsigned long long>(run.a_nnz), run.heavy_density,
              static_cast<unsigned long long>(counts.dense),
              static_cast<unsigned long long>(counts.csr_dense),
              static_cast<unsigned long long>(counts.csr_csr));
  if (run.symmetric) {
    std::printf("symmetric: upper triangle of M1 * M1^T, %.1f%% of product "
                "cells computed\n",
                run.computed_cell_share * 100.0);
  }
  const std::vector<BlockKernelChoice>& choices = run.block_choices;
  constexpr size_t kMaxLines = 32;
  for (size_t i = 0; i < choices.size(); ++i) {
    if (i == kMaxLines) {
      std::printf("  ... (%zu more blocks)\n", choices.size() - kMaxLines);
      break;
    }
    const BlockKernelChoice& c = choices[i];
    std::printf("  block %zu rows [%u, %u) cols [%u, %u): nnz=%llu "
                "density=%.3g kernel=%s\n",
                i, c.row_begin, c.row_end, c.col_begin, c.col_end,
                static_cast<unsigned long long>(c.nnz), c.density,
                ProductKernelName(c.kernel));
  }
}

// --trace: the recorded span tree plus its attribution summary. Coverage
// is the fraction of the first root span's wall time covered by its direct
// children — the acceptance bar is >= 95% on a two-path query.
void PrintTrace(const TraceRecorder& trace) {
  std::printf("%s", trace.Render().c_str());
  std::printf("trace: %zu spans, %.1f%% of wall attributed to stages%s\n",
              trace.size(), trace.ChildCoverage() * 100.0,
              trace.AllClosed() ? "" : " (UNBALANCED: open spans leaked)");
}

// --metrics[=FILE]: Prometheus-text dump of the process-wide registry.
int DumpMetrics(const std::string& target) {
  const std::string text = MetricsRegistry::Global().PrometheusText();
  if (target.empty() || target == "1") {
    std::printf("%s", text.c_str());
    return 0;
  }
  std::FILE* f = std::fopen(target.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write metrics to '%s'\n",
                 target.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("metrics written to %s\n", target.c_str());
  return 0;
}

int RunStats(const Args& args, const BinaryRelation& rel) {
  (void)args;
  IndexedRelation idx(rel);
  SetFamily fam(idx);
  TwoPathStats tp(idx, idx);
  std::printf("%s\n", fam.Stats().ToString().c_str());
  std::printf("full 2-path join size: %llu (%.1fx the input)\n",
              static_cast<unsigned long long>(tp.full_join_size()),
              static_cast<double>(tp.full_join_size()) /
                  static_cast<double>(std::max<size_t>(1, rel.size())));
  std::printf("index bytes: %zu (%.2f MB)\n", idx.Bytes(),
              static_cast<double>(idx.Bytes()) / (1 << 20));
  return 0;
}

// One client's sink for a twopath run, chosen from the flags. Every
// client thread of --clients builds its own instance — sinks are per-call
// state, the engine and PreparedQuery are the shared part.
struct TwoPathSink {
  enum class Kind { kAll, kCountOnly, kPage, kOrdered };

  Kind kind = Kind::kAll;
  std::unique_ptr<ResultSink> sink;

  static TwoPathSink Make(const Args& args) {
    TwoPathSink s;
    if (args.Has("order-by")) {
      const ResultOrder order = args.Get("order-by") == "count"
                                    ? ResultOrder::kCountDescending
                                    : ResultOrder::kXzAscending;
      const uint64_t lim = args.Has("limit")
                               ? static_cast<uint64_t>(args.GetI("limit", 10))
                               : OrderedBySink::kNoLimit;
      s.kind = Kind::kOrdered;
      s.sink = std::make_unique<OrderedBySink>(order, lim);
    } else if (args.Has("count-only")) {
      s.kind = Kind::kCountOnly;
      s.sink = std::make_unique<CountOnlySink>();
    } else if (args.Has("limit")) {
      s.kind = Kind::kPage;
      s.sink = std::make_unique<PageSink>(
          static_cast<uint64_t>(args.GetI("offset", 0)),
          static_cast<uint64_t>(args.GetI("limit", 10)));
    } else {
      s.kind = Kind::kAll;
      s.sink = std::make_unique<VectorSink>();
    }
    return s;
  }

  size_t Count() const {
    switch (kind) {
      case Kind::kAll:
        return static_cast<VectorSink*>(sink.get())->size();
      case Kind::kCountOnly:
        return static_cast<CountOnlySink*>(sink.get())->count();
      case Kind::kPage:
        return static_cast<PageSink*>(sink.get())->size();
      case Kind::kOrdered:
        return static_cast<OrderedBySink*>(sink.get())->ranked().size();
    }
    return 0;
  }

  const char* Label() const {
    switch (kind) {
      case Kind::kAll:
        return "pairs";
      case Kind::kCountOnly:
        return "pairs (counted only)";
      case Kind::kPage:
        return "pairs (page)";
      case Kind::kOrdered:
        return "pairs (ranked)";
    }
    return "pairs";
  }
};

// The overload-safe driver: any of --deadline-ms / --max-inflight /
// --queue-depth / --retry routes execution through QueryService. With
// --clients > 1 the drill reports per-status outcomes and the latency
// distribution; a single client demonstrates the deadline alone.
int RunTwoPathService(const Args& args, QueryEngine& engine,
                      PreparedQuery& query, const ExecOptions& exec) {
  QueryServiceOptions so;
  so.max_inflight = static_cast<int>(args.GetI("max-inflight", 4));
  so.queue_depth = static_cast<size_t>(args.GetI("queue-depth", 16));
  // Batching + result cache stay opt-in, mirroring the library defaults:
  // --batch-window-ms turns coalescing on, --result-cache-mb > 0 turns the
  // cache on, and --no-batching routes through the service with both off —
  // the A/B baseline whose output is directly comparable to a batched run.
  so.enable_batching = args.Has("batch-window-ms");
  so.batch_window_ms = args.GetI("batch-window-ms", 2);
  const long cache_mb = args.GetI("result-cache-mb", 0);
  so.enable_result_cache = cache_mb > 0;
  so.result_cache_bytes = static_cast<uint64_t>(cache_mb) << 20;
  QueryService service(&engine, so);

  ServiceRequest base_req;
  base_req.deadline_ms = args.GetI("deadline-ms", 0);
  base_req.exec = exec;

  const long repeat = std::max<long>(1, args.GetI("repeat", 1));
  const long clients = std::max<long>(1, args.GetI("clients", 1));

  if (clients == 1) {
    TwoPathSink out = TwoPathSink::Make(args);
    ExecStats stats;
    for (long run = 0; run < repeat; ++run) {
      TraceRecorder trace;
      ServiceRequest run_req = base_req;
      if (args.Has("trace")) run_req.exec.trace = &trace;
      QueryStatus st = service.Execute(query, *out.sink, run_req, &stats);
      const bool truncated = st.code() == StatusCode::kDeadlineExceeded ||
                             st.code() == StatusCode::kCancelled;
      if (!st.ok() && !truncated) {
        std::fprintf(stderr, "error: %s\n", st.message().c_str());
        return 1;
      }
      std::printf("status: %s%s — %zu %s in %.3f s\n",
                  StatusCodeName(st.code()),
                  stats.degraded ? " (degraded)" : "", out.Count(),
                  out.Label(), stats.seconds);
      if (truncated) {
        std::printf("truncated exactly: light chunks %llu/%llu, heavy blocks "
                    "%llu/%llu (skipped work is accounted, delivered results "
                    "are exact)\n",
                    static_cast<unsigned long long>(
                        stats.light_chunks_executed),
                    static_cast<unsigned long long>(stats.light_chunks_total),
                    static_cast<unsigned long long>(
                        stats.heavy_blocks_executed),
                    static_cast<unsigned long long>(stats.heavy_blocks_total));
      }
      if (args.Has("trace")) PrintTrace(trace);
    }
    return 0;
  }

  struct Tally {
    uint64_t ok = 0, shed = 0, deadline = 0, cancelled = 0, degraded = 0;
    std::string fatal;
  };
  std::vector<Tally> tallies(static_cast<size_t>(clients));
  // Shared sharded histogram (common/metrics.h): every finished attempt
  // chain records its latency concurrently; p50/p99 come from the merged
  // snapshot — the same type the service exports process-wide.
  Histogram latency_ms(DefaultLatencyBoundsMs());
  std::vector<size_t> ok_counts;  // result counts of un-truncated runs
  std::mutex agg_mu;

  std::vector<std::thread> threads;
  WallTimer drill;
  for (long c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[static_cast<size_t>(c)];
      for (long run = 0; run < repeat; ++run) {
        TwoPathSink client_sink = TwoPathSink::Make(args);
        ExecStats stats;
        WallTimer t;
        QueryStatus st;
        if (args.Has("retry")) {
          RetryOptions ro;
          ro.seed = 0x9e3779b9u + static_cast<uint64_t>(c) * 131 +
                    static_cast<uint64_t>(run);
          st = RetryWithBackoff(
              [&] {
                return service.Execute(query, *client_sink.sink, base_req,
                                       &stats);
              },
              ro);
        } else {
          st = service.Execute(query, *client_sink.sink, base_req, &stats);
        }
        const double sec = t.Seconds();
        switch (st.code()) {
          case StatusCode::kOk:
            ++tally.ok;
            break;
          case StatusCode::kOverloaded:
            ++tally.shed;
            break;
          case StatusCode::kDeadlineExceeded:
            ++tally.deadline;
            break;
          case StatusCode::kCancelled:
            ++tally.cancelled;
            break;
          default:
            tally.fatal = st.message();
            return;
        }
        if (stats.degraded) ++tally.degraded;
        latency_ms.Record(sec * 1e3);
        if (st.ok()) {
          std::lock_guard<std::mutex> lk(agg_mu);
          ok_counts.push_back(client_sink.Count());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double sec = drill.Seconds();

  for (long c = 0; c < clients; ++c) {
    if (!tallies[static_cast<size_t>(c)].fatal.empty()) {
      std::fprintf(stderr, "client %ld error: %s\n", c,
                   tallies[static_cast<size_t>(c)].fatal.c_str());
      return 1;
    }
  }
  Tally total;
  for (const Tally& t : tallies) {
    total.ok += t.ok;
    total.shed += t.shed;
    total.deadline += t.deadline;
    total.cancelled += t.cancelled;
    total.degraded += t.degraded;
  }
  // Correctness cross-check: every un-truncated execution saw the same
  // result count, loaded or not.
  for (size_t n : ok_counts) {
    if (n != ok_counts[0]) {
      std::fprintf(stderr, "result divergence: %zu vs %zu\n", n,
                   ok_counts[0]);
      return 1;
    }
  }
  const HistogramSnapshot lat = latency_ms.Snapshot();
  std::printf("clients=%ld repeat=%ld max-inflight=%d queue-depth=%zu%s%s: "
              "%.3f s\n",
              clients, repeat, so.max_inflight, so.queue_depth,
              base_req.deadline_ms > 0 ? " deadline" : "",
              args.Has("retry") ? " retry" : "", sec);
  std::printf("outcomes: ok=%llu shed=%llu deadline=%llu cancelled=%llu "
              "degraded=%llu\n",
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.shed),
              static_cast<unsigned long long>(total.deadline),
              static_cast<unsigned long long>(total.cancelled),
              static_cast<unsigned long long>(total.degraded));
  const ServiceStats ss = service.stats();
  std::printf("service: %s\n", ss.ToString().c_str());
  if (so.enable_batching || so.enable_result_cache) {
    // Hit rates over the requests that finished Ok: a follower shared a
    // leader's execution, a cache hit skipped execution entirely.
    const double done = std::max<double>(1.0, static_cast<double>(total.ok));
    std::printf("batching: window=%lld ms leaders=%llu followers=%llu "
                "cache-hits=%llu (batch rate %.1f%%, cache hit rate %.1f%%)\n",
                static_cast<long long>(so.batch_window_ms),
                static_cast<unsigned long long>(ss.batch_leaders),
                static_cast<unsigned long long>(ss.batch_followers),
                static_cast<unsigned long long>(ss.cache_hits),
                100.0 * static_cast<double>(ss.batch_followers) / done,
                100.0 * static_cast<double>(ss.cache_hits) / done);
  }
  std::printf("latency: p50=%.2f ms p99=%.2f ms (%llu samples)\n",
              lat.Percentile(50.0), lat.Percentile(99.0),
              static_cast<unsigned long long>(lat.count));
  if (!ok_counts.empty()) {
    std::printf("every completed execution: %zu results\n", ok_counts[0]);
  }
  return 0;
}

int RunTwoPath(const Args& args, BinaryRelation rel) {
  QueryEngine engine;
  engine.AddRelation("R", std::move(rel));

  QuerySpec spec;
  spec.kind = QueryKind::kTwoPath;
  spec.relations = {"R"};
  spec.strategy = ParseStrategy(args.Get("strategy", "auto"));
  spec.count_witnesses = args.Has("counts") || args.Has("min-count") ||
                         args.Get("order-by") == "count";
  spec.min_count = static_cast<uint32_t>(args.GetI("min-count", 1));

  ExecOptions exec;
  exec.threads = static_cast<int>(args.GetI("threads", 1));
  exec.heavy_path = ParseHeavyPath(args.Get("heavy-path", "auto"));
  exec.partition = ParsePartitionMode(args.Get("partition", "auto"));

  if (args.Has("offset") && !args.Has("limit")) {
    std::fprintf(stderr, "error: --offset requires --limit (a page needs "
                         "both bounds)\n");
    return 1;
  }
  if (args.Has("offset") && (args.Has("count-only") || args.Has("order-by"))) {
    std::fprintf(stderr, "error: --offset only pages the plain result "
                         "stream; it cannot combine with --count-only or "
                         "--order-by\n");
    return 1;
  }
  if (args.Has("order-by")) {
    const std::string order = args.Get("order-by");
    if (order != "xz" && order != "count") {
      std::fprintf(stderr, "error: --order-by takes xz or count, got '%s'\n",
                   order.c_str());
      return 1;
    }
    if (args.Has("count-only")) {
      std::fprintf(stderr, "error: --order-by already defines the consumer; "
                           "it cannot combine with --count-only\n");
      return 1;
    }
  }

  const long repeat = std::max<long>(1, args.GetI("repeat", 1));
  const long clients = std::max<long>(1, args.GetI("clients", 1));
  const bool use_service =
      args.Has("deadline-ms") || args.Has("max-inflight") ||
      args.Has("queue-depth") || args.Has("retry") ||
      args.Has("batch-window-ms") || args.Has("result-cache-mb") ||
      args.Has("no-batching");
  if (args.Has("no-batching") &&
      (args.Has("batch-window-ms") || args.Has("result-cache-mb"))) {
    std::fprintf(stderr, "error: --no-batching disables the subsystem that "
                         "--batch-window-ms / --result-cache-mb tune; pick "
                         "one side\n");
    return 1;
  }
  if (args.Has("batch-window-ms") && args.GetI("batch-window-ms", 0) < 0) {
    std::fprintf(stderr, "error: --batch-window-ms must be >= 0 (0 coalesces "
                         "only requests already waiting)\n");
    return 1;
  }
  if (args.Has("result-cache-mb") && args.GetI("result-cache-mb", 0) < 0) {
    std::fprintf(stderr, "error: --result-cache-mb must be >= 0 (0 disables "
                         "the cache)\n");
    return 1;
  }
  if (args.Has("deadline-ms") && args.GetI("deadline-ms", 0) <= 0) {
    std::fprintf(stderr, "error: --deadline-ms takes a positive number of "
                         "milliseconds\n");
    return 1;
  }
  if (args.Has("max-inflight") && args.GetI("max-inflight", 0) < 1) {
    std::fprintf(stderr, "error: --max-inflight must be >= 1 (the service "
                         "needs at least one execution slot)\n");
    return 1;
  }
  if (args.Has("queue-depth") && args.GetI("queue-depth", 0) < 0) {
    std::fprintf(stderr, "error: --queue-depth must be >= 0\n");
    return 1;
  }
  if ((args.Has("max-inflight") || args.Has("queue-depth")) && clients <= 1) {
    std::fprintf(stderr, "error: --max-inflight / --queue-depth shape the "
                         "admission of concurrent clients; combine with "
                         "--clients > 1\n");
    return 1;
  }
  if (args.Has("retry") && clients <= 1) {
    std::fprintf(stderr, "error: --retry only retries overloaded rejections, "
                         "which need contention; combine with --clients > 1\n");
    return 1;
  }

  PreparedQuery query;
  QueryStatus st = engine.Prepare(spec, &query);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return 1;
  }

  if (use_service) return RunTwoPathService(args, engine, query, exec);

  if (clients > 1) {
    // Concurrent driver: every client shares the engine AND the prepared
    // query (the first executions race through the single-flight planner),
    // each with a private sink per execution.
    std::vector<std::thread> threads;
    std::vector<size_t> counts(static_cast<size_t>(clients), 0);
    std::vector<std::string> errors(static_cast<size_t>(clients));
    WallTimer timer;
    for (long c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (long run = 0; run < repeat; ++run) {
          TwoPathSink client_sink = TwoPathSink::Make(args);
          QueryStatus cst =
              engine.Execute(query, *client_sink.sink, exec, nullptr);
          if (!cst.ok()) {
            errors[static_cast<size_t>(c)] = cst.message();
            return;
          }
          counts[static_cast<size_t>(c)] = client_sink.Count();
        }
      });
    }
    for (auto& t : threads) t.join();
    const double sec = timer.Seconds();
    for (long c = 0; c < clients; ++c) {
      if (!errors[static_cast<size_t>(c)].empty()) {
        std::fprintf(stderr, "client %ld error: %s\n", c,
                     errors[static_cast<size_t>(c)].c_str());
        return 1;
      }
    }
    const double total = static_cast<double>(clients * repeat);
    std::printf("clients=%ld repeat=%ld: %.0f executions in %.3f s "
                "(%.1f q/s aggregate)\n",
                clients, repeat, total, sec, total / sec);
    for (long c = 0; c < clients; ++c) {
      if (counts[static_cast<size_t>(c)] != counts[0]) {
        std::fprintf(stderr,
                     "client %ld saw %zu results, client 0 saw %zu\n", c,
                     counts[static_cast<size_t>(c)], counts[0]);
        return 1;
      }
    }
    std::printf("every client: %zu results\n", counts[0]);
    return 0;
  }

  TwoPathSink out = TwoPathSink::Make(args);
  ExecStats stats;
  for (long run = 0; run < repeat; ++run) {
    TraceRecorder trace;
    ExecOptions run_exec = exec;
    if (args.Has("trace")) run_exec.trace = &trace;
    st = engine.Execute(query, *out.sink, run_exec, &stats);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.message().c_str());
      return 1;
    }
    if (run == 0) {
      std::printf("plan: %s\n", stats.plan.ToString().c_str());
      std::printf("executed: %s\n", StrategyName(stats.executed));
    }
    std::printf("output: %zu %s in %.3f s\n", out.Count(), out.Label(),
                stats.seconds);
    if (args.Has("explain")) {
      std::printf("plan cache: %s\n", stats.plan_cache_hit ? "hit" : "miss");
      std::printf("operand memo: %s, %.1f MB resident\n",
                  stats.operand_cache_hit ? "hit" : "miss",
                  static_cast<double>(stats.operand_cache_bytes) / 1e6);
      std::printf("early exit: light chunks skipped=%llu, heavy blocks "
                  "executed=%llu/%llu skipped=%llu\n",
                  static_cast<unsigned long long>(stats.light_chunks_skipped),
                  static_cast<unsigned long long>(stats.heavy_blocks_executed),
                  static_cast<unsigned long long>(stats.heavy_blocks_total),
                  static_cast<unsigned long long>(stats.heavy_blocks_skipped));
    }
    if (args.Has("trace")) PrintTrace(trace);
  }
  if (out.kind == TwoPathSink::Kind::kPage) {
    auto* page = static_cast<PageSink*>(out.sink.get());
    std::printf("page [%llu, %llu): %zu results, %llu skipped exactly\n",
                static_cast<unsigned long long>(page->offset()),
                static_cast<unsigned long long>(page->offset() +
                                                page->limit()),
                page->size(),
                static_cast<unsigned long long>(page->skipped()));
  } else if (out.kind == TwoPathSink::Kind::kOrdered) {
    auto* ordered = static_cast<OrderedBySink*>(out.sink.get());
    // With --limit every ranked pair is the answer; unbounded, the head.
    const size_t show = args.Has("limit")
                            ? ordered->ranked().size()
                            : std::min<size_t>(5, ordered->ranked().size());
    std::printf("order: %s (showing %zu of %zu)\n",
                ResultOrderName(ordered->order()), show,
                ordered->ranked().size());
    for (size_t i = 0; i < show; ++i) {
      const CountedPair& p = ordered->ranked()[i];
      std::printf("  (%u, %u) witnesses %u\n", p.x, p.z, p.count);
    }
  }
  if (args.Has("explain")) {
    PrintIsaLine();
    PrintHeavyRun(stats);
    if (stats.mirrored) std::printf("symmetric: mirrored wcoj-full\n");
  }
  return 0;
}

int RunStar(const Args& args, BinaryRelation rel) {
  const long k = args.GetI("k", 3);
  if (k < 2 || k > 8) {
    std::fprintf(stderr, "--k must be in [2, 8]\n");
    return 1;
  }
  QueryEngine engine;
  engine.AddRelation("R", std::move(rel));
  QuerySpec spec;
  spec.kind = QueryKind::kStar;
  spec.relations.assign(static_cast<size_t>(k), "R");
  spec.strategy = ParseStrategy(args.Get("strategy", "auto"));
  ExecOptions exec;
  exec.threads = static_cast<int>(args.GetI("threads", 1));
  exec.heavy_path = ParseHeavyPath(args.Get("heavy-path", "auto"));
  exec.partition = ParsePartitionMode(args.Get("partition", "auto"));
  TraceRecorder trace;
  if (args.Has("trace")) exec.trace = &trace;

  CountOnlySink sink;
  ExecStats stats;
  WallTimer timer;
  const QueryStatus st = engine.Run(spec, sink, exec, &stats);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return 1;
  }
  std::printf("star k=%ld: %llu tuples in %.3f s (executed %s, light steps "
              "%llu/%llu, heavy blocks %llu/%llu)\n",
              k, static_cast<unsigned long long>(sink.count()),
              timer.Seconds(), StrategyName(stats.executed),
              static_cast<unsigned long long>(stats.light_chunks_executed),
              static_cast<unsigned long long>(stats.light_chunks_total),
              static_cast<unsigned long long>(stats.heavy_blocks_executed),
              static_cast<unsigned long long>(stats.heavy_blocks_total));
  if (args.Has("explain")) {
    PrintIsaLine();
    PrintHeavyRun(stats);
  }
  if (args.Has("trace")) PrintTrace(trace);
  return 0;
}

// Runs a set-join spec over `rel` through QueryEngine into `sink`: the
// served path of the `mm` algorithm of ssj and scj. Prints the status and
// returns false on an error (e.g. --c 0).
bool RunSetJoin(BinaryRelation rel, QuerySpec spec, int threads,
                ResultSink& sink) {
  QueryEngine engine;
  engine.AddRelation("R", std::move(rel));
  spec.relations = {"R"};
  ExecOptions exec;
  exec.threads = threads;
  const QueryStatus st = engine.Run(spec, sink, exec);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s (%s)\n", st.message().c_str(),
                 StatusCodeName(st.code()));
  }
  return st.ok();
}

int RunSsj(const Args& args, BinaryRelation rel) {
  SsjOptions opts;
  opts.c = static_cast<uint32_t>(std::max<long>(0, args.GetI("c", 2)));
  opts.threads = static_cast<int>(args.GetI("threads", 1));
  opts.ordered = args.Has("ordered");
  const std::string algo = args.Get("algo", "mm");
  WallTimer timer;
  SsjResult res;
  if (algo == "sizeaware" || algo == "sizeaware++") {
    if (opts.c < 1) {
      std::fprintf(stderr, "error: --c must be >= 1\n");
      return 1;
    }
    IndexedRelation idx(rel);
    SetFamily fam(idx);
    res = algo == "sizeaware" ? SizeAwareJoin(fam, opts)
                              : SizeAwarePlusPlus(fam, opts);
  } else {
    QuerySpec spec;
    spec.kind = QueryKind::kSsj;
    spec.ssj_c = opts.c;
    spec.ssj_ordered = opts.ordered;
    VectorSink sink;
    if (!RunSetJoin(std::move(rel), spec, opts.threads, sink)) return 1;
    res = ToSsjResult(sink, opts.ordered);
  }
  std::printf("ssj c=%u algo=%s: %zu pairs in %.3f s\n", opts.c, algo.c_str(),
              res.size(), timer.Seconds());
  if (opts.ordered && !res.empty()) {
    std::printf("top pair: (%u, %u) overlap %u\n", res[0].a, res[0].b,
                res[0].overlap);
  }
  return 0;
}

int RunScj(const Args& args, BinaryRelation rel) {
  ScjOptions opts;
  opts.threads = static_cast<int>(args.GetI("threads", 1));
  const std::string algo = args.Get("algo", "mm");
  WallTimer timer;
  ScjResult res;
  if (algo == "pretti" || algo == "limit" || algo == "pie") {
    IndexedRelation idx(rel);
    SetFamily fam(idx);
    res = algo == "pretti"  ? PrettiJoin(fam, opts)
          : algo == "limit" ? LimitPlusJoin(fam, opts)
                            : PieJoin(fam, opts);
  } else {
    QuerySpec spec;
    spec.kind = QueryKind::kScj;
    VectorSink sink;
    if (!RunSetJoin(std::move(rel), spec, opts.threads, sink)) return 1;
    res = ToScjResult(sink);
  }
  std::printf("scj algo=%s: %zu containments in %.3f s\n", algo.c_str(),
              res.size(), timer.Seconds());
  return 0;
}

int RunBsi(const Args& args, const BinaryRelation& rel) {
  IndexedRelation idx(rel);
  SetFamily fam(idx);
  const auto batch_size = static_cast<size_t>(args.GetI("batch", 1000));
  const double rate = args.GetD("rate", 1000.0);
  BsiOptions opts;
  opts.threads = static_cast<int>(args.GetI("threads", 1));
  auto batch = SampleBsiWorkload(fam, fam, batch_size, 7);
  WallTimer timer;
  auto answers = BsiAnswerBatchMm(fam, fam, batch, opts);
  const double sec = timer.Seconds();
  size_t positive = 0;
  for (uint8_t a : answers) positive += a;
  const auto est = EstimateBsiLatency(rate, batch_size, sec);
  std::printf("bsi batch=%zu: %zu/%zu intersecting, batch time %.3f s\n",
              batch_size, positive, answers.size(), sec);
  std::printf("avg delay %.3f s, machines %.0f (B = %.0f q/s)\n",
              est.avg_delay_seconds, est.machines, rate);
  return 0;
}

int RunTriangles(const Args& args, const BinaryRelation& rel) {
  // Bipartite set-element relations are triangle-free; with --input we
  // symmetrize the given graph, otherwise we generate an Example-1 style
  // community graph (--communities, --community-size, --p).
  BinaryRelation sym;
  if (args.Has("input")) {
    for (const Tuple& t : rel.tuples()) {
      sym.Add(t.x, t.y);
      sym.Add(t.y, t.x);
    }
    sym.Finalize();
  } else {
    sym = CommunityGraph(
        static_cast<uint32_t>(args.GetI("communities", 4)),
        static_cast<uint32_t>(args.GetI("community-size", 200)),
        args.GetD("p", 0.5), static_cast<uint64_t>(args.GetI("seed", 42)));
  }
  QueryEngine engine;
  engine.AddRelation("G", std::move(sym));
  QuerySpec spec;
  spec.kind = QueryKind::kTriangle;
  spec.relations = {"G"};
  ExecOptions exec;
  exec.threads = static_cast<int>(args.GetI("threads", 1));
  exec.heavy_path = ParseHeavyPath(args.Get("heavy-path", "auto"));
  TraceRecorder trace;
  if (args.Has("trace")) exec.trace = &trace;
  // A triangle query delivers its count through the stats; the sink only
  // satisfies the engine's signature.
  CountOnlySink sink;
  ExecStats stats;
  WallTimer timer;
  const QueryStatus st = engine.Run(spec, sink, exec, &stats);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return 1;
  }
  std::printf("triangles: %llu (light %llu, heavy %llu; delta %llu) in "
              "%.3f s\n",
              static_cast<unsigned long long>(stats.triangles),
              static_cast<unsigned long long>(stats.light_triangles),
              static_cast<unsigned long long>(stats.heavy_triangles),
              static_cast<unsigned long long>(
                  stats.adjusted_thresholds.delta1),
              timer.Seconds());
  if (args.Has("trace")) PrintTrace(trace);
  return 0;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: jpmm_cli "
               "<stats|twopath|star|ssj|scj|bsi|triangles> [options]\n"
               "see the header of tools/jpmm_cli.cpp for the option list\n");
}

}  // namespace

int main(int argc, char** argv) {
  auto args = Parse(argc, argv);
  if (!args.has_value()) {
    PrintUsage();
    return 2;
  }
  // Execution failures — including FailPoints armed via JPMM_FAILPOINTS —
  // come back as a structured error line, not an abort.
  try {
    if (const int irc = ApplyIsaFlag(*args); irc != 0) return irc;
    auto rel = LoadDataset(*args);
    if (!rel.has_value()) return 1;

    int rc = -1;
    if (args->command == "stats") rc = RunStats(*args, *rel);
    else if (args->command == "twopath")
      rc = RunTwoPath(*args, std::move(*rel));
    else if (args->command == "star") rc = RunStar(*args, std::move(*rel));
    else if (args->command == "ssj") rc = RunSsj(*args, std::move(*rel));
    else if (args->command == "scj") rc = RunScj(*args, std::move(*rel));
    else if (args->command == "bsi") rc = RunBsi(*args, *rel);
    else if (args->command == "triangles") rc = RunTriangles(*args, *rel);
    if (rc >= 0) {
      // Dump after the command so the registry holds this run's counters.
      if (args->Has("metrics") && rc == 0) {
        const int mrc = DumpMetrics(args->Get("metrics"));
        if (mrc != 0) return mrc;
      }
      return rc;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  PrintUsage();
  return 2;
}
